#include "protocols/multi_hop_run.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "analytic/tree_paths.hpp"
#include "protocols/tree_run.hpp"
#include "sim/stats.hpp"

namespace sigcomp::protocols {

MultiHopSimResult run_multi_hop(ProtocolKind kind, const MultiHopParams& params,
                                const MultiHopSimOptions& options) {
  params.validate();
  return run_multi_hop(kind,
                       analytic::HeteroMultiHopParams::from_homogeneous(params),
                       options);
}

MultiHopSimResult run_multi_hop(ProtocolKind kind,
                                const analytic::HeteroMultiHopParams& params,
                                const MultiHopSimOptions& options) {
  // The chain runs on the tree harness as the fan-out-1 tree.  These checks
  // come first only so the errors name run_multi_hop and the hop vectors.
  if (options.duration <= 0.0) {
    throw std::invalid_argument("run_multi_hop: duration must be > 0");
  }
  params.validate();
  if (!supports_multi_hop(kind)) {
    throw std::invalid_argument("run_multi_hop: unsupported protocol " +
                                std::string(to_string(kind)));
  }
  TreeSimOptions tree_options;
  tree_options.seed = options.seed;
  tree_options.duration = options.duration;
  tree_options.timer_dist = options.timer_dist;
  tree_options.delay_model = options.delay_model;
  tree_options.delay_shape = options.delay_shape;
  tree_options.trace = options.trace;
  TreeSimResult tree = run_tree(
      kind, analytic::TreeParams::from_path(params), tree_options);

  MultiHopSimResult out;
  out.metrics = tree.metrics;
  out.hop_inconsistency = std::move(tree.node_inconsistency);
  out.messages = tree.messages;
  out.duration = tree.duration;
  out.relay_timeouts = tree.relay_timeouts;
  return out;
}

MultiHopReplicatedResult run_multi_hop_replicated(
    ProtocolKind kind, const MultiHopParams& params,
    const MultiHopSimOptions& options, std::size_t replications) {
  if (replications == 0) {
    throw std::invalid_argument("run_multi_hop_replicated: need >= 1 replication");
  }
  sim::RunningStats inconsistency;
  sim::RunningStats message_rate;
  sim::RunningStats last_hop;
  for (std::size_t r = 0; r < replications; ++r) {
    MultiHopSimOptions rep = options;
    rep.seed = options.seed + r;
    const MultiHopSimResult result = run_multi_hop(kind, params, rep);
    inconsistency.add(result.metrics.inconsistency);
    message_rate.add(result.metrics.raw_message_rate);
    last_hop.add(result.hop_inconsistency.back());
  }
  MultiHopReplicatedResult out;
  out.inconsistency = sim::confidence_interval_95(inconsistency);
  out.message_rate = sim::confidence_interval_95(message_rate);
  out.last_hop_inconsistency = sim::confidence_interval_95(last_hop);
  out.replications = replications;
  return out;
}

}  // namespace sigcomp::protocols

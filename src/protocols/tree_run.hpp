// Tree simulation harness: a sender at the root plus relays on every other
// node, connected by lossy per-edge channels, running any of the five
// protocols, measured against the per-path analytic composition
// (analytic/tree_paths.hpp).  It is also the chain harness: run_multi_hop
// (protocols/multi_hop_run.hpp) runs its chain here as a fan-out-1 tree.
// With churn enabled (TreeSimOptions::churn) leaves join and leave the
// live tree IGMP-style and the result carries per-join setup latency and
// per-leave orphan windows.
#pragma once

#include <cstdint>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/metrics.hpp"
#include "core/protocol.hpp"
#include "protocols/membership.hpp"
#include "protocols/scenario.hpp"
#include "sim/channel_process.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace sigcomp::protocols {

/// Execution options of one tree simulation (a superset of
/// MultiHopSimOptions).
struct TreeSimOptions {
  std::uint64_t seed = 1;     ///< base seed of the run's RNG streams
  double duration = 50000.0;  ///< simulated seconds
  /// Timer law at every node (deterministic = real protocols).
  sim::Distribution timer_dist = sim::Distribution::kDeterministic;
  /// Per-edge channel delay law (mean = the edge's delay parameter).
  sim::DelayModel delay_model = sim::DelayModel::kExponential;
  double delay_shape = 1.5;  ///< Pareto tail index / lognormal sigma
  /// Optional trace sink; when set, every per-edge channel records its
  /// send/drop/deliver events (labels "dn0"/"up0", "dn1"/"up1", ...).
  /// Formatting is fully skipped when null -- tracing costs nothing when
  /// absent.
  sim::TraceLog* trace = nullptr;
  /// Leaf churn workload; disabled by default (the static tree, which is
  /// what the pinned golden traces cover).
  ChurnOptions churn;
  /// Correlated-event scenario (flash crowds, shared-risk bursts,
  /// interior-relay crashes); all rates default to zero, which replays the
  /// static / iid-churn run bit-for-bit.
  ScenarioOptions scenario;
};

/// Aggregate outcome of one tree simulation.
struct TreeSimResult {
  /// inconsistency = P(some node disagrees with its intent); raw msg rate.
  /// A node on the path to a joined leaf must mirror the root; a detached
  /// node must hold nothing (orphaned copies count as inconsistent).
  Metrics metrics;
  /// Per relay (tree node i+1): fraction of time its state disagrees with
  /// its intent (see metrics).
  std::vector<double> node_inconsistency;
  /// Per leaf, in increasing leaf-node order (TreeSpec::leaves): fraction
  /// of time ANY node on the root-to-leaf path disagrees with its intent
  /// -- on a static tree, the quantity the per-path chain model predicts.
  std::vector<double> leaf_path_inconsistency;
  std::uint64_t messages = 0;        ///< across every edge, both directions
  double duration = 0.0;             ///< simulated seconds
  std::uint64_t relay_timeouts = 0;  ///< soft-state timeouts across relays
  /// Leaf-churn outcome (all-zero when churn is disabled).
  ChurnReport churn;
  /// Interior-relay crashes driven by the failure scenario (0 without one).
  std::uint64_t relay_crashes = 0;
  /// Completed relay recoveries (0 without a failure scenario).
  std::uint64_t relay_recoveries = 0;
};

/// Runs one tree replication (any of the five protocols).  Throws
/// std::invalid_argument on bad parameters.
[[nodiscard]] TreeSimResult run_tree(ProtocolKind kind,
                                     const analytic::TreeParams& params,
                                     const TreeSimOptions& options);

/// Replicated tree estimates with 95% confidence intervals (seeds
/// options.seed, options.seed + 1, ..., mirroring the multi-hop API).
struct TreeReplicatedResult {
  sim::ConfidenceInterval inconsistency;  ///< all-nodes inconsistency
  sim::ConfidenceInterval message_rate;   ///< raw msg/s across the tree
  /// Largest per-leaf path inconsistency within each replication.
  sim::ConfidenceInterval worst_leaf_inconsistency;
  std::size_t replications = 0;  ///< independent runs aggregated
};

/// Runs `replications` independent tree simulations and aggregates them
/// (see TreeReplicatedResult).
[[nodiscard]] TreeReplicatedResult run_tree_replicated(
    ProtocolKind kind, const analytic::TreeParams& params,
    const TreeSimOptions& options, std::size_t replications);

}  // namespace sigcomp::protocols

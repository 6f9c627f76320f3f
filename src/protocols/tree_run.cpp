#include "protocols/tree_run.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rng_streams.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace sigcomp::protocols {

namespace {

/// Records a 0/1 inconsistency indicator.  Integrating 0 over any interval
/// adds exactly +0.0, so an indicator that is 0 and stays 0 needs no
/// sample: skipping it leaves every bit of its mean unchanged, and most
/// nodes are consistent most of the time.
void sample(sim::TimeWeightedValue& indicator, double now, bool bad) {
  if (bad || indicator.value() != 0.0) indicator.set(now, bad ? 1.0 : 0.0);
}

}  // namespace

TreeSession::TreeSession(const TreePlan& plan,
                         const analytic::TreeParams& params,
                         const ChurnOptions& churn,
                         const ScenarioOptions& scenario, TreeStreams streams,
                         Hook hook, sim::TraceLog* trace)
    : sim_(*plan.node().sim),
      params_(params),
      streams_(streams),
      hook_(std::move(hook)),
      topology_(plan, streams_.channel, streams_.nodes,
                protocols::Hook::bind<&TreeSession::resample>(this), trace) {
  if (churn.enabled() || scenario.membership_processes()) {
    // The controller feeds membership flips back through resample() so the
    // indicator moves the instant the required set does.  Churn and
    // scenario modulation each draw from their own stream, so a zero-churn
    // run replays the static tree, and an unmodulated run the iid-churn
    // trace, bit for bit.
    membership_.emplace(sim_, topology_, streams_.membership, churn, scenario,
                        &streams_.scenario_arrival, [this] { resample(); });
  }
  if (scenario.failure.enabled()) {
    failure_ = std::make_unique<RelayFailureProcess>(
        sim_, topology_, streams_.scenario_failure, scenario.failure,
        plan.node().mech.external_failure_detector);
  }
}

void TreeSession::start() {
  inconsistent_ = sim::TimeWeightedValue(sim_.now());
  topology_.sender().start(++version_);
  schedule_update();
  if (topology_.plan().node().mech.external_failure_detector &&
      params_.false_signal_rate > 0.0) {
    false_signal_events_.resize(topology_.relays());
    for (std::size_t i = 0; i < topology_.relays(); ++i) {
      schedule_false_signal(i);
    }
  }
  if (membership_) membership_->start();
  if (failure_) failure_->start();
  resample();
}

bool TreeSession::node_ok(std::size_t node) const {
  // Without churn every node is required -- the historical definition.
  const std::optional<std::int64_t> held = topology_.relay(node - 1).value();
  return topology_.node_required(node) ? held == topology_.sender().value()
                                       : !held.has_value();
}

void TreeSession::resample() {
  if (closed_) return;
  if (membership_) membership_->on_state_change();
  // This runs on every state change at every node, so it must not
  // allocate.
  bool all_ok = true;
  for (std::size_t node = 1; node <= topology_.relays(); ++node) {
    if (!node_ok(node)) {
      all_ok = false;
      break;
    }
  }
  sample(inconsistent_, sim_.now(), !all_ok);
  if (hook_) hook_(*this, all_ok);
}

void TreeSession::close() {
  closed_ = true;
  if (membership_) membership_->finish();
  // Cancel the pending crash/recovery/detection events so no scenario
  // event straggles past the window (the farm's teardown tests pin a flat
  // event pool).
  if (failure_) failure_->stop();
  cancel_timer(sim_, update_event_);
  for (const std::optional<sim::EventId>& id : false_signal_events_) {
    if (id) sim_.cancel(*id);
  }
  false_signal_events_.clear();
}

ChurnReport TreeSession::churn() const {
  return membership_ ? membership_->report() : ChurnReport{};
}

std::uint64_t TreeSession::relay_crashes() const noexcept {
  return failure_ ? failure_->crashes() : 0;
}

std::uint64_t TreeSession::relay_recoveries() const noexcept {
  return failure_ ? failure_->recoveries() : 0;
}

void TreeSession::schedule_update() {
  if (params_.update_rate <= 0.0) return;
  update_event_ = sim_.schedule_in(
      streams_.lifecycle.exponential(1.0 / params_.update_rate), [this] {
        update_event_ = {};
        topology_.sender().update(++version_);
        schedule_update();
      });
}

void TreeSession::schedule_false_signal(std::size_t relay) {
  false_signal_events_[relay] = sim_.schedule_in(
      streams_.failure.exponential(1.0 / params_.false_signal_rate),
      [this, relay] {
        false_signal_events_[relay].reset();
        topology_.relay(relay).external_removal_signal();
        schedule_false_signal(relay);
      });
}

TreeSimResult run_tree(ProtocolKind kind, const analytic::TreeParams& params,
                       const TreeSimOptions& options) {
  // NaN fails the first check and +inf the second: either would run the
  // simulator to a meaningless (or endless) horizon.
  if (!(options.duration > 0.0)) {
    throw std::invalid_argument("run_tree: duration must be > 0");
  }
  if (!std::isfinite(options.duration)) {
    throw std::invalid_argument("run_tree: duration must be finite");
  }
  params.validate();
  if (!supports_multi_hop(kind)) {
    throw std::invalid_argument("run_tree: unsupported protocol " +
                                std::string(to_string(kind)));
  }
  options.scenario.validate();

  // The per-relay and per-leaf path monitors, fed by the session's hook.
  // path_ok[n]: every node on node n's root path keeps its rule (entry 0,
  // the root, is always 1).
  const std::vector<std::size_t> leaves = params.tree.leaves();
  std::vector<sim::TimeWeightedValue> node_bad(params.edges());
  std::vector<sim::TimeWeightedValue> path_bad(leaves.size());
  std::vector<char> path_ok(params.tree.nodes(), 1);
  sim::Simulator sim;
  const std::uint64_t seed = options.seed;
  const TreePlan plan(sim, kind, params, options.timer_dist,
                      options.delay_model, options.delay_shape);
  TreeSession session(
      plan, params, options.churn, options.scenario,
      TreeStreams{sim::Rng(seed, rng::kTreeChannel),
                  sim::Rng(seed, rng::kTreeNodes),
                  sim::Rng(seed, rng::kTreeLifecycle),
                  sim::Rng(seed, rng::kTreeFailure),
                  sim::Rng(seed, rng::kTreeMembership),
                  sim::Rng(seed, rng::kTreeScenarioArrival),
                  sim::Rng(seed, rng::kTreeScenarioFailure)},
      [&](const TreeSession& s, bool all_ok) {
        const double now = sim.now();
        for (std::size_t n = 1; n < path_ok.size(); ++n) {
          path_ok[n] = s.node_ok(n) ? 1 : 0;
          sample(node_bad[n - 1], now, path_ok[n] == 0);
        }
        if (!all_ok) {
          // One root-first pass turns node flags into path flags:
          // path_ok[n] = path_ok[parent(n)] & ok(n).  TreeSpec orders every
          // parent before its children (parent[i] <= i), so node i+1's
          // parent is final by the time it is read.  When every node is
          // ok, every path is too and the flags are already right.
          const std::vector<std::size_t>& parent = params.tree.parent;
          for (std::size_t i = 0; i < parent.size(); ++i) {
            path_ok[i + 1] &= path_ok[parent[i]];
          }
        }
        for (std::size_t p = 0; p < leaves.size(); ++p) {
          sample(path_bad[p], now, path_ok[leaves[p]] == 0);
        }
      },
      options.trace);
  session.start();
  sim.run_until(options.duration);
  session.close();

  TreeSimResult out;
  out.duration = options.duration;
  out.messages = session.topology().messages_sent();
  out.relay_timeouts = session.topology().relay_timeouts();
  for (const sim::TimeWeightedValue& bad : node_bad) {
    out.node_inconsistency.push_back(bad.mean(options.duration));
  }
  for (const sim::TimeWeightedValue& bad : path_bad) {
    out.leaf_path_inconsistency.push_back(bad.mean(options.duration));
  }
  out.metrics.inconsistency = session.inconsistency(options.duration);
  out.metrics.raw_message_rate =
      static_cast<double>(out.messages) / options.duration;
  out.metrics.message_rate = out.metrics.raw_message_rate;
  out.churn = session.churn();
  out.relay_crashes = session.relay_crashes();
  out.relay_recoveries = session.relay_recoveries();
  return out;
}

TreeReplicatedResult run_tree_replicated(ProtocolKind kind,
                                         const analytic::TreeParams& params,
                                         const TreeSimOptions& options,
                                         std::size_t replications) {
  if (replications == 0) {
    throw std::invalid_argument("run_tree_replicated: need >= 1 replication");
  }
  sim::RunningStats inconsistency;
  sim::RunningStats message_rate;
  sim::RunningStats worst_leaf;
  for (std::size_t r = 0; r < replications; ++r) {
    TreeSimOptions rep = options;
    rep.seed = options.seed + r;
    const TreeSimResult result = run_tree(kind, params, rep);
    inconsistency.add(result.metrics.inconsistency);
    message_rate.add(result.metrics.raw_message_rate);
    worst_leaf.add(*std::max_element(result.leaf_path_inconsistency.begin(),
                                     result.leaf_path_inconsistency.end()));
  }
  TreeReplicatedResult out;
  out.inconsistency = sim::confidence_interval_95(inconsistency);
  out.message_rate = sim::confidence_interval_95(message_rate);
  out.worst_leaf_inconsistency = sim::confidence_interval_95(worst_leaf);
  out.replications = replications;
  return out;
}

}  // namespace sigcomp::protocols

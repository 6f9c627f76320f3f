// Tree simulation harness: a sender at the root plus relays on every other
// node, connected by lossy per-edge channels, running any of the five
// protocols, measured against the per-path analytic composition
// (analytic/tree_paths.hpp).  It is also the chain harness: run_multi_hop
// (protocols/multi_hop_run.hpp) runs its chain here as a fan-out-1 tree.
// With churn enabled (TreeSimOptions::churn) leaves join and leave the
// live tree IGMP-style and the result carries per-join setup latency and
// per-leave orphan windows.
//
// One tree session, TreeSession, runs every tree: run_tree drives one
// over a fixed horizon, and the session farm (exp/session_farm.cpp) drives
// one per farm session over that session's lifetime window.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "analytic/tree_paths.hpp"
#include "core/metrics.hpp"
#include "core/protocol.hpp"
#include "protocols/membership.hpp"
#include "protocols/scenario.hpp"
#include "protocols/topology.hpp"
#include "sim/channel_process.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace sigcomp::protocols {

/// The seven RNG streams a tree session draws from.  The caller keys them:
/// run_tree by its seed (rng::kTree*), the session farm by each session's
/// global index (rng::kSession*).
struct TreeStreams {
  sim::Rng channel;           ///< per-edge loss and delay
  sim::Rng nodes;             ///< every node's protocol timers
  sim::Rng lifecycle;         ///< the sender's update process
  sim::Rng failure;           ///< HS false removal signals
  sim::Rng membership;        ///< leaf churn
  sim::Rng scenario_arrival;  ///< modulated rejoins, shared-risk bursts
  sim::Rng scenario_failure;  ///< interior-relay crashes
};

/// One tree session: the Topology, its churn controller and relay-failure
/// process, the sender's update process, the HS false removal signals, and
/// the all-nodes inconsistency indicator.  A required node (on the path to
/// a joined leaf) must mirror the root and a detached node must hold
/// nothing; the session is inconsistent while any node breaks its rule.
///
/// The caller owns the window: start() opens it at the current time,
/// close() ends it, and what happens to the tree afterwards (run_tree
/// simply stops simulating; the farm stops or tears the tree down) is the
/// caller's.  Non-copyable and non-movable: the topology's callbacks and
/// the scheduled events point at the session.
class TreeSession {
 public:
  /// Called at the end of every resample() with the session and whether
  /// every node keeps its rule; run_tree feeds its per-node and per-leaf
  /// path monitors from it.  The farm attaches none.
  using Hook = std::function<void(const TreeSession&, bool all_ok)>;

  /// Builds the topology over `plan` (and the churn controller and failure
  /// process when `churn` or `scenario` enable them).  `plan` must be
  /// params' plan for a protocol that supports multi-hop trees; `plan`,
  /// `params`, `churn` and `scenario` must be valid and outlive the
  /// session.  Nothing is scheduled until start().
  TreeSession(const TreePlan& plan, const analytic::TreeParams& params,
              const ChurnOptions& churn, const ScenarioOptions& scenario,
              TreeStreams streams, Hook hook = nullptr,
              sim::TraceLog* trace = nullptr);

  TreeSession(const TreeSession&) = delete;             ///< non-copyable
  TreeSession& operator=(const TreeSession&) = delete;  ///< non-copyable

  /// Opens the window at the current time: installs version 1 at the root,
  /// starts the update, false-signal, churn and crash processes, and
  /// samples the indicator.
  void start();

  /// Resamples the indicator (and feeds the hook) after a state or
  /// membership change.  Does nothing after close().
  void resample();

  /// Ends the window: resample() turns into a no-op, the churn report is
  /// frozen, and every pending update, false-signal and crash event is
  /// cancelled.  The tree itself keeps its state.
  void close();

  /// True when tree node `node` (>= 1; relay node-1) keeps its rule.
  [[nodiscard]] bool node_ok(std::size_t node) const;

  /// Time-average of the all-nodes indicator from start() to `now`.
  [[nodiscard]] double inconsistency(double now) const {
    return inconsistent_.mean(now);
  }

  /// The wired tree.
  [[nodiscard]] Topology& topology() noexcept { return topology_; }
  /// The wired tree (const).
  [[nodiscard]] const Topology& topology() const noexcept {
    return topology_;
  }

  /// The lifecycle stream, before start() draws from it: the farm draws
  /// each session's arrival and lifetime here first.
  [[nodiscard]] sim::Rng& lifecycle_rng() noexcept {
    return streams_.lifecycle;
  }

  /// The churn outcome (all-zero without churn); frozen by close().
  [[nodiscard]] ChurnReport churn() const;
  /// Interior-relay crashes driven so far (0 without a failure scenario).
  [[nodiscard]] std::uint64_t relay_crashes() const noexcept;
  /// Completed relay recoveries (0 without a failure scenario).
  [[nodiscard]] std::uint64_t relay_recoveries() const noexcept;

 private:
  void schedule_update();
  void schedule_false_signal(std::size_t relay);

  sim::Simulator& sim_;
  const analytic::TreeParams& params_;
  TreeStreams streams_;
  Hook hook_;
  Topology topology_;
  std::optional<MembershipController> membership_;
  std::unique_ptr<RelayFailureProcess> failure_;
  sim::TimeWeightedValue inconsistent_;
  std::int64_t version_ = 0;
  bool closed_ = false;
  sim::TimerId update_event_;
  std::vector<std::optional<sim::EventId>> false_signal_events_;
};

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

/// Runs one tree replication (any of the five protocols): one TreeSession
/// over [0, options.duration].  Throws std::invalid_argument on bad
/// parameters or a duration that is not finite and > 0.
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

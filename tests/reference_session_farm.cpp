// Test-only reference copy of the pre-arena session farm -- see the header
// for why it exists and which pre-arena semantics it intentionally keeps.
// This is the last task-per-shard implementation, verbatim apart from the
// namespace, the entry-point names and keep_per_session support (the
// differential suite diffs per-session metric vectors element-wise).
#include "reference_session_farm.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/rng_streams.hpp"
#include "protocols/engine.hpp"
#include "protocols/topology.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace sigcomp::exp::testing {

namespace {

using protocols::MessageChannel;
using protocols::Message;

void validate_options(const SessionFarmOptions& options) {
  if (options.sessions == 0) {
    throw std::invalid_argument("SessionFarmOptions: sessions must be > 0");
  }
  if (options.arrival_rate <= 0.0) {
    throw std::invalid_argument("SessionFarmOptions: arrival_rate must be > 0");
  }
  if (options.session_lifetime <= 0.0) {
    throw std::invalid_argument(
        "SessionFarmOptions: session_lifetime must be > 0");
  }
  if (options.shard_size == 0) {
    throw std::invalid_argument("SessionFarmOptions: shard_size must be > 0");
  }
  options.leaf_churn.validate();
  options.scenario.validate();
}

/// Callbacks a session uses to report lifecycle transitions to its shard.
struct ShardHooks {
  std::size_t active = 0;
  std::size_t peak = 0;
  std::size_t completed = 0;

  void on_started() {
    ++active;
    peak = std::max(peak, active);
  }
  void on_completed() {
    --active;
    ++completed;
  }
};

/// Per-session randomness: eight independent streams keyed to the session's
/// global index, mirroring the stream layout of the single-hop harness
/// (the membership and scenario streams are consumed only by tree sessions
/// that enable the corresponding workload).
/// The stream IDs come from the registry in core/rng_streams.hpp -- the
/// farm layout and the single-hop harness layout are the SAME constants,
/// which is what makes the mirroring self-evident.
struct SessionRngs {
  sim::Rng channel;
  sim::Rng sender;
  sim::Rng receiver;
  sim::Rng lifecycle;
  sim::Rng failure;
  sim::Rng membership;
  sim::Rng scenario_arrival;
  sim::Rng scenario_failure;

  SessionRngs(std::uint64_t base_seed, std::uint64_t global_index)
      : channel(session_seed(base_seed, global_index), rng::kSessionChannel),
        sender(session_seed(base_seed, global_index), rng::kSessionSender),
        receiver(session_seed(base_seed, global_index), rng::kSessionReceiver),
        lifecycle(session_seed(base_seed, global_index),
                  rng::kSessionLifecycle),
        failure(session_seed(base_seed, global_index), rng::kSessionFailure),
        membership(session_seed(base_seed, global_index),
                   rng::kSessionMembership),
        scenario_arrival(session_seed(base_seed, global_index),
                         rng::kSessionScenarioArrival),
        scenario_failure(session_seed(base_seed, global_index),
                         rng::kSessionScenarioFailure) {}

 private:
  /// The per-session seed family: replica_seed keyed to the session's
  /// global index (replica lane 0 -- the substream split happens in
  /// sim::Rng's stream argument, not here).
  static std::uint64_t session_seed(std::uint64_t base_seed,
                                    std::uint64_t global_index) {
    return replica_seed(base_seed, global_index, 0);
  }
};

/// One single-hop session: arrival -> install -> updates -> removal ->
/// absorption, measured over [arrival, absorption].  A one-shot version of
/// the renewal construction in protocols/single_hop_run.cpp.
class SingleHopSession {
 public:
  SingleHopSession(sim::Simulator& sim, ProtocolKind kind,
                   const SingleHopParams& params,
                   const SessionFarmOptions& options,
                   std::uint64_t global_index, ShardHooks& hooks)
      : sim_(sim),
        params_(params),
        options_(options),
        mech_(mechanisms(kind)),
        hooks_(hooks),
        rngs_(options.seed, global_index),
        forward_(sim, rngs_.channel, params.loss_config(),
                 sim::DelayConfig{options.delay_model, params.delay,
                                  options.delay_shape},
                 [this](const Message& m) { receiver_->handle(m); }),
        reverse_(sim, rngs_.channel, params.loss_config(),
                 sim::DelayConfig{options.delay_model, params.delay,
                                  options.delay_shape},
                 [this](const Message& m) { sender_->handle(m); }) {
    protocols::TimerSettings timers{options.timer_dist, params.refresh_timer,
                                    params.timeout_timer,
                                    params.retrans_timer};
    sender_ = std::make_unique<protocols::SenderEngine>(
        sim_, rngs_.sender, mech_, timers, forward_, [this] { on_change(); });
    receiver_ = std::make_unique<protocols::ReceiverEngine>(
        sim_, rngs_.receiver, mech_, timers, reverse_,
        [this] { on_change(); });
    // Staggered Poisson arrivals: conditioned on N arrivals in the window,
    // arrival times are iid uniform over it -- and drawing from the
    // session's own stream keys the time to the global index alone.
    const double window =
        static_cast<double>(options.sessions) / options.arrival_rate;
    arrival_ = window * rngs_.lifecycle.uniform();
    lifetime_ = rngs_.lifecycle.exponential(options.session_lifetime);
    sim_.schedule_at(arrival_, [this] { begin(); });
  }

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  /// Counters frozen at absorption time, so results cannot depend on which
  /// straggler events the shard's simulator happened to execute afterwards.
  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] std::uint64_t receiver_timeouts() const noexcept {
    return timeouts_;
  }
  /// Single-hop sessions have no tree to churn; always all-zero (the farm
  /// rejects enabled churn before any session is built).
  [[nodiscard]] const protocols::ChurnReport& churn() const noexcept {
    return churn_;
  }
  /// No tree, no relays to crash (the farm rejects an enabled scenario).
  [[nodiscard]] std::uint64_t relay_crashes() const noexcept { return 0; }
  /// See relay_crashes.
  [[nodiscard]] std::uint64_t relay_recoveries() const noexcept { return 0; }

 private:
  void begin() {
    hooks_.on_started();
    inconsistent_ = sim::TimeWeightedValue(arrival_);
    sender_->begin_epoch(1);
    receiver_->begin_epoch(1);
    sender_->install(++version_);
    schedule_update();
    removal_event_ = sim_.schedule_in(lifetime_, [this] {
      removal_event_.reset();
      sender_removed_ = true;
      sender_->remove();
      check_absorption();
    });
    if (mech_.external_failure_detector && params_.false_signal_rate > 0.0) {
      schedule_false_signal();
    }
    on_change();
  }

  void schedule_update() {
    if (params_.update_rate <= 0.0) return;
    update_event_ = sim_.schedule_in(
        rngs_.lifecycle.exponential(1.0 / params_.update_rate), [this] {
          update_event_.reset();
          if (!sender_removed_ && sender_->value()) {
            sender_->update(++version_);
          }
          schedule_update();
        });
  }

  void schedule_false_signal() {
    false_signal_event_ = sim_.schedule_in(
        rngs_.failure.exponential(1.0 / params_.false_signal_rate), [this] {
          false_signal_event_.reset();
          receiver_->external_removal_signal();
          schedule_false_signal();
        });
  }

  void cancel(std::optional<sim::EventId>& id) {
    if (id) {
      sim_.cancel(*id);
      id.reset();
    }
  }

  void on_change() {
    if (done_) return;
    const bool consistent = sender_->value() == receiver_->value();
    inconsistent_.set(sim_.now(), consistent ? 0.0 : 1.0);
    check_absorption();
  }

  void check_absorption() {
    if (done_ || !sender_removed_ || receiver_->value()) return;
    done_ = true;
    const double end = sim_.now();
    const double length = end - arrival_;
    messages_ = forward_.counters().sent + reverse_.counters().sent;
    timeouts_ = receiver_->timeouts();
    const auto sent = static_cast<double>(messages_);
    metrics_.inconsistency = inconsistent_.mean(end);
    metrics_.session_length = length;
    metrics_.raw_message_rate = length > 0.0 ? sent / length : 0.0;
    // M-bar = (messages per session) * lambda_r, as in Eq. (2); the farm's
    // removal rate is 1 / mean lifetime.
    metrics_.message_rate = sent / options_.session_lifetime;
    cancel(update_event_);
    cancel(false_signal_event_);
    cancel(removal_event_);
    // Jump both engines to a dead epoch: stragglers still in flight can no
    // longer resurrect state (there is no next session to protect, but a
    // resurrected receiver would re-arm timers and skew event counts).
    sender_->begin_epoch(2);
    receiver_->begin_epoch(2);
    hooks_.on_completed();
  }

  sim::Simulator& sim_;
  // The shard keeps params/options alive for the sessions' whole lifetime;
  // 100k sessions should not hold 100k copies.
  const SingleHopParams& params_;
  const SessionFarmOptions& options_;
  MechanismSet mech_;
  ShardHooks& hooks_;
  SessionRngs rngs_;
  MessageChannel forward_;
  MessageChannel reverse_;
  std::unique_ptr<protocols::SenderEngine> sender_;
  std::unique_ptr<protocols::ReceiverEngine> receiver_;

  double arrival_ = 0.0;
  double lifetime_ = 0.0;
  std::int64_t version_ = 0;
  bool sender_removed_ = false;
  bool done_ = false;
  std::uint64_t messages_ = 0;
  std::uint64_t timeouts_ = 0;
  sim::TimeWeightedValue inconsistent_;
  std::optional<sim::EventId> update_event_;
  std::optional<sim::EventId> removal_event_;
  std::optional<sim::EventId> false_signal_event_;
  Metrics metrics_;
  protocols::ChurnReport churn_;
};

/// One tree session: arrival -> start -> updates over a full
/// protocols::Topology -- one sender, relays at interior nodes, receivers
/// at the leaves, per-edge channels.  Chain sessions run through this very
/// class as fan-out-1 trees.  Measured over the lifetime window
/// [arrival, arrival + lifetime], then silently torn down with
/// Topology::stop().
class TreeSession {
 public:
  TreeSession(sim::Simulator& sim, ProtocolKind kind,
              const analytic::TreeParams& params,
              const SessionFarmOptions& options, std::uint64_t global_index,
              ShardHooks& hooks)
      : sim_(sim),
        params_(params),
        options_(options),
        mech_(mechanisms(kind)),
        hooks_(hooks),
        rngs_(options.seed, global_index) {
    protocols::TimerSettings timers{options.timer_dist, params.refresh_timer,
                                    params.timeout_timer,
                                    params.retrans_timer};
    std::vector<sim::LossConfig> edge_loss;
    std::vector<sim::DelayConfig> edge_delay;
    edge_loss.reserve(params.edges());
    edge_delay.reserve(params.edges());
    for (std::size_t e = 0; e < params.edges(); ++e) {
      edge_loss.push_back(params.edge_loss_config(e));
      edge_delay.push_back(sim::DelayConfig{options.delay_model,
                                            params.delay[e],
                                            options.delay_shape});
    }
    topology_ = std::make_unique<protocols::Topology>(
        sim, rngs_.channel, rngs_.sender, mech_, timers, params.tree,
        edge_loss, edge_delay, [this] { on_change(); });
    if (options.leaf_churn.enabled() ||
        options.scenario.membership_processes()) {
      membership_ = std::make_unique<protocols::MembershipController>(
          sim, *topology_, rngs_.membership, options.leaf_churn,
          options.scenario, &rngs_.scenario_arrival, [this] { on_change(); });
    }
    if (options.scenario.failure.enabled()) {
      failure_ = std::make_unique<protocols::RelayFailureProcess>(
          sim, *topology_, rngs_.scenario_failure, options.scenario.failure,
          mech_.external_failure_detector);
    }
    const double window =
        static_cast<double>(options.sessions) / options.arrival_rate;
    arrival_ = window * rngs_.lifecycle.uniform();
    lifetime_ = rngs_.lifecycle.exponential(options.session_lifetime);
    sim_.schedule_at(arrival_, [this] { begin(); });
  }

  [[nodiscard]] bool done() const noexcept { return done_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  /// Counters frozen at window end: stragglers delivered to a stopped
  /// tree may still execute (and even re-install relay state briefly),
  /// and how many do depends on how long the shard keeps simulating --
  /// snapshotting keeps results independent of the shard decomposition.
  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] std::uint64_t receiver_timeouts() const noexcept {
    return timeouts_;
  }
  /// The churn outcome frozen at window end (all-zero without churn).
  [[nodiscard]] const protocols::ChurnReport& churn() const noexcept {
    return churn_;
  }
  /// Interior-relay crashes frozen at window end (0 without a scenario).
  [[nodiscard]] std::uint64_t relay_crashes() const noexcept {
    return crashes_;
  }
  /// Completed recoveries frozen at window end.
  [[nodiscard]] std::uint64_t relay_recoveries() const noexcept {
    return recoveries_;
  }

 private:
  void begin() {
    hooks_.on_started();
    inconsistent_ = sim::TimeWeightedValue(arrival_);
    topology_->sender().start(++version_);
    schedule_update();
    if (mech_.external_failure_detector && params_.false_signal_rate > 0.0) {
      false_signal_events_.resize(topology_->relays());
      for (std::size_t i = 0; i < topology_->relays(); ++i) {
        schedule_false_signal(i);
      }
    }
    if (membership_) membership_->start();
    if (failure_) failure_->start();
    sim_.schedule_in(lifetime_, [this] { finish(); });
    on_change();
  }

  void schedule_update() {
    if (params_.update_rate <= 0.0) return;
    update_event_ = sim_.schedule_in(
        rngs_.lifecycle.exponential(1.0 / params_.update_rate), [this] {
          update_event_.reset();
          topology_->sender().update(++version_);
          schedule_update();
        });
  }

  void schedule_false_signal(std::size_t relay) {
    false_signal_events_[relay] = sim_.schedule_in(
        rngs_.failure.exponential(1.0 / params_.false_signal_rate),
        [this, relay] {
          false_signal_events_[relay].reset();
          topology_->relay(relay).external_removal_signal();
          schedule_false_signal(relay);
        });
  }

  void on_change() {
    if (done_) return;
    if (membership_) membership_->on_state_change();
    bool all_ok = true;
    for (std::size_t i = 0; i < topology_->relays(); ++i) {
      // Required nodes must mirror the sender; detached nodes must hold
      // nothing (without churn every node is required -- the historical
      // definition, bit for bit).
      const bool ok = topology_->node_required(i + 1)
                          ? topology_->relay(i).value() ==
                                topology_->sender().value()
                          : !topology_->relay(i).value().has_value();
      all_ok = all_ok && ok;
    }
    inconsistent_.set(sim_.now(), all_ok ? 0.0 : 1.0);
  }

  void finish() {
    done_ = true;
    const double end = sim_.now();
    if (membership_) {
      membership_->finish();
      churn_ = membership_->report();
    }
    if (failure_) {
      // Cancel the pending crash/recovery/detection events BEFORE the
      // counters are frozen, so no scenario event straggles past the
      // window (the teardown tests pin a flat event pool).
      failure_->stop();
      crashes_ = failure_->crashes();
      recoveries_ = failure_->recoveries();
    }
    messages_ = topology_->messages_sent();
    timeouts_ = topology_->relay_timeouts();
    const auto sent = static_cast<double>(messages_);
    metrics_.inconsistency = inconsistent_.mean(end);
    metrics_.session_length = lifetime_;
    metrics_.raw_message_rate = lifetime_ > 0.0 ? sent / lifetime_ : 0.0;
    metrics_.message_rate = metrics_.raw_message_rate;
    if (update_event_) {
      sim_.cancel(*update_event_);
      update_event_.reset();
    }
    for (auto& id : false_signal_events_) {
      if (id) sim_.cancel(*id);
    }
    false_signal_events_.clear();
    topology_->stop();
    hooks_.on_completed();
  }

  sim::Simulator& sim_;
  const analytic::TreeParams& params_;
  const SessionFarmOptions& options_;
  MechanismSet mech_;
  ShardHooks& hooks_;
  SessionRngs rngs_;
  std::unique_ptr<protocols::Topology> topology_;
  std::unique_ptr<protocols::MembershipController> membership_;
  std::unique_ptr<protocols::RelayFailureProcess> failure_;

  double arrival_ = 0.0;
  double lifetime_ = 0.0;
  std::int64_t version_ = 0;
  bool done_ = false;
  std::uint64_t messages_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t recoveries_ = 0;
  sim::TimeWeightedValue inconsistent_;
  std::optional<sim::EventId> update_event_;
  std::vector<std::optional<sim::EventId>> false_signal_events_;
  Metrics metrics_;
  protocols::ChurnReport churn_;
};

/// Everything one shard reports back to the aggregator.
struct ShardOutcome {
  std::vector<Metrics> per_session;  ///< in global session order
  /// Per-session churn reports in global session order: summed by the
  /// aggregator in that order, so the reduced report cannot depend on the
  /// shard decomposition (floating-point addition is order-sensitive).
  std::vector<protocols::ChurnReport> per_session_churn;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  std::uint64_t receiver_timeouts = 0;
  std::uint64_t relay_crashes = 0;
  std::uint64_t relay_recoveries = 0;
  double end_time = 0.0;
  std::size_t peak = 0;
};

/// Simulates sessions [first, first + count) of the farm in one Simulator.
template <typename Session, typename Params>
ShardOutcome run_shard(ProtocolKind kind, const Params& params,
                       const SessionFarmOptions& options, std::size_t first,
                       std::size_t count) {
  sim::Simulator sim;
  ShardHooks hooks;
  std::vector<std::unique_ptr<Session>> sessions;
  sessions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    sessions.push_back(std::make_unique<Session>(
        sim, kind, params, options, static_cast<std::uint64_t>(first + i),
        hooks));
  }
  while (hooks.completed < count && sim.step()) {
  }
  if (hooks.completed < count) {
    throw std::logic_error("session farm: shard stalled before completing");
  }

  ShardOutcome out;
  out.per_session.reserve(count);
  out.per_session_churn.reserve(count);
  for (const auto& session : sessions) {
    out.per_session.push_back(session->metrics());
    out.per_session_churn.push_back(session->churn());
    out.messages += session->messages();
    out.receiver_timeouts += session->receiver_timeouts();
    out.relay_crashes += session->relay_crashes();
    out.relay_recoveries += session->relay_recoveries();
  }
  out.events = sim.events_executed();
  out.end_time = sim.now();
  out.peak = hooks.peak;
  return out;
}

template <typename Session, typename Params>
SessionFarmResult run_farm(ProtocolKind kind, const Params& params,
                           const SessionFarmOptions& options) {
  validate_options(options);
  params.validate();

  const std::size_t n = options.sessions;
  const std::size_t shard_size = std::min(options.shard_size, n);
  const std::size_t shards = (n + shard_size - 1) / shard_size;

  std::optional<ParallelSweep> local_engine;
  ParallelSweep* engine = options.engine;
  if (engine == nullptr) {
    local_engine.emplace(options.threads);
    engine = &*local_engine;
  }

  const std::vector<ShardOutcome> outcomes =
      engine->map_indexed(shards, [&](std::size_t shard) {
        const std::size_t first = shard * shard_size;
        const std::size_t count = std::min(shard_size, n - first);
        return run_shard<Session>(kind, params, options, first, count);
      });

  SessionFarmResult result;
  result.shards = shards;
  std::vector<Metrics> all_sessions;
  all_sessions.reserve(n);
  for (const ShardOutcome& outcome : outcomes) {
    all_sessions.insert(all_sessions.end(), outcome.per_session.begin(),
                        outcome.per_session.end());
    for (const protocols::ChurnReport& churn : outcome.per_session_churn) {
      result.churn.absorb(churn);
    }
    result.messages += outcome.messages;
    result.events_executed += outcome.events;
    result.receiver_timeouts += outcome.receiver_timeouts;
    result.relay_crashes += outcome.relay_crashes;
    result.relay_recoveries += outcome.relay_recoveries;
    result.horizon = std::max(result.horizon, outcome.end_time);
    result.peak_sessions_in_flight += outcome.peak;
  }
  result.sessions = all_sessions.size();
  result.summary = summarize_replicas(all_sessions);
  if (options.keep_per_session) result.per_session = std::move(all_sessions);
  return result;
}

}  // namespace

SessionFarmResult run_reference_session_farm(ProtocolKind kind,
                                   const SingleHopParams& params,
                                   const SessionFarmOptions& options) {
  if (options.leaf_churn.enabled()) {
    throw std::invalid_argument(
        "run_reference_session_farm: leaf churn needs tree or chain sessions");
  }
  if (options.scenario.enabled()) {
    throw std::invalid_argument(
        "run_reference_session_farm: scenario processes need tree or chain sessions");
  }
  return run_farm<SingleHopSession>(kind, params, options);
}

SessionFarmResult run_reference_session_farm(ProtocolKind kind,
                                   const MultiHopParams& params,
                                   const SessionFarmOptions& options) {
  if (!supports_multi_hop(kind)) {
    throw std::invalid_argument(
        "run_reference_session_farm: unsupported multi-hop protocol");
  }
  // A chain session IS a fan-out-1 tree session: one session class, one
  // wiring path (the chain is TreeSpec::chain, bit for bit).
  return run_farm<TreeSession>(kind, analytic::TreeParams::chain(params),
                               options);
}

SessionFarmResult run_reference_session_farm(ProtocolKind kind,
                                   const analytic::TreeParams& params,
                                   const SessionFarmOptions& options) {
  if (!supports_multi_hop(kind)) {
    throw std::invalid_argument(
        "run_reference_session_farm: unsupported multi-hop protocol");
  }
  return run_farm<TreeSession>(kind, params, options);
}

}  // namespace sigcomp::exp::testing

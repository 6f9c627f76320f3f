// Arena-backed farm execution layer.
//
// Three structural changes over the task-per-shard farm that
// tests/reference_session_farm.cpp preserves (and the differential suite
// diffs against, element-wise per session):
//
//  * Arena/SoA session state: every per-session object lives in a pre-sized
//    per-shard SessionArena (exp/session_arena.hpp).  Single-hop sessions
//    are flattened -- channels and engines are direct members, no
//    unique_ptr indirection -- and their slots are recycled through a
//    free list once quiescent, so steady-state arrival/teardown performs
//    zero heap allocations (asserted by tests via the arena counters and
//    EventCallback::heap_allocations()).
//  * Persistent per-core shard workers: instead of fanning one task per
//    shard through parallel_for, each of W = min(threads, shards) workers
//    owns the strided shard set {w, w+W, ...} and advances each shard's
//    Simulator in time slices (Simulator::run_slice), with batched
//    timer-expiry delivery amortizing queue pops on the refresh-storm hot
//    path.  Every shard -- single-hop, chain/tree or shared relay -- is one
//    FarmShard<Session, Params>; only the slice schedule differs between
//    ring-free runs (free-running) and fabric runs (lockstep epochs, see
//    "the two schedules" below).
//  * Exact peak_sessions_in_flight: the reduce step merges every session's
//    [begin, completion] endpoints across shards and sweeps them globally,
//    replacing the summed-per-shard upper bound.
//
// The determinism contract is unchanged and load-bearing: per-session
// randomness stays keyed to the global session index, shard boundaries stay
// fixed by shard_size alone, and per-session metrics are reduced in global
// session order.  The rewrite is bit-identical to the reference farm at any
// thread count and shard size because every shard's EVENT STREAM is
// identical:
//
//  * The reference constructs all sessions up front, and each construction
//    pushes exactly ONE event (the arrival; everything else a session ctor
//    does is passive).  The arena farm's pre-scan pushes the same arrival
//    events, in the same session order (same seqs), at the same times --
//    it re-derives each arrival from a fresh kSessionLifecycle stream, the
//    same first draw the session itself repeats at spawn time.
//  * When an arrival fires, the session is placement-constructed (passive)
//    and begin() runs inside that same event -- exactly the work the
//    reference's arrival event performs, pushing the same follow-up events
//    in the same order.  By induction the two farms' queues hold identical
//    (time, seq) sets at every step, and run_slice dispatches in exact pop
//    order, so every RNG draw, message and metric lands identically.
#include "exp/session_farm.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/rng_streams.hpp"
#include "exp/session_arena.hpp"
#include "exp/shard_ring.hpp"
#include "exp/thread_pool.hpp"
#include "protocols/engine.hpp"
#include "protocols/shared_relay.hpp"
#include "protocols/tree_run.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace sigcomp::exp {

namespace {

using protocols::MessageChannel;
using protocols::Message;

/// Slice width of the shard workers' round-robin (simulated seconds).  A
/// pure performance knob: each slice is anchored at the shard's next
/// pending event, and run_slice preserves exact pop order, so any width
/// yields the same results.  10 s spans several refresh periods, batching
/// enough expiries per drain to amortize the pops.
constexpr double kSliceSeconds = 10.0;

/// Epoch width of the cross-shard fabric (simulated seconds).  UNLIKE
/// kSliceSeconds this is a MODEL parameter, not a performance knob: fabric
/// messages are delivered at the next epoch boundary, so the width bounds
/// the inter-session delivery latency -- and results must not depend on
/// thread count or shard size, which they would if the width ever varied
/// with either.  Hence a fixed constant: 1 s sits well under the default
/// refresh period (an install is visible at the relay before the first
/// refresh fires) while keeping epoch-barrier counts in the thousands.
constexpr double kFabricSliceSeconds = 1.0;

void validate_options(const SessionFarmOptions& options) {
  if (options.sessions == 0) {
    throw std::invalid_argument("SessionFarmOptions: sessions must be > 0");
  }
  // An infinite arrival rate is legal: every session then arrives at t = 0.
  if (std::isnan(options.arrival_rate) || options.arrival_rate <= 0.0) {
    throw std::invalid_argument(
        "SessionFarmOptions: arrival_rate must be > 0 (got " +
        std::to_string(options.arrival_rate) + ")");
  }
  if (!std::isfinite(options.session_lifetime) ||
      options.session_lifetime <= 0.0) {
    throw std::invalid_argument(
        "SessionFarmOptions: session_lifetime must be finite and > 0 (got " +
        std::to_string(options.session_lifetime) + ")");
  }
  if (options.shard_size == 0) {
    throw std::invalid_argument("SessionFarmOptions: shard_size must be > 0");
  }
  // The channel delay law's shape, checked here (with DelayConfig's own
  // messages) so that a bad law fails before any event runs; the mean is
  // each params type's `delay`, which params.validate() checks.
  sim::DelayConfig{options.delay_model, 0.0, options.delay_shape}.validate();
  options.leaf_churn.validate();
  options.scenario.validate();
  if (options.shared_relays == 0) return;
  if (options.subscribers_per_relay == 0) {
    throw std::invalid_argument(
        "SessionFarmOptions: subscribers_per_relay must be > 0 with shared "
        "relays");
  }
  if (options.subscribers_per_relay >
      options.sessions / options.shared_relays) {
    throw std::invalid_argument(
        "SessionFarmOptions: shared_relays * subscribers_per_relay must be "
        "<= sessions");
  }
}

/// Global-index <-> shard mapping.  Farm shards partition [0, sessions)
/// into fixed blocks of shard_size; relay shards (fabric runs only)
/// partition [sessions, sessions + relays) with the same shard_size,
/// starting at a fresh shard boundary (a shard never mixes the two session
/// types).  Pure arithmetic on global indices, so every worker can route
/// without shared state.
struct ShardMap {
  explicit ShardMap(const SessionFarmOptions& options)
      : shard_size(std::min(options.shard_size, options.sessions)),
        sessions(options.sessions),
        relays(options.shared_relays),
        farm_shards((sessions + shard_size - 1) / shard_size),
        shards(farm_shards + (relays + shard_size - 1) / shard_size) {}

  std::size_t shard_size;
  std::size_t sessions;     ///< farm sessions (relays start here)
  std::size_t relays;       ///< shared relay sessions
  std::size_t farm_shards;  ///< shards [0, farm_shards) hold farm sessions
  std::size_t shards;       ///< farm shards + relay shards

  [[nodiscard]] std::uint32_t shard_of(std::uint64_t g) const noexcept {
    if (g < sessions) return static_cast<std::uint32_t>(g / shard_size);
    return static_cast<std::uint32_t>(farm_shards +
                                      (g - sessions) / shard_size);
  }

  /// Global index of shard `s`'s first session.
  [[nodiscard]] std::size_t first(std::size_t s) const noexcept {
    return s < farm_shards ? s * shard_size
                           : sessions + (s - farm_shards) * shard_size;
  }

  /// Sessions in shard `s`.
  [[nodiscard]] std::size_t count(std::size_t s) const noexcept {
    const std::size_t end = s < farm_shards ? sessions : sessions + relays;
    return std::min(shard_size, end - first(s));
  }
};

class FabricPort;

/// A session's fabric identity: its port (the owning shard's producer
/// half), its global index, and its private send counter -- the seq of the
/// delivery stamp.  Per-SESSION, not per-ring or per-shard: only a counter
/// keyed to the global index survives re-sharding unchanged, which is what
/// keeps the stamp order shard-size-invariant.  Endpoints hold this by
/// value; the FabricSend closures capture one pointer to it (so they stay
/// inside the std::function small-buffer and sends never allocate).
struct FabricCtx {
  FabricPort* port = nullptr;
  std::uint64_t source = 0;  ///< sending session's global index
  std::uint64_t seq = 0;     ///< per-source send counter
};

/// A shard's fabric attachment.  send() is the producer half: it stamps
/// and pushes outgoing messages onto the ring toward the destination's
/// shard, and is called only from inside the owning shard's own events (the
/// advance phase), the ring-growth-safe producer window.  drain() is the
/// consumer half, called only in the drain phase.
class FabricPort {
 public:
  FabricPort(sim::Simulator& sim, CrossShardFabric& fabric,
             std::uint32_t shard, const ShardMap& map)
      : sim_(sim), fabric_(fabric), shard_(shard), map_(map) {}

  void send(FabricCtx& ctx, std::uint64_t dest, const Message& message) {
    ShardRing* ring = fabric_.find_ring(shard_, map_.shard_of(dest));
    if (ring == nullptr) {
      // Every communicating pair is materialized at setup from the static
      // subscription map; a miss is a routing bug, not a runtime condition.
      throw std::logic_error("session farm: fabric send on unwired pair");
    }
    ring->push(CrossShardEntry{sim_.now(), ctx.source, ctx.seq++, dest,
                               message});
  }

  /// Appends every entry on the shard's incoming rings to `out`; returns
  /// the count.
  std::size_t drain(std::vector<CrossShardEntry>& out) {
    return fabric_.drain_into(shard_, out);
  }

 private:
  sim::Simulator& sim_;
  CrossShardFabric& fabric_;
  std::uint32_t shard_;
  ShardMap map_;
};

/// Where sessions deposit their results, indexed by the session's local
/// (within-shard) index so completion order cannot affect anything.
/// Completion-time recording replaces the reference farm's
/// read-the-session-at-shard-end extraction: recycled sessions are
/// destroyed long before the shard finishes, so everything a session will
/// ever report is captured the moment it completes.  FarmShard::finish()
/// adds the shard's own counters and moves the sink out as the shard's
/// outcome.
struct ShardSink {
  std::vector<Metrics> metrics;  ///< per local index (= global order)
  /// Per local index.  Summed by the aggregator in global session order,
  /// so the reduced report cannot depend on the shard decomposition
  /// (floating-point addition is order-sensitive).
  std::vector<protocols::ChurnReport> churn;
  std::vector<double> arrival;  ///< begin times, filled by the pre-scan
  std::vector<double> end;      ///< completion times, filled on completion
  std::uint64_t messages = 0;
  std::uint64_t receiver_timeouts = 0;
  std::uint64_t relay_crashes = 0;
  std::uint64_t relay_recoveries = 0;
  std::uint64_t teardown_messages = 0;  ///< explicit-teardown traffic (trees)
  std::uint64_t relay_installs = 0;     ///< hub installs (relay shards)
  std::uint64_t relay_refreshes = 0;    ///< hub refreshes (relay shards)
  std::uint64_t relay_soft_timeouts = 0;  ///< hub slot expiries
  std::uint64_t fabric_dropped = 0;  ///< deliveries to closed endpoints
  std::size_t completed = 0;
  // Filled by FarmShard::finish().
  std::uint64_t events = 0;       ///< the shard simulator's events
  double end_time = 0.0;          ///< the shard simulator's final clock
  std::size_t arena_high_water = 0;
  std::size_t arena_chunks = 0;
  /// Hands a completed session (arena slot, local index) back to the
  /// shard: the slot goes to the arena's cooling list and, in fabric runs,
  /// the session's fabric endpoint closes so late deliveries are dropped
  /// deterministically.  Bound by the shard (captures one pointer; fits the
  /// std::function SBO, so completion stays allocation-free).
  std::function<void(std::uint32_t, std::size_t)> retire;
};

/// The per-session seed family: replica_seed keyed to the session's global
/// index (replica lane 0 -- the substream split happens in sim::Rng's
/// stream argument, not here).  The stream IDs come from the registry in
/// core/rng_streams.hpp -- the farm layout and the single-hop harness
/// layout are the SAME constants, which is what makes the mirroring
/// self-evident.
std::uint64_t session_seed(std::uint64_t base_seed,
                           std::uint64_t global_index) {
  return replica_seed(base_seed, global_index, 0);
}

/// A single-hop session's randomness: five independent streams keyed to
/// the session's global index, mirroring the stream layout of the
/// single-hop harness.  The sixth, kSessionRelay, lives with the fabric
/// subscriber state (FabricSubscriber), since only subscribers consume it.
struct SessionRngs {
  sim::Rng channel;
  sim::Rng sender;
  sim::Rng receiver;
  sim::Rng lifecycle;
  sim::Rng failure;

  SessionRngs(std::uint64_t base_seed, std::uint64_t global_index)
      : channel(session_seed(base_seed, global_index), rng::kSessionChannel),
        sender(session_seed(base_seed, global_index), rng::kSessionSender),
        receiver(session_seed(base_seed, global_index), rng::kSessionReceiver),
        lifecycle(session_seed(base_seed, global_index),
                  rng::kSessionLifecycle),
        failure(session_seed(base_seed, global_index), rng::kSessionFailure) {}
};

/// A fabric subscriber's state, kept out of line so that ring-free
/// sessions carry none of it: its fabric identity, its kSessionRelay
/// stream and the RelayClient that installs its state at relay session
/// (self mod R).  Lives in its shard's side table, which only fabric runs
/// allocate, at the session's local index; it never moves.
struct FabricSubscriber {
  FabricSubscriber(FabricPort& port, std::uint64_t self,
                   const SessionFarmOptions& options,
                   const protocols::NodeContext& node)
      : ctx{&port, self, 0},
        rng(session_seed(options.seed, self), rng::kSessionRelay),
        client(*node.sim, rng, node.timers,
               options.sessions + self % options.shared_relays,
               [c = &ctx](std::uint64_t dest, const Message& m) {
                 c->port->send(*c, dest, m);
               }) {}

  FabricCtx ctx;
  sim::Rng rng;
  protocols::RelayClient client;
};

/// A shard's subscriber side table, by local index; entries past the
/// shard's last subscriber are not allocated.
using FabricTable = std::vector<std::optional<FabricSubscriber>>;

/// What a shard shares with every session it spawns, built once per shard
/// and handed out by reference: the simulator, the run's parameters and
/// options, the sink, the protocol nodes' NodeContext (mechanisms and
/// timers) and either the validated channel configuration that every
/// single-hop session's two channels point at or the TreePlan every tree
/// session's topology runs on.  Sessions keep one pointer to it instead of
/// copies of their own.
template <typename Params>
struct ShardContext {
  ShardContext(sim::Simulator& simulator, ProtocolKind protocol,
               const Params& run_params, const SessionFarmOptions& run_options,
               ShardSink& shard_sink)
      : sim(simulator),
        kind(protocol),
        params(run_params),
        options(run_options),
        sink(shard_sink),
        node{&simulator, mechanisms(protocol),
             protocols::TimerSettings{run_options.timer_dist,
                                      run_params.refresh_timer,
                                      run_params.timeout_timer,
                                      run_params.retrans_timer}} {
    if constexpr (std::is_same_v<Params, SingleHopParams>) {
      channel.emplace(simulator, run_params.loss_config(),
                      sim::DelayConfig{run_options.delay_model,
                                       run_params.delay,
                                       run_options.delay_shape});
    } else {
      tree.emplace(simulator, protocol, run_params, run_options.timer_dist,
                   run_options.delay_model, run_options.delay_shape);
    }
  }

  ShardContext(const ShardContext&) = delete;  ///< sessions point at it
  ShardContext& operator=(const ShardContext&) = delete;  ///< non-copyable

  sim::Simulator& sim;
  ProtocolKind kind;
  const Params& params;
  const SessionFarmOptions& options;
  ShardSink& sink;
  protocols::NodeContext node;
  std::optional<sim::ChannelConfig> channel;  ///< single-hop farms only
  std::optional<protocols::TreePlan> tree;    ///< tree farms only
  FabricTable* fabric = nullptr;  ///< fabric runs only: subscriber state
};

/// A tree session's seven streams, keyed to its global index.  The sender
/// stream drives every node's timers, as it drives the single-hop sender's;
/// the membership and scenario streams are touched only by sessions that
/// enable the corresponding workload.
protocols::TreeStreams tree_streams(std::uint64_t base_seed,
                                    std::uint64_t global_index) {
  const std::uint64_t seed = session_seed(base_seed, global_index);
  return protocols::TreeStreams{
      sim::Rng(seed, rng::kSessionChannel),
      sim::Rng(seed, rng::kSessionSender),
      sim::Rng(seed, rng::kSessionLifecycle),
      sim::Rng(seed, rng::kSessionFailure),
      sim::Rng(seed, rng::kSessionMembership),
      sim::Rng(seed, rng::kSessionScenarioArrival),
      sim::Rng(seed, rng::kSessionScenarioFailure)};
}

/// Session `global_index`'s staggered Poisson arrival: conditioned on N
/// arrivals in the window [0, N / arrival_rate), arrival times are iid
/// uniform over it.  The first draw of a fresh kSessionLifecycle stream --
/// exactly the draw the session repeats at construction -- so the shard's
/// pre-scan and the session agree on the time without sharing state.
double staggered_arrival(const SessionFarmOptions& options,
                         std::uint64_t global_index) {
  sim::Rng lifecycle(session_seed(options.seed, global_index),
                     rng::kSessionLifecycle);
  const double window =
      static_cast<double>(options.sessions) / options.arrival_rate;
  return window * lifecycle.uniform();
}

/// One single-hop session: arrival -> install -> updates -> removal ->
/// absorption, measured over [arrival, absorption].  A one-shot version of
/// the renewal construction in protocols/single_hop_run.cpp, flattened for
/// arena placement: channels and engines are direct members that point at
/// the shard's ShardContext (simulator, mechanisms, timers, channel
/// configuration) instead of carrying copies, callbacks are owner calls,
/// timers are one-word TimerIds, and fabric subscriber state lives in the
/// shard's side table -- so a session is a few hundred bytes of its own
/// state (static_assert below), and constructing one in a recycled slot
/// allocates nothing.  Constructed INSIDE its own pre-scanned arrival
/// event; the shard calls begin() immediately after.
class SingleHopSession {
 public:
  using Context = ShardContext<SingleHopParams>;
  /// Single-hop sessions have no leaves to churn.
  static constexpr bool kReportsChurn = false;

  static double arrival_time(const SessionFarmOptions& options,
                             std::uint64_t global_index) {
    return staggered_arrival(options, global_index);
  }

  SingleHopSession(const Context& shard, std::uint64_t global_index,
                   std::size_t local)
      : shard_(&shard),
        local_(local),
        rngs_(shard.options.seed, global_index),
        forward_(*shard.channel, rngs_.channel,
                 MessageChannel::Delivery::bind<
                     &protocols::ReceiverEngine::handle>(&receiver_)),
        reverse_(*shard.channel, rngs_.channel,
                 MessageChannel::Delivery::bind<
                     &protocols::SenderEngine::handle>(&sender_)),
        sender_(shard.node, rngs_.sender, forward_,
                protocols::Hook::bind<&SingleHopSession::on_change>(this)),
        receiver_(shard.node, rngs_.receiver, reverse_,
                  protocols::Hook::bind<&SingleHopSession::on_change>(this)) {
    // Staggered Poisson arrivals: conditioned on N arrivals in the window,
    // arrival times are iid uniform over it -- and drawing from the
    // session's own stream keys the time to the global index alone.  The
    // draw repeats the pre-scan's (same stream, same first draw), so the
    // session materializes at exactly the time its arrival event fired.
    const double window = static_cast<double>(shard.options.sessions) /
                          shard.options.arrival_rate;
    arrival_ = window * rngs_.lifecycle.uniform();
    lifetime_ = rngs_.lifecycle.exponential(shard.options.session_lifetime);
  }

  /// The arena slot this session occupies; handed back on retirement.
  void set_slot(std::uint32_t slot) noexcept { slot_ = slot; }

  /// Fabric runs only, before begin(): the first
  /// shared_relays * subscribers_per_relay sessions build their
  /// FabricSubscriber in the shard's side table; the rest return false and
  /// stay off the fabric.  `self` is this session's global index -- the
  /// source half of every outgoing stamp and the installed value.
  bool join_fabric(FabricPort& port, std::uint64_t self) {
    const SessionFarmOptions& options = shard_->options;
    if (self >= options.shared_relays * options.subscribers_per_relay) {
      return false;
    }
    (*shard_->fabric)[local_].emplace(port, self, options, shard_->node);
    return true;
  }

  /// A fabric delivery addressed to this session (relay echoes); always
  /// accepted.
  bool deliver_fabric(const CrossShardEntry& entry) {
    subscriber()->client.handle(entry.message);
    return true;
  }

  /// Starts the session (the body of its arrival event).
  void begin() {
    sim::Simulator& sim = shard_->sim;
    inconsistent_ = sim::TimeWeightedValue(arrival_);
    sender_.begin_epoch(1);
    receiver_.begin_epoch(1);
    sender_.install(++version_);
    schedule_update();
    removal_event_ = sim.schedule_in(lifetime_, [this] {
      removal_event_ = {};
      sender_removed_ = true;
      sender_.remove();
      check_absorption();
    });
    if (shard_->node.mech.external_failure_detector &&
        shard_->params.false_signal_rate > 0.0) {
      schedule_false_signal();
    }
    if (FabricSubscriber* sub = subscriber()) {
      sub->client.start(static_cast<std::int64_t>(sub->ctx.source));
    }
    on_change();
  }

  /// Slot-recycling safety: absorbed AND both channels drained.  After
  /// absorption both engines sit in a dead epoch with every timer
  /// cancelled, and a stale delivery is dropped without a reply, so the
  /// in-flight counts fall monotonically to zero -- after which no pending
  /// event references this object and destruction is safe.
  [[nodiscard]] bool quiescent() const noexcept {
    if (!done_) return false;
    const sim::ChannelCounters& f = forward_.counters();
    const sim::ChannelCounters& r = reverse_.counters();
    return f.sent == f.delivered + f.lost && r.sent == r.delivered + r.lost;
  }

 private:
  /// This session's fabric state, or null when it is not a subscriber.
  [[nodiscard]] FabricSubscriber* subscriber() const {
    FabricTable* table = shard_->fabric;
    if (table == nullptr || local_ >= table->size()) return nullptr;
    std::optional<FabricSubscriber>& entry = (*table)[local_];
    return entry ? &*entry : nullptr;
  }

  void schedule_update() {
    const double rate = shard_->params.update_rate;
    if (rate <= 0.0) return;
    update_event_ = shard_->sim.schedule_in(
        rngs_.lifecycle.exponential(1.0 / rate), [this] {
          update_event_ = {};
          if (!sender_removed_ && sender_.value()) {
            sender_.update(++version_);
          }
          schedule_update();
        });
  }

  void schedule_false_signal() {
    false_signal_event_ = shard_->sim.schedule_in(
        rngs_.failure.exponential(1.0 / shard_->params.false_signal_rate),
        [this] {
          false_signal_event_ = {};
          receiver_.external_removal_signal();
          schedule_false_signal();
        });
  }

  void on_change() {
    if (done_) return;
    const bool consistent = sender_.value() == receiver_.value();
    inconsistent_.set(shard_->sim.now(), consistent ? 0.0 : 1.0);
    check_absorption();
  }

  void check_absorption() {
    if (done_ || !sender_removed_ || receiver_.value()) return;
    done_ = true;
    sim::Simulator& sim = shard_->sim;
    ShardSink& sink = shard_->sink;
    const double end = sim.now();
    const double length = end - arrival_;
    // Counters frozen at absorption time, so results cannot depend on which
    // straggler events the shard's simulator happened to execute afterwards.
    std::uint64_t messages =
        forward_.counters().sent + reverse_.counters().sent;
    if (FabricSubscriber* sub = subscriber()) {
      // Goodbye before the count: the REMOVE is part of the session's
      // priced traffic, and stop() also cancels the refresh timer so the
      // finished session leaves no live event behind.
      sub->client.stop();
      messages += sub->client.messages_sent();
    }
    const auto sent = static_cast<double>(messages);
    Metrics& metrics = sink.metrics[local_];
    metrics.inconsistency = inconsistent_.mean(end);
    metrics.session_length = length;
    metrics.raw_message_rate = length > 0.0 ? sent / length : 0.0;
    // M-bar = (messages per session) * lambda_r, as in Eq. (2); the farm's
    // removal rate is 1 / mean lifetime.
    metrics.message_rate = sent / shard_->options.session_lifetime;
    protocols::cancel_timer(sim, update_event_);
    protocols::cancel_timer(sim, false_signal_event_);
    protocols::cancel_timer(sim, removal_event_);
    // Jump both engines to a dead epoch: stragglers still in flight can no
    // longer resurrect state, re-arm timers or send replies -- which is
    // also what drives quiescent()'s in-flight counts to zero.
    sender_.begin_epoch(2);
    receiver_.begin_epoch(2);
    sink.end[local_] = end;
    sink.messages += messages;
    sink.receiver_timeouts += receiver_.timeouts();
    ++sink.completed;
    sink.retire(slot_, local_);
  }

  // The shard keeps its context (and the params/options behind it) alive
  // for the sessions' whole lifetime; 100k sessions should not hold 100k
  // copies.
  const Context* shard_;
  std::size_t local_;
  std::uint32_t slot_ = 0;
  bool sender_removed_ = false;
  bool done_ = false;
  SessionRngs rngs_;
  MessageChannel forward_;
  MessageChannel reverse_;
  protocols::SenderEngine sender_;
  protocols::ReceiverEngine receiver_;

  double arrival_ = 0.0;
  double lifetime_ = 0.0;
  std::int64_t version_ = 0;
  sim::TimeWeightedValue inconsistent_;
  sim::TimerId update_event_;
  sim::TimerId removal_event_;
  sim::TimerId false_signal_event_;
};

// At a million concurrent sessions every byte here is a megabyte resident.
static_assert(sizeof(SingleHopSession) <= 1024,
              "a single-hop farm session must fit in 1 KB");

/// One farm tree session: a protocols::TreeSession -- the same class
/// run_tree drives -- measured over the lifetime window
/// [arrival, arrival + lifetime].  Chain sessions run through it as
/// fan-out-1 trees.  The window ends silently (Topology::stop()) or, with
/// SessionFarmOptions::teardown, with an explicit remove() priced over a
/// grace period of one timeout interval.
///
/// Tree sessions are arena-placed but NEVER recycled: quiescent() is
/// constant false, so a finished tree stays constructed (absorbing
/// stragglers harmlessly) until the arena is destroyed -- the same memory
/// behavior as the reference farm, which keeps every session alive to the
/// end of its shard.  Proving tree quiescence would need in-flight
/// accounting across every edge of every session for a workload (the 1M
/// scale leg is single-hop) that does not recycle anyway.
class TreeSession {
 public:
  using Context = ShardContext<analytic::TreeParams>;
  /// Only tree sessions fill ShardSink::churn.
  static constexpr bool kReportsChurn = true;

  static double arrival_time(const SessionFarmOptions& options,
                             std::uint64_t global_index) {
    return staggered_arrival(options, global_index);
  }

  TreeSession(const Context& shard, std::uint64_t global_index,
              std::size_t local)
      : shard_(shard),
        local_(local),
        tree_(*shard.tree, shard.params, shard.options.leaf_churn,
              shard.options.scenario,
              tree_streams(shard.options.seed, global_index)) {
    // The lifecycle stream's first draw is the arrival the shard's
    // pre-scan already scheduled (this constructor runs inside that
    // event); the second is the lifetime.  Updates continue the stream.
    sim::Rng& lifecycle = tree_.lifecycle_rng();
    (void)lifecycle.uniform();
    lifetime_ = lifecycle.exponential(shard.options.session_lifetime);
  }

  /// Trees never retire, so the slot is not kept.
  void set_slot(std::uint32_t /*slot*/) noexcept {}

  /// Starts the session (the body of its arrival event).
  void begin() {
    tree_.start();
    shard_.sim.schedule_in(lifetime_, [this] { finish(); });
  }

  /// Never recyclable -- see the class comment.
  [[nodiscard]] bool quiescent() const noexcept { return false; }

  /// Trees never ride the cross-shard fabric: shared relays are a
  /// single-hop workload, rejected before a tree farm starts.
  bool join_fabric(FabricPort& /*port*/, std::uint64_t /*self*/) {
    return false;
  }
  bool deliver_fabric(const CrossShardEntry& /*entry*/) { return false; }

 private:
  /// The window ends: inconsistency tracking stops, churn and scenario
  /// processes freeze, and pending update/false-signal events are
  /// cancelled.  Without teardown the session finalizes at once; with it
  /// the sender's remove() propagates down every branch for one timeout
  /// interval first.
  void finish() {
    end_ = shard_.sim.now();
    tree_.close();
    ShardSink& sink = shard_.sink;
    sink.churn[local_] = tree_.churn();
    sink.relay_crashes += tree_.relay_crashes();
    sink.relay_recoveries += tree_.relay_recoveries();
    window_messages_ = tree_.topology().messages_sent();
    if (!shard_.options.teardown) {
      finalize();
      return;
    }
    tree_.topology().sender().remove();
    shard_.sim.schedule_in(shard_.params.timeout_timer,
                           [this] { finalize(); });
  }

  /// Counters frozen here: stragglers delivered to a stopped tree may still
  /// execute (and even re-install relay state briefly), and how many do
  /// depends on how long the shard keeps simulating -- snapshotting keeps
  /// results independent of the shard decomposition.
  void finalize() {
    protocols::Topology& topology = tree_.topology();
    const std::uint64_t messages = topology.messages_sent();
    const auto sent = static_cast<double>(messages);
    ShardSink& sink = shard_.sink;
    Metrics& metrics = sink.metrics[local_];
    metrics.inconsistency = tree_.inconsistency(end_);
    metrics.session_length = lifetime_;
    metrics.raw_message_rate = lifetime_ > 0.0 ? sent / lifetime_ : 0.0;
    metrics.message_rate = metrics.raw_message_rate;
    topology.stop();
    sink.teardown_messages += messages - window_messages_;
    sink.end[local_] = end_;
    sink.messages += messages;
    sink.receiver_timeouts += topology.relay_timeouts();
    ++sink.completed;
    // No sink.retire: the slot cools forever (never quiescent).
  }

  const Context& shard_;  ///< outlives every session of its shard
  std::size_t local_;
  protocols::TreeSession tree_;
  double lifetime_ = 0.0;
  double end_ = 0.0;                   ///< the window end
  std::uint64_t window_messages_ = 0;  ///< messages sent by the window end
};

// The arena slot of a tree session; its nodes and channels live in one
// topology block (protocols::Topology) and its tree in the shard's plan.
static_assert(sizeof(TreeSession) <= 880,
              "a tree farm session keeps its tree in the shard's plan");

/// One shared relay session: a SharedRelayHub plus its fabric identity and
/// completion-time metrics capture.  Relay sessions arrive at t = 0 (they
/// predate every subscriber) and complete when the last subscriber's REMOVE
/// is delivered; their Metrics ride in the same per-session machinery as
/// everyone else's, at global indices [sessions, sessions + relays).  Like
/// tree sessions they never recycle.
class RelaySession {
 public:
  static double arrival_time(const SessionFarmOptions& /*options*/,
                             std::uint64_t /*global_index*/) {
    return 0.0;
  }

  static constexpr bool kReportsChurn = false;

  /// The hub reads only the shard's mechanisms and timers (every farm
  /// params type carries them, so one shard template serves all farms --
  /// only single-hop farms ever construct relays).
  template <typename Params>
  RelaySession(const ShardContext<Params>& shard, std::uint64_t global_index,
               std::size_t local)
      : sim_(shard.sim),
        sink_(shard.sink),
        local_(local),
        rng_(replica_seed(shard.options.seed, global_index, 0),
             rng::kSessionRelay),
        fabric_ctx_{nullptr, global_index, 0},
        hub_(shard.sim, rng_, shard.node.mech, shard.node.timers,
             subscribers_of(shard.options, global_index),
             [this](std::uint64_t dest, const Message& m) {
               fabric_ctx_.port->send(fabric_ctx_, dest, m);
             },
             [this] { on_complete(); }) {}

  RelaySession(const RelaySession&) = delete;
  RelaySession& operator=(const RelaySession&) = delete;

  void set_slot(std::uint32_t /*slot*/) noexcept {}
  [[nodiscard]] bool quiescent() const noexcept { return false; }

  /// Every relay rides the fabric; its port is the owning shard's.
  bool join_fabric(FabricPort& port, std::uint64_t /*self*/) {
    fabric_ctx_.port = &port;
    return true;
  }

  void begin() { hub_.begin(); }

  /// A subscriber's message; false when the hub drops it (unknown source).
  bool deliver_fabric(const CrossShardEntry& entry) {
    return hub_.handle(entry.source, entry.message);
  }

 private:
  /// Relay r serves subscribers {r, r + R, r + 2R, ...}: the static
  /// subscription map both sides derive independently.
  static std::vector<std::uint64_t> subscribers_of(
      const SessionFarmOptions& options, std::uint64_t global_index) {
    const std::uint64_t r = global_index - options.sessions;
    std::vector<std::uint64_t> subscribers;
    subscribers.reserve(options.subscribers_per_relay);
    for (std::size_t k = 0; k < options.subscribers_per_relay; ++k) {
      subscribers.push_back(r + k * options.shared_relays);
    }
    return subscribers;
  }

  void on_complete() {
    const double end = sim_.now();
    const auto sent = static_cast<double>(hub_.messages_sent());
    Metrics& metrics = sink_.metrics[local_];
    metrics.inconsistency = hub_.missing_fraction(end);
    metrics.session_length = end;  // relays live from t = 0
    metrics.raw_message_rate = end > 0.0 ? sent / end : 0.0;
    metrics.message_rate = metrics.raw_message_rate;
    sink_.end[local_] = end;
    sink_.messages += hub_.messages_sent();
    sink_.receiver_timeouts += hub_.soft_timeouts();
    sink_.relay_installs += hub_.installs();
    sink_.relay_refreshes += hub_.refreshes();
    sink_.relay_soft_timeouts += hub_.soft_timeouts();
    ++sink_.completed;
  }

  sim::Simulator& sim_;
  ShardSink& sink_;
  std::size_t local_;
  sim::Rng rng_;
  FabricCtx fabric_ctx_;
  protocols::SharedRelayHub hub_;
};

/// Reduces completed shard outcomes, in shard (= global session) order,
/// into a SessionFarmResult.  `total_sessions` is only a reserve hint.
SessionFarmResult aggregate_outcomes(const std::vector<ShardSink>& outcomes,
                                     const SessionFarmOptions& options,
                                     std::size_t total_sessions) {
  SessionFarmResult result;
  result.shards = outcomes.size();
  std::vector<Metrics> all_sessions;
  all_sessions.reserve(total_sessions);
  std::vector<double> starts;
  std::vector<double> ends;
  starts.reserve(total_sessions);
  ends.reserve(total_sessions);
  for (const ShardSink& outcome : outcomes) {
    all_sessions.insert(all_sessions.end(), outcome.metrics.begin(),
                        outcome.metrics.end());
    for (const protocols::ChurnReport& churn : outcome.churn) {
      result.churn.absorb(churn);
    }
    result.messages += outcome.messages;
    result.events_executed += outcome.events;
    result.receiver_timeouts += outcome.receiver_timeouts;
    result.relay_crashes += outcome.relay_crashes;
    result.relay_recoveries += outcome.relay_recoveries;
    result.teardown_messages += outcome.teardown_messages;
    result.fabric_dropped += outcome.fabric_dropped;
    result.relay_installs += outcome.relay_installs;
    result.relay_refreshes += outcome.relay_refreshes;
    result.relay_soft_timeouts += outcome.relay_soft_timeouts;
    result.horizon = std::max(result.horizon, outcome.end_time);
    result.arena_slot_high_water =
        std::max(result.arena_slot_high_water, outcome.arena_high_water);
    result.arena_chunk_allocations += outcome.arena_chunks;
    starts.insert(starts.end(), outcome.arrival.begin(), outcome.arrival.end());
    ends.insert(ends.end(), outcome.end.begin(), outcome.end.end());
  }
  // Exact global peak: merge every session's [begin, completion] endpoints
  // across shards and sweep.  A start at exactly an end's time counts as
  // overlapping (starts first at ties), matching the in-simulator
  // convention that a session is in flight from begin() through its
  // completion event.
  std::sort(starts.begin(), starts.end());
  std::sort(ends.begin(), ends.end());
  std::size_t active = 0;
  std::size_t next_end = 0;
  for (const double start : starts) {
    while (next_end < ends.size() && ends[next_end] < start) {
      --active;
      ++next_end;
    }
    ++active;
    result.peak_sessions_in_flight =
        std::max(result.peak_sessions_in_flight, active);
  }
  result.sessions = all_sessions.size();
  result.summary = summarize_replicas(all_sessions);
  if (options.keep_per_session) result.per_session = std::move(all_sessions);
  return result;
}

/// One shard of the farm -- sessions [first, first + count) of one session
/// type -- with its own Simulator, arena and sink.  Construction pre-scans
/// the arrivals; the run's schedule then drives advance_slice() (ring-free
/// runs) or advance_to()/drain_incoming() (fabric runs) until complete().
///
/// Per-session-type behavior comes from `Session`, never from the shard:
/// the arrival time (static arrival_time(options, global_index)), whether
/// the session fills a churn report (kReportsChurn), whether it rides the
/// fabric (join_fabric, called between construction and begin() in fabric
/// runs only) and what a delivery does (deliver_fabric, false = dropped).
/// Every session type also provides the shared
/// (ShardContext, global_index, local) constructor, set_slot(), begin()
/// and the arena's quiescent().  A ring-free shard has no fabric port and
/// allocates nothing for the fabric.
template <typename Session, typename Params>
class FarmShard {
 public:
  /// `fabric` is null in ring-free runs.
  FarmShard(ProtocolKind kind, const Params& params,
            const SessionFarmOptions& options, const ShardMap& map,
            std::size_t shard, CrossShardFabric* fabric)
      : first_(map.first(shard)),
        count_(map.count(shard)),
        context_(sim_, kind, params, options, sink_),
        arena_(count_) {
    sink_.metrics.resize(count_);
    if constexpr (Session::kReportsChurn) sink_.churn.resize(count_);
    sink_.arrival.resize(count_);
    sink_.end.resize(count_);
    sink_.retire = [this](std::uint32_t slot, std::size_t local) {
      if (!endpoints_.empty()) endpoints_[local] = nullptr;
      arena_.retire(slot);
    };
    if (fabric != nullptr) {
      port_.emplace(sim_, *fabric, static_cast<std::uint32_t>(shard), map);
      endpoints_.assign(count_, nullptr);
      // Side-table entries for this shard's subscribers: global indices
      // [0, participating) subscribe, so they are a prefix of local ones.
      const std::size_t participating =
          options.shared_relays * options.subscribers_per_relay;
      fabric_table_ = FabricTable(
          first_ < participating ? std::min(count_, participating - first_)
                                 : 0);
      context_.fabric = &fabric_table_;
    }
    // Arrival pre-scan: push one arrival event per session, in session
    // order, at the time the session will re-derive for itself at spawn.
    // This reproduces the reference farm's construction-time pushes
    // exactly (same times, same seq order), which is the base case of the
    // bit-identity argument in the file comment.
    for (std::size_t i = 0; i < count_; ++i) {
      const auto g = static_cast<std::uint64_t>(first_ + i);
      const double arrival = Session::arrival_time(options, g);
      sink_.arrival[i] = arrival;
      sim_.schedule_at(arrival, [this, g, i] { spawn(g, i); });
    }
  }

  [[nodiscard]] bool complete() const noexcept {
    return sink_.completed >= count_;
  }

  [[nodiscard]] std::optional<double> next_pending_time() const {
    return sim_.next_pending_time();
  }

  /// Ring-free schedule: advances one time slice, anchored at the next
  /// pending event.  Returns as soon as the shard completes mid-slice
  /// (undispatched expiries are requeued untouched), leaving the clock on
  /// the completing event.
  void advance_slice() {
    const std::optional<double> next = sim_.next_pending_time();
    if (!next) {
      throw std::logic_error("session farm: shard stalled before completing");
    }
    sim_.run_slice(*next + kSliceSeconds, [this] { return complete(); });
  }

  /// Fabric advance phase: run every event with time <= horizon.  Never
  /// stops early -- a completed shard keeps executing stragglers so its
  /// clock tracks the epoch timeline.
  void advance_to(double horizon) {
    sim_.run_slice(horizon, [] { return false; });
  }

  /// Fabric drain phase: collect this shard's incoming rings, stamp-sort,
  /// and schedule one flush event at the epoch boundary.  The inbox is
  /// always empty on entry: the previous epoch's flush ran during this
  /// epoch's advance phase (its boundary <= this epoch's horizon).
  void drain_incoming(double boundary) {
    if (port_->drain(inbox_) == 0) return;
    sort_fabric(inbox_);
    sim_.schedule_at(boundary, [this] { flush_inbox(); });
  }

  /// Moves the shard's results out (call once, after completion).
  ShardSink finish() {
    sink_.events = sim_.events_executed();
    sink_.end_time = sim_.now();
    sink_.arena_high_water = arena_.slot_capacity();
    sink_.arena_chunks = arena_.chunk_allocations();
    return std::move(sink_);
  }

 private:
  void spawn(std::uint64_t global_index, std::size_t local) {
    const auto [slot, session] = arena_.spawn(context_, global_index, local);
    session->set_slot(slot);
    if (port_ && session->join_fabric(*port_, global_index)) {
      endpoints_[local] = session;
    }
    session->begin();
  }

  /// Delivers the epoch's stamp-sorted inbox.  A delivery to a closed
  /// endpoint (not on the fabric, or already completed) or one the session
  /// rejects is dropped -- deterministically, since both depend only on the
  /// epoch timeline.
  void flush_inbox() {
    for (const CrossShardEntry& entry : inbox_) {
      Session* endpoint = endpoints_[static_cast<std::size_t>(entry.dest) -
                                     first_];
      if (endpoint == nullptr || !endpoint->deliver_fabric(entry)) {
        ++sink_.fabric_dropped;
      }
    }
    inbox_.clear();
  }

  std::size_t first_;  ///< global index of local session 0
  std::size_t count_;
  ShardSink sink_;
  sim::Simulator sim_;
  ShardContext<Params> context_;  ///< every session points at it
  FabricTable fabric_table_;      ///< fabric runs only (empty otherwise)
  // Declared after sim_ and context_ so sessions are destroyed BEFORE the
  // simulator and the context (their destructors may cancel events);
  // pending closures that still point at destroyed sessions are merely
  // destroyed with the queue, never invoked.
  SessionArena<Session> arena_;
  // Fabric runs only (empty/null otherwise).
  std::optional<FabricPort> port_;
  std::vector<CrossShardEntry> inbox_;
  /// Live fabric endpoints by local index (nullptr = not on the fabric or
  /// already completed).
  std::vector<Session*> endpoints_;
};

/// Materializes the rings of a fabric run from the static subscription map:
/// subscriber i talks to relay (i mod R) and back.  The directed shard
/// pairs are deduplicated first so ensure_ring runs once per ring, not once
/// per session.
void wire_fabric(CrossShardFabric& fabric, const ShardMap& map,
                 const SessionFarmOptions& options) {
  const std::size_t participating =
      map.relays * options.subscribers_per_relay;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(participating * 2);
  for (std::size_t i = 0; i < participating; ++i) {
    const std::uint32_t s = map.shard_of(static_cast<std::uint64_t>(i));
    const std::uint32_t d = map.shard_of(
        static_cast<std::uint64_t>(map.sessions + i % map.relays));
    pairs.emplace_back(s, d);
    pairs.emplace_back(d, s);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  for (const auto& [src, dst] : pairs) fabric.ensure_ring(src, dst);
}

// ------------------------------------------------------ the two schedules --
//
// Every run builds its shards the same way -- worker w owns the strided
// shard set {w, w + W, ...} -- and reduces them the same way.  Only the
// schedule in between depends on whether the run has shared relays:
//
// Ring-free runs (shared_relays == 0) are FREE-RUNNING: each worker
// round-robins one kSliceSeconds slice per incomplete owned shard until all
// of them finish, and each shard stops at its own completion.  Ownership and
// slicing cannot affect results: shards are independent simulators and
// run_slice preserves exact pop order, so this is the task-per-shard
// farm's schedule merely interleaved differently in wall-clock time.  (The
// per-shard stop rule is why events_executed depends on shard size; the
// differential suite pins it against the reference farm.)
//
// Fabric runs turn independent shards into a communicating system, where a
// shard racing ahead could observe (or miss) messages depending on
// wall-clock scheduling.  They instead run global LOCKSTEP EPOCHS:
//
//   1. negotiate (serial):  H_k = min over all shards of the earliest
//      pending event time, plus kFabricSliceSeconds.  The minimum is over
//      the union of every shard's pending events, which is invariant to the
//      shard decomposition -- so the epoch timeline is too.
//   2. advance (parallel):  every worker runs its owned shards' simulators
//      up to exactly H_k.  Sessions push outgoing fabric messages onto
//      their shard's rings (producer side; ring growth is legal here).
//   3. drain (parallel):    every worker drains its owned shards' INCOMING
//      rings, sorts the merged entries by the (send_time, source, seq)
//      stamp, and schedules one inbox-flush event at H_k per shard.
//
// Each parallel_for join is a full barrier, so the advance and drain phases
// never overlap anywhere -- that is what makes each ring's SPSC use
// phase-separated and growth safe.  Messages sent during epoch k are
// delivered at exactly H_k (the destination's clock cannot have passed H_k,
// so no message ever arrives in the past), in stamp order, via a flush
// event scheduled AFTER every event of the slice -- deliveries therefore
// sort after the destination's own H_k-time events deterministically.
// Every piece of that discipline is decomposition-invariant, which is the
// bit-identity argument docs/ARCHITECTURE.md spells out in full.  Every
// shard runs to the final epoch horizon.

template <typename Session, typename Params>
SessionFarmResult run_farm(ProtocolKind kind, const Params& params,
                           const SessionFarmOptions& options) {
  validate_options(options);
  params.validate();

  const ShardMap map(options);
  std::optional<CrossShardFabric> fabric;
  if (map.relays > 0) {
    fabric.emplace(map.shards);
    wire_fabric(*fabric, map, options);
  }
  CrossShardFabric* const fabric_ptr = fabric ? &*fabric : nullptr;

  std::optional<ParallelSweep> local_engine;
  ParallelSweep* engine = options.engine;
  if (engine == nullptr) {
    local_engine.emplace(options.threads);
    engine = &*local_engine;
  }
  const std::size_t shards = map.shards;
  const std::size_t workers =
      std::max<std::size_t>(1, std::min(engine->threads(), shards));

  // Farm shards [0, farm_shards), then relay shards.  each_owned(w, f)
  // calls f(shard, s) on worker w's strided set {w, w + W, ...}, whichever
  // the shard's session type.
  std::vector<std::unique_ptr<FarmShard<Session, Params>>> farm(
      map.farm_shards);
  std::vector<std::unique_ptr<FarmShard<RelaySession, Params>>> relays(
      shards - map.farm_shards);
  const auto each_owned = [&](std::size_t w, const auto& f) {
    for (std::size_t s = w; s < shards; s += workers) {
      if (s < map.farm_shards) {
        f(farm[s], s);
      } else {
        f(relays[s - map.farm_shards], s);
      }
    }
  };

  parallel_for(engine->pool(), workers, [&](std::size_t w) {
    each_owned(w, [&](auto& shard, std::size_t s) {
      using Shard =
          typename std::remove_reference_t<decltype(shard)>::element_type;
      shard = std::make_unique<Shard>(kind, params, options, map, s,
                                      fabric_ptr);
    });
  });

  // The schedule -- the only part that depends on shared relays (see "the
  // two schedules" above).
  std::size_t epochs = 0;
  if (!fabric) {
    // Free-running: one slice per incomplete owned shard per round.
    parallel_for(engine->pool(), workers, [&](std::size_t w) {
      bool all_done = false;
      while (!all_done) {
        all_done = true;
        each_owned(w, [&](auto& shard, std::size_t /*s*/) {
          if (shard->complete()) return;
          shard->advance_slice();
          all_done = all_done && shard->complete();
        });
      }
    });
  } else {
    // Lockstep epochs: negotiation and the completion check run serially
    // on the calling thread; each parallel_for join is a phase barrier.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    while (true) {
      bool all_complete = true;
      double min_next = kInf;
      for (std::size_t w = 0; w < workers; ++w) {
        each_owned(w, [&](auto& shard, std::size_t /*s*/) {
          all_complete = all_complete && shard->complete();
          const std::optional<double> next = shard->next_pending_time();
          if (next && *next < min_next) min_next = *next;
        });
      }
      if (all_complete) break;
      if (min_next == kInf) {
        throw std::logic_error(
            "session farm: fabric stalled before completing");
      }
      const double horizon = min_next + kFabricSliceSeconds;
      ++epochs;
      parallel_for(engine->pool(), workers, [&](std::size_t w) {
        each_owned(w, [&](auto& shard, std::size_t /*s*/) {
          shard->advance_to(horizon);
        });
      });
      parallel_for(engine->pool(), workers, [&](std::size_t w) {
        each_owned(w, [&](auto& shard, std::size_t /*s*/) {
          shard->drain_incoming(horizon);
        });
      });
    }
  }

  // Extract and release every shard before the reduce: the reduce copies
  // the per-session vectors, and the shards' simulators and arenas need
  // not outlive their outcomes.
  std::vector<ShardSink> outcomes(shards);
  parallel_for(engine->pool(), workers, [&](std::size_t w) {
    each_owned(w, [&](auto& shard, std::size_t s) {
      outcomes[s] = shard->finish();
      shard.reset();
    });
  });
  SessionFarmResult result =
      aggregate_outcomes(outcomes, options, map.sessions + map.relays);
  if (fabric) {
    result.relay_sessions = map.relays;
    result.fabric_messages = fabric->total_pushed();
    result.fabric_rings = fabric->rings();
    result.fabric_epochs = epochs;
  }
  return result;
}

}  // namespace

SessionFarmResult run_session_farm(ProtocolKind kind,
                                   const SingleHopParams& params,
                                   const SessionFarmOptions& options) {
  if (options.leaf_churn.enabled()) {
    throw std::invalid_argument(
        "run_session_farm: leaf churn needs tree or chain sessions");
  }
  if (options.scenario.enabled()) {
    throw std::invalid_argument(
        "run_session_farm: scenario processes need tree or chain sessions");
  }
  if (options.teardown) {
    throw std::invalid_argument(
        "run_session_farm: teardown pricing needs tree or chain sessions "
        "(single-hop sessions already end with an explicit remove)");
  }
  return run_farm<SingleHopSession>(kind, params, options);
}

SessionFarmResult run_session_farm(ProtocolKind kind,
                                   const MultiHopParams& params,
                                   const SessionFarmOptions& options) {
  if (!supports_multi_hop(kind)) {
    throw std::invalid_argument(
        "run_session_farm: unsupported multi-hop protocol");
  }
  if (options.shared_relays > 0) {
    throw std::invalid_argument(
        "run_session_farm: shared relays need single-hop sessions");
  }
  // A chain session IS a fan-out-1 tree session: one session class, one
  // wiring path, as in the run_multi_hop harness.
  return run_farm<TreeSession>(kind, analytic::TreeParams::chain(params),
                               options);
}

SessionFarmResult run_session_farm(ProtocolKind kind,
                                   const analytic::TreeParams& params,
                                   const SessionFarmOptions& options) {
  if (!supports_multi_hop(kind)) {
    throw std::invalid_argument(
        "run_session_farm: unsupported multi-hop protocol");
  }
  if (options.shared_relays > 0) {
    throw std::invalid_argument(
        "run_session_farm: shared relays need single-hop sessions");
  }
  return run_farm<TreeSession>(kind, params, options);
}

}  // namespace sigcomp::exp

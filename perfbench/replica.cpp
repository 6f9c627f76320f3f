#include "replica.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/rng_streams.hpp"
#include "exp/parallel.hpp"
#include "exp/session_arena.hpp"
#include "exp/shard_ring.hpp"
#include "protocols/engine.hpp"
#include "protocols/membership.hpp"
#include "protocols/shared_relay.hpp"
#include "protocols/topology.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace perfbench {

namespace {

using sigcomp::protocols::Message;
using sigcomp::protocols::MessageChannel;
namespace exp = sigcomp::exp;
namespace protocols = sigcomp::protocols;
namespace rng = sigcomp::rng;
namespace sim = sigcomp::sim;

/// Epoch width of the farm's cross-shard fabric (a model parameter there).
constexpr double kFabricEpochSeconds = 1.0;

sim::Rng session_stream(std::uint64_t seed, std::uint64_t global,
                        std::uint64_t stream) {
  return sim::Rng(exp::replica_seed(seed, global, 0), stream);
}

class Replica;

/// Mirrors the farm's single-hop session: arrival -> install -> updates ->
/// removal -> absorption, optionally carrying a RelayClient.
class SingleSession {
 public:
  SingleSession(Replica& shard, std::uint64_t global, std::size_t local);
  void set_slot(std::uint32_t slot) noexcept { slot_ = slot; }
  void attach_relay(std::uint64_t relay);
  void deliver_fabric(const Message& message) {
    if (relay_client_) relay_client_->handle(message);
  }
  void begin();
  [[nodiscard]] bool quiescent() const noexcept {
    if (!done_) return false;
    const sim::ChannelCounters& f = forward_.counters();
    const sim::ChannelCounters& r = reverse_.counters();
    return f.sent == f.delivered + f.lost && r.sent == r.delivered + r.lost;
  }

 private:
  void schedule_update();
  void schedule_false_signal();
  void on_change();
  void check_absorption();
  void cancel(std::optional<sim::EventId>& id);

  std::uint64_t build_start_;  // first member: the constructor span opens here
  Replica& shard_;
  std::size_t local_;
  std::uint32_t slot_ = 0;
  std::uint64_t global_;
  std::uint64_t fabric_seq_ = 0;
  sim::Rng channel_rng_;
  sim::Rng sender_rng_;
  sim::Rng receiver_rng_;
  sim::Rng lifecycle_rng_;
  sim::Rng failure_rng_;
  sim::Rng relay_rng_;
  MessageChannel forward_;
  MessageChannel reverse_;
  protocols::SenderEngine sender_;
  protocols::ReceiverEngine receiver_;
  double arrival_ = 0.0;
  double lifetime_ = 0.0;
  std::int64_t version_ = 0;
  bool sender_removed_ = false;
  bool done_ = false;
  sim::TimeWeightedValue inconsistent_;
  std::optional<sim::EventId> update_event_;
  std::optional<sim::EventId> removal_event_;
  std::optional<sim::EventId> false_signal_event_;
  std::optional<protocols::RelayClient> relay_client_;
};

/// Mirrors the farm's tree session (silent teardown, leaf churn).
class TreeSession {
 public:
  TreeSession(Replica& shard, std::uint64_t global, std::size_t local);
  void set_slot(std::uint32_t) noexcept {}
  void begin();
  /// Trees are never recycled, as in the farm.
  [[nodiscard]] bool quiescent() const noexcept { return false; }

 private:
  void schedule_update();
  void on_change();
  void finish();

  std::uint64_t build_start_;
  Replica& shard_;
  sim::Rng channel_rng_;
  sim::Rng sender_rng_;
  sim::Rng lifecycle_rng_;
  sim::Rng membership_rng_;
  std::unique_ptr<protocols::Topology> topology_;
  std::unique_ptr<protocols::MembershipController> membership_;
  double arrival_ = 0.0;
  double lifetime_ = 0.0;
  std::int64_t version_ = 0;
  bool done_ = false;
  sim::TimeWeightedValue inconsistent_;
  std::optional<sim::EventId> update_event_;
};

/// A shared relay session of the fabric workload.
struct RelayEnd {
  RelayEnd(std::uint64_t g, sim::Rng r) : global(g), rng(r) {}
  std::uint64_t global;
  std::uint64_t seq = 0;
  sim::Rng rng;
  std::optional<protocols::SharedRelayHub> hub;
};

/// The replica shard: one Simulator, one arena, and -- for the fabric
/// workload -- one self-ring standing in for the cross-shard fabric, with
/// the farm's lockstep epochs and stamp-ordered delivery.
class Replica {
 public:
  Replica(const Workload& w, std::size_t farm_sessions, std::uint64_t seed,
          bool traced)
      : workload(w),
        sessions(std::min(farm_sessions, exp::SessionFarmOptions{}.shard_size)),
        relays(relays_for(w, sessions)),
        options(farm_options(w, sessions, seed)),
        mech(sigcomp::mechanisms(kProtocol)),
        tree(tree_params()),
        single_timers{options.timer_dist, params.refresh_timer,
                      params.timeout_timer, params.retrans_timer},
        tree_timers{options.timer_dist, tree.refresh_timer,
                    tree.timeout_timer, tree.retrans_timer},
        spans(traced),
        single_arena(sessions),
        tree_arena(sessions),
        endpoints(sessions, nullptr) {}

  ReplicaResult run();

  /// Stamps and pushes one fabric message onto the ring.
  void fabric_send(std::uint64_t source, std::uint64_t& seq,
                   std::uint64_t dest, const Message& message) {
    const std::uint64_t t0 = spans.on() ? Spans::now_ns() : 0;
    ring.push(exp::CrossShardEntry{sim.now(), source, seq++, dest, message});
    if (spans.on()) epoch_push_ns += Spans::now_ns() - t0;
  }

  /// A delivered message, wrapped in a protocols.handle span.
  template <typename Fn>
  void handle(Fn&& fn) {
    if (!spans.on()) {
      fn();
      return;
    }
    const std::uint64_t t0 = Spans::now_ns();
    fn();
    const std::uint64_t dt = Spans::now_ns() - t0;
    spans.add(kHandle, dt);
    spans.child_ns += dt;
  }

  void session_done(std::size_t local, std::uint32_t slot,
                    std::uint64_t session_messages) {
    ++completed;
    messages += session_messages;
    endpoints[local] = nullptr;
    const std::uint64_t t0 = spans.on() ? Spans::now_ns() : 0;
    single_arena.retire(slot);
    if (spans.on()) spans.add(kArenaRetire, Spans::now_ns() - t0);
  }

  void tree_done(std::uint64_t session_messages) {
    ++completed;
    messages += session_messages;
  }

  const Workload& workload;
  std::size_t sessions;
  std::size_t relays;
  exp::SessionFarmOptions options;
  sigcomp::MechanismSet mech;
  sigcomp::SingleHopParams params = sigcomp::SingleHopParams::kazaa_defaults();
  sigcomp::analytic::TreeParams tree;
  protocols::TimerSettings single_timers;
  protocols::TimerSettings tree_timers;
  Spans spans;
  std::uint64_t last_build_ns = 0;  ///< constructor span of the last spawn
  sim::Simulator sim;

 private:
  void spawn(std::uint64_t global, std::size_t local);
  void spawn_relay(std::size_t r);
  void deliver(const exp::CrossShardEntry& entry);
  void step_once();
  void drain_ring(double boundary);

  // Declared after sim so sessions die before the simulator they point at.
  exp::SessionArena<SingleSession> single_arena;
  exp::SessionArena<TreeSession> tree_arena;
  std::vector<SingleSession*> endpoints;
  std::deque<RelayEnd> relay_ends;
  exp::ShardRing ring{1024};
  std::vector<exp::CrossShardEntry> inbox;
  std::uint64_t epoch_push_ns = 0;
  std::size_t completed = 0;
  std::uint64_t messages = 0;
  std::uint64_t steps = 0;
  std::vector<double> depth;
};

// ------------------------------------------------------ SingleSession --

SingleSession::SingleSession(Replica& shard, std::uint64_t global,
                             std::size_t local)
    : build_start_(shard.spans.on() ? Spans::now_ns() : 0),
      shard_(shard),
      local_(local),
      global_(global),
      channel_rng_(session_stream(shard.options.seed, global,
                                  rng::kSessionChannel)),
      sender_rng_(session_stream(shard.options.seed, global,
                                 rng::kSessionSender)),
      receiver_rng_(session_stream(shard.options.seed, global,
                                   rng::kSessionReceiver)),
      lifecycle_rng_(session_stream(shard.options.seed, global,
                                    rng::kSessionLifecycle)),
      failure_rng_(session_stream(shard.options.seed, global,
                                  rng::kSessionFailure)),
      relay_rng_(session_stream(shard.options.seed, global,
                                rng::kSessionRelay)),
      forward_(shard.sim, channel_rng_, shard.params.loss_config(),
               sim::DelayConfig{shard.options.delay_model, shard.params.delay,
                                shard.options.delay_shape},
               [this](const Message& m) {
                 shard_.handle([&] { receiver_.handle(m); });
               }),
      reverse_(shard.sim, channel_rng_, shard.params.loss_config(),
               sim::DelayConfig{shard.options.delay_model, shard.params.delay,
                                shard.options.delay_shape},
               [this](const Message& m) {
                 shard_.handle([&] { sender_.handle(m); });
               }),
      sender_(shard.sim, sender_rng_, shard.mech, shard.single_timers,
              forward_, [this] { on_change(); }),
      receiver_(shard.sim, receiver_rng_, shard.mech, shard.single_timers,
                reverse_, [this] { on_change(); }) {
  const double window = static_cast<double>(shard.options.sessions) /
                        shard.options.arrival_rate;
  arrival_ = window * lifecycle_rng_.uniform();
  lifetime_ = lifecycle_rng_.exponential(shard.options.session_lifetime);
  if (shard.spans.on()) shard.last_build_ns = Spans::now_ns() - build_start_;
}

void SingleSession::attach_relay(std::uint64_t relay) {
  relay_client_.emplace(shard_.sim, relay_rng_, shard_.single_timers, relay,
                        [this](std::uint64_t dest, const Message& m) {
                          shard_.fabric_send(global_, fabric_seq_, dest, m);
                        });
}

void SingleSession::begin() {
  inconsistent_ = sim::TimeWeightedValue(arrival_);
  sender_.begin_epoch(1);
  receiver_.begin_epoch(1);
  sender_.install(++version_);
  schedule_update();
  removal_event_ = shard_.sim.schedule_in(lifetime_, [this] {
    removal_event_.reset();
    sender_removed_ = true;
    sender_.remove();
    check_absorption();
  });
  if (shard_.mech.external_failure_detector &&
      shard_.params.false_signal_rate > 0.0) {
    schedule_false_signal();
  }
  if (relay_client_) relay_client_->start(static_cast<std::int64_t>(global_));
  on_change();
}

void SingleSession::schedule_update() {
  if (shard_.params.update_rate <= 0.0) return;
  update_event_ = shard_.sim.schedule_in(
      lifecycle_rng_.exponential(1.0 / shard_.params.update_rate), [this] {
        update_event_.reset();
        if (!sender_removed_ && sender_.value()) sender_.update(++version_);
        schedule_update();
      });
}

void SingleSession::schedule_false_signal() {
  false_signal_event_ = shard_.sim.schedule_in(
      failure_rng_.exponential(1.0 / shard_.params.false_signal_rate),
      [this] {
        false_signal_event_.reset();
        receiver_.external_removal_signal();
        schedule_false_signal();
      });
}

void SingleSession::cancel(std::optional<sim::EventId>& id) {
  if (id) {
    shard_.sim.cancel(*id);
    id.reset();
  }
}

void SingleSession::on_change() {
  if (done_) return;
  const bool consistent = sender_.value() == receiver_.value();
  inconsistent_.set(shard_.sim.now(), consistent ? 0.0 : 1.0);
  check_absorption();
}

void SingleSession::check_absorption() {
  if (done_ || !sender_removed_ || receiver_.value()) return;
  done_ = true;
  std::uint64_t sent = forward_.counters().sent + reverse_.counters().sent;
  if (relay_client_) {
    relay_client_->stop();
    sent += relay_client_->messages_sent();
  }
  cancel(update_event_);
  cancel(false_signal_event_);
  cancel(removal_event_);
  sender_.begin_epoch(2);
  receiver_.begin_epoch(2);
  shard_.session_done(local_, slot_, sent);
}

// -------------------------------------------------------- TreeSession --

TreeSession::TreeSession(Replica& shard, std::uint64_t global,
                         std::size_t /*local*/)
    : build_start_(shard.spans.on() ? Spans::now_ns() : 0),
      shard_(shard),
      channel_rng_(session_stream(shard.options.seed, global,
                                  rng::kSessionChannel)),
      sender_rng_(session_stream(shard.options.seed, global,
                                 rng::kSessionSender)),
      lifecycle_rng_(session_stream(shard.options.seed, global,
                                    rng::kSessionLifecycle)),
      membership_rng_(session_stream(shard.options.seed, global,
                                     rng::kSessionMembership)) {
  const sigcomp::analytic::TreeParams& params = shard.tree;
  std::vector<sim::LossConfig> edge_loss;
  std::vector<sim::DelayConfig> edge_delay;
  for (std::size_t e = 0; e < params.edges(); ++e) {
    edge_loss.push_back(params.edge_loss_config(e));
    edge_delay.push_back(sim::DelayConfig{shard.options.delay_model,
                                          params.delay[e],
                                          shard.options.delay_shape});
  }
  const std::uint64_t t0 = shard.spans.on() ? Spans::now_ns() : 0;
  topology_ = std::make_unique<protocols::Topology>(
      shard.sim, channel_rng_, sender_rng_, shard.mech, shard.tree_timers,
      params.tree, edge_loss, edge_delay, [this] { on_change(); });
  if (shard.spans.on()) shard.spans.add(kTopologyBuild, Spans::now_ns() - t0);
  membership_ = std::make_unique<protocols::MembershipController>(
      shard.sim, *topology_, membership_rng_, shard.options.leaf_churn,
      [this] { on_change(); });
  const double window = static_cast<double>(shard.options.sessions) /
                        shard.options.arrival_rate;
  arrival_ = window * lifecycle_rng_.uniform();
  lifetime_ = lifecycle_rng_.exponential(shard.options.session_lifetime);
  if (shard.spans.on()) shard.last_build_ns = Spans::now_ns() - build_start_;
}

void TreeSession::begin() {
  inconsistent_ = sim::TimeWeightedValue(arrival_);
  topology_->sender().start(++version_);
  schedule_update();
  membership_->start();
  shard_.sim.schedule_in(lifetime_, [this] { finish(); });
  on_change();
}

void TreeSession::schedule_update() {
  if (shard_.tree.update_rate <= 0.0) return;
  update_event_ = shard_.sim.schedule_in(
      lifecycle_rng_.exponential(1.0 / shard_.tree.update_rate), [this] {
        update_event_.reset();
        topology_->sender().update(++version_);
        schedule_update();
      });
}

void TreeSession::on_change() {
  if (done_) return;
  membership_->on_state_change();
  bool all_ok = true;
  for (std::size_t i = 0; i < topology_->relays(); ++i) {
    const bool ok = topology_->node_required(i + 1)
                        ? topology_->relay(i).value() ==
                              topology_->sender().value()
                        : !topology_->relay(i).value().has_value();
    all_ok = all_ok && ok;
  }
  inconsistent_.set(shard_.sim.now(), all_ok ? 0.0 : 1.0);
}

void TreeSession::finish() {
  done_ = true;
  membership_->finish();
  if (update_event_) {
    shard_.sim.cancel(*update_event_);
    update_event_.reset();
  }
  const std::uint64_t sent = topology_->messages_sent();
  topology_->stop();
  shard_.tree_done(sent);
}

// ------------------------------------------------------------ Replica --

void Replica::spawn(std::uint64_t global, std::size_t local) {
  const std::uint64_t t0 = spans.on() ? Spans::now_ns() : 0;
  std::uint64_t t1 = 0;
  if (workload.kind == SessionKind::kTree) {
    const auto [slot, session] = tree_arena.spawn(*this, global, local);
    if (spans.on()) t1 = Spans::now_ns();
    session->set_slot(slot);
    session->begin();
  } else {
    const auto [slot, session] = single_arena.spawn(*this, global, local);
    if (spans.on()) t1 = Spans::now_ns();
    session->set_slot(slot);
    if (global < relays * kSubscribersPerRelay) {
      session->attach_relay(sessions + global % relays);
      endpoints[local] = session;
    }
    session->begin();
  }
  if (spans.on()) {
    const std::uint64_t t2 = Spans::now_ns();
    const std::uint64_t spawn = t1 - t0;
    spans.add(kArenaSpawn, spawn - std::min(spawn, last_build_ns));
    spans.add(kSessionBuild, last_build_ns + (t2 - t1));
    spans.child_ns += t2 - t0;
  }
}

void Replica::spawn_relay(std::size_t r) {
  std::vector<std::uint64_t> subscribers;
  for (std::size_t k = 0; k < kSubscribersPerRelay; ++k) {
    subscribers.push_back(static_cast<std::uint64_t>(r + k * relays));
  }
  const auto global = static_cast<std::uint64_t>(sessions + r);
  RelayEnd& end = relay_ends.emplace_back(
      global, session_stream(options.seed, global, rng::kSessionRelay));
  end.hub.emplace(
      sim, end.rng, mech, single_timers, std::move(subscribers),
      [this, &end](std::uint64_t dest, const Message& m) {
        fabric_send(end.global, end.seq, dest, m);
      },
      [this, &end] {
        ++completed;
        messages += end.hub->messages_sent();
      });
  end.hub->begin();
}

void Replica::deliver(const exp::CrossShardEntry& entry) {
  if (entry.dest >= sessions) {
    protocols::SharedRelayHub& hub = *relay_ends[entry.dest - sessions].hub;
    handle([&] { hub.handle(entry.source, entry.message); });
    return;
  }
  SingleSession* endpoint = endpoints[entry.dest];
  if (endpoint == nullptr) return;  // completed: the farm drops it too
  handle([&] { endpoint->deliver_fabric(entry.message); });
}

void Replica::step_once() {
  if (!spans.on()) {
    sim.step();
    return;
  }
  if ((steps++ & 15U) == 0) {
    depth.push_back(static_cast<double>(sim.pending_events()));
  }
  spans.child_ns = 0;
  const std::uint64_t t0 = Spans::now_ns();
  sim.step();
  const std::uint64_t dt = Spans::now_ns() - t0;
  spans.add(kStep, dt - std::min(dt, spans.child_ns));
}

void Replica::drain_ring(double boundary) {
  if (ring.empty()) return;
  const std::uint64_t t0 = spans.on() ? Spans::now_ns() : 0;
  const std::size_t n = ring.drain(inbox);
  const std::uint64_t t1 = spans.on() ? Spans::now_ns() : 0;
  exp::sort_fabric(inbox);
  if (spans.on()) {
    const std::uint64_t t2 = Spans::now_ns();
    const auto entries = static_cast<double>(n);
    spans.add(kRingPushPop, static_cast<std::uint64_t>(
                                static_cast<double>(epoch_push_ns + t1 - t0) /
                                entries));
    spans.add(kRingDrainSort,
              static_cast<std::uint64_t>(static_cast<double>(t2 - t0) /
                                         entries));
    epoch_push_ns = 0;
  }
  sim.schedule_at(boundary, [this] {
    for (const exp::CrossShardEntry& entry : inbox) deliver(entry);
    inbox.clear();
  });
}

ReplicaResult Replica::run() {
  const std::uint64_t start = Spans::now_ns();
  for (std::size_t r = 0; r < relays; ++r) {
    sim.schedule_at(0.0, [this, r] { spawn_relay(r); });
  }
  const double window =
      static_cast<double>(options.sessions) / options.arrival_rate;
  for (std::size_t i = 0; i < sessions; ++i) {
    const auto g = static_cast<std::uint64_t>(i);
    sim::Rng lifecycle = session_stream(options.seed, g,
                                        rng::kSessionLifecycle);
    sim.schedule_at(window * lifecycle.uniform(),
                    [this, g, i] { spawn(g, i); });
  }
  const std::size_t total = sessions + relays;
  ReplicaResult result;
  while (completed < total) {
    const std::optional<double> next = sim.next_pending_time();
    if (!next) throw std::logic_error("replica stalled before completing");
    if (relays == 0) {
      step_once();
      continue;
    }
    const double horizon = *next + kFabricEpochSeconds;
    for (std::optional<double> t = next; t && *t <= horizon;
         t = sim.next_pending_time()) {
      step_once();
    }
    drain_ring(horizon);
  }
  result.wall_s = static_cast<double>(Spans::now_ns() - start) * 1e-9;
  result.sessions = completed;
  result.events = sim.events_executed();
  result.messages = messages;
  // Sequence numbers start at 1 and are never reused, so a probe push
  // reveals how many pushes came before it.
  const std::size_t pending = sim.pending_events();
  const sim::EventId probe = sim.schedule_in(0.0, [] {});
  result.pushes = probe.value - 1;
  result.cancels = result.pushes - result.events - pending;
  sim.cancel(probe);
  result.depth = std::move(depth);
  result.spans = std::move(spans);
  return result;
}

}  // namespace

ReplicaResult run_replica(const Workload& workload, std::size_t sessions,
                          std::uint64_t seed, bool traced) {
  auto replica = std::make_unique<Replica>(workload, sessions, seed, traced);
  return replica->run();
}

}  // namespace perfbench

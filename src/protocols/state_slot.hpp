// The mechanism-driven per-node state core shared by every protocol node.
//
// The paper's central claim is that the five protocols are nothing but
// combinations of mechanism switches (refresh, soft-state timeout, explicit
// removal, reliable trigger/removal, failure detector).  This header holds
// the two primitives those switches act on, shared by the single-hop
// engines (protocols/engine.hpp) and the tree nodes
// (protocols/multi_hop_node.hpp) alike:
//
//  * StateSlot -- the one piece of signaling state plus the soft-state
//    timeout guarding it, driven by MechanismSet (a node whose mechanisms
//    lack soft_timeout simply never arms one);
//  * ReliableSlot -- the reliable-transmission mechanism: at most one
//    outstanding message per link direction, retransmitted until
//    acknowledged.
//
// Neither primitive decides protocol policy: owners sequence the calls
// (install, ACK emission, timeout arming, removal) so that wire behavior --
// and therefore the pinned golden traces -- is theirs alone.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "core/protocol.hpp"
#include "protocols/message.hpp"
#include "sim/channel.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::protocols {

/// Timer configuration shared by the engines.  `dist` selects deterministic
/// (real-protocol) or exponential (model-assumption) timer draws.
struct TimerSettings {
  sim::Distribution dist = sim::Distribution::kDeterministic;  ///< timer law
  double refresh = 5.0;   ///< R
  double timeout = 15.0;  ///< T
  double retrans = 0.12;  ///< Gamma (initial value when backing off)
  /// Staged retransmission (Pan & Schulzrinne's staged timers, cited by the
  /// paper): each unacknowledged retransmission multiplies the timer by
  /// this factor, capped at `backoff_cap * retrans`.  1.0 = fixed timer.
  double backoff = 1.0;
  double backoff_cap = 64.0;  ///< cap multiplier of the staged timer
};

/// What every protocol node of one run shares: the simulator, the
/// protocol's mechanism switches and its timer settings.  Built once by the
/// owner of the run (a farm shard, a harness, a Topology) and handed to
/// slots and engines by reference; they keep a pointer to it instead of a
/// copy each, so it must outlive them.
struct NodeContext {
  sim::Simulator* sim = nullptr;  ///< the simulator every timer runs on
  MechanismSet mech{};            ///< the protocol's mechanism switches
  TimerSettings timers{};         ///< R, T, Gamma and the timer law
};

/// An owner callback with no arguments (state-change and expiry hooks).
using Hook = sim::OwnerCall<>;

/// The channel type every protocol node sends Messages through.
using MessageChannel = sim::Channel<Message>;

/// Re-arms `timer` (empty = no pending event) to fire `delay` seconds from
/// now: moves its pending event in place (Simulator::reschedule_in) when
/// there is one, else schedules `action`.  Either way the event order
/// equals cancel + schedule_in.
template <typename F>
void rearm_timer(sim::Simulator& sim, sim::TimerId& timer, sim::Time delay,
                 F&& action) {
  if (timer) {
    const sim::EventId moved = sim.reschedule_in(timer.id(), delay);
    if (moved.value != 0) {
      timer = moved;
      return;
    }
  }
  timer = sim.schedule_in(delay, std::forward<F>(action));
}

/// Cancels `timer` if it is armed and clears the handle.
inline void cancel_timer(sim::Simulator& sim, sim::TimerId& timer) {
  if (timer) {
    sim.cancel(timer.id());
    timer = {};
  }
}

/// One node's copy of the signaling state plus the soft-state timeout that
/// guards it.  Lifecycle events map to methods: install/refresh (`set` +
/// `arm_timeout`), soft-state expiry (the internal timer, reported through
/// `on_expire`), and removal -- explicit, reliable or silent -- through
/// `clear`.  Whether a timeout exists at all comes from the MechanismSet,
/// not from the owner's protocol branch; a slot that is never armed (the
/// sender's authoritative root copy) is plain storage.
class StateSlot {
 public:
  /// `ctx` and `rng` must outlive the slot.  `on_expire` (may be the no-op
  /// hook) fires after a soft-state timeout cleared the value; the owner
  /// emits its removal notification there.
  StateSlot(const NodeContext& ctx, sim::Rng& rng, Hook on_expire = {}) noexcept
      : ctx_(&ctx), rng_(&rng), on_expire_(on_expire) {}

  StateSlot(const StateSlot&) = delete;             ///< non-copyable
  StateSlot& operator=(const StateSlot&) = delete;  ///< non-copyable

  /// Stores `value` (install or refresh).  Deliberately does NOT touch the
  /// timeout: owners call arm_timeout() at their protocol's arming point so
  /// event order on the wire is unchanged by the extraction.
  void set(std::int64_t value) noexcept { value_ = value; }

  /// (Re)arms the soft-state timeout with a fresh timer draw; no-op unless
  /// the mechanism set includes soft_timeout.
  void arm_timeout();

  /// Cancels the pending timeout, if any.
  void cancel_timeout() { cancel_timer(*ctx_->sim, timeout_timer_); }

  /// Removes the value and cancels the timeout.  Returns true when a value
  /// was actually held -- callers use this to suppress duplicate signaling
  /// (a retransmitted removal must not re-notify).
  bool clear();

  /// True when the held value equals `v` (duplicate-trigger detection).
  [[nodiscard]] bool holds(std::int64_t v) const noexcept {
    return value_ && *value_ == v;
  }

  /// The held value (nullopt when no state is installed).
  [[nodiscard]] std::optional<std::int64_t> value() const noexcept {
    return value_;
  }

  /// Number of soft-state timeout expirations so far.
  [[nodiscard]] std::uint64_t timeouts() const noexcept { return timeouts_; }

 private:
  void on_timeout();

  const NodeContext* ctx_;
  sim::Rng* rng_;
  Hook on_expire_;

  std::optional<std::int64_t> value_;
  std::uint64_t timeouts_ = 0;
  sim::TimerId timeout_timer_;
};

/// Per-direction reliable transmission slot: at most one outstanding message
/// per link direction; a newer reliable send supersedes the pending one
/// (it always carries more recent information).  Retransmits every
/// ctx.timers.retrans (drawn from ctx.timers.dist), without backoff.
class ReliableSlot {
 public:
  /// `ctx` and `rng` must outlive the slot; `channel` may be null only if
  /// send() is never called.
  ReliableSlot(const NodeContext& ctx, sim::Rng& rng,
               MessageChannel* channel) noexcept
      : ctx_(&ctx), rng_(&rng), channel_(channel) {}

  /// Sends `msg` reliably: transmit now, retransmit until acknowledged.
  void send(Message msg);

  /// Processes an acknowledgment sequence number; returns true if it matched
  /// the outstanding message (which is then considered delivered).
  bool acknowledge(std::uint64_t seq);

  /// Drops any outstanding message.
  void cancel();

  /// True while a sent message awaits its acknowledgment.
  [[nodiscard]] bool outstanding() const noexcept { return outstanding_; }

 private:
  void arm();
  void on_timer();

  const NodeContext* ctx_;
  sim::Rng* rng_;
  MessageChannel* channel_;
  Message pending_{};
  bool outstanding_ = false;
  sim::TimerId timer_;
};

// Layout pins: a single-hop farm session holds two channels and two slots,
// so their bytes multiply by a million at scale.  A channel keeps its state
// plus pointers to what it shares; a slot points at its NodeContext.
static_assert(sizeof(MessageChannel) <= 88,
              "channels hold pointers, not copies");
static_assert(sizeof(StateSlot) <= 64, "slots hold pointers, not copies");

}  // namespace sigcomp::protocols

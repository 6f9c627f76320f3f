// Executable sender/receiver state machines for the single-hop setting.
//
// The five protocols are mechanism combinations (core/protocol.hpp), so a
// single pair of engines parameterized by MechanismSet implements all of
// them -- exactly the paper's "spectrum" framing.  The held state itself
// lives in a protocols::StateSlot (protocols/state_slot.hpp), the same
// mechanism-driven core the multi-hop tree nodes instantiate; the engines
// add the single-hop session choreography (epochs, staged retransmission
// backoff, explicit removal handshake) on top.  Factory helpers instantiate
// the engines for a named protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/protocol.hpp"
#include "protocols/message.hpp"
#include "protocols/state_slot.hpp"
#include "sim/channel.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::protocols {

/// What a standalone engine owns: its NodeContext and its std::function
/// change hook.  Engines built on a shared context (the session farm) point
/// at that instead and own nothing.
struct OwnedContext {
  NodeContext ctx;                  ///< the engine's private context
  std::function<void()> on_change;  ///< may be empty
  /// The change hook as an owner call (the no-op hook when empty).
  [[nodiscard]] Hook hook() {
    return on_change ? Hook::to(&on_change) : Hook{};
  }
};

/// The signaling sender ("state installer").
///
/// Drives triggers, refreshes, retransmissions and explicit removals
/// according to the mechanism set.  Invokes `on_change` whenever its local
/// state value changes (the consistency monitor hooks in there).
class SenderEngine {
 public:
  /// Wires the sender to its outgoing channel over a shared context;
  /// `ctx`, `rng` and `out` must outlive it.  `on_change` fires on every
  /// local state change.
  SenderEngine(const NodeContext& ctx, sim::Rng& rng, MessageChannel& out,
               Hook on_change = {}) noexcept;

  /// Standalone form: owns a context built from the arguments;
  /// `on_change` (may be null) fires on every local state change.
  SenderEngine(sim::Simulator& sim, sim::Rng& rng, MechanismSet mechanisms,
               TimerSettings timers, MessageChannel& out,
               std::function<void()> on_change);

  SenderEngine(const SenderEngine&) = delete;             ///< non-copyable
  SenderEngine& operator=(const SenderEngine&) = delete;  ///< non-copyable

  /// Installs (or re-installs) local state and signals it to the receiver.
  void install(std::int64_t value);

  /// Updates the local state value; signaling as for install.
  void update(std::int64_t value);

  /// Removes local state; emits an explicit removal if the protocol has one.
  void remove();

  /// The sender crashes: state vanishes and all timers stop, but NOTHING is
  /// signaled -- no removal message, no final refresh.  Orphaned receiver
  /// state must be cleaned up by the receiver's own mechanisms (timeout) or
  /// by an external failure detector (hard state).  This is exactly the
  /// scenario Clark's original soft-state argument is about.
  void crash();

  /// Delivers a message from the receiver (ACKs, notices).
  void handle(const Message& msg);

  /// Cancels every pending timer and pending retransmission (session end).
  void reset();

  /// Starts a new session epoch; stale messages are ignored afterwards.
  void begin_epoch(std::uint64_t epoch);

  /// The installed state value (nullopt when removed).
  [[nodiscard]] std::optional<std::int64_t> value() const noexcept {
    return slot_.value();
  }
  /// True while an explicit removal is awaiting acknowledgment.
  [[nodiscard]] bool removal_pending() const noexcept { return removal_pending_; }
  /// The current session epoch.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  void send_trigger();
  void arm_refresh();
  void on_refresh_timer();
  void arm_trigger_retrans();
  void on_trigger_retrans();
  void arm_removal_retrans();
  void on_removal_retrans();
  void cancel(sim::TimerId& id) { cancel_timer(*ctx_->sim, id); }

  SenderEngine(std::unique_ptr<OwnedContext> owned, sim::Rng& rng,
               MessageChannel& out);

  std::unique_ptr<OwnedContext> owned_;  ///< standalone form only
  const NodeContext* ctx_;
  sim::Rng* rng_;
  MessageChannel* out_;
  Hook on_change_;

  /// The authoritative root copy: never armed, so it cannot time out.
  StateSlot slot_;
  std::uint64_t epoch_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t trigger_seq_ = 0;   ///< seq of the latest trigger content
  std::uint64_t removal_seq_ = 0;
  double trigger_retrans_interval_ = 0.0;
  double removal_retrans_interval_ = 0.0;
  sim::TimerId refresh_timer_;
  sim::TimerId trigger_retrans_timer_;
  sim::TimerId removal_retrans_timer_;
  bool awaiting_trigger_ack_ = false;
  bool removal_pending_ = false;
};

/// The signaling receiver ("state holder").
class ReceiverEngine {
 public:
  /// Wires the receiver to its outgoing (toward-sender) channel over a
  /// shared context; `ctx`, `rng` and `out` must outlive it.  `on_change`
  /// fires on every local state change.
  ReceiverEngine(const NodeContext& ctx, sim::Rng& rng, MessageChannel& out,
                 Hook on_change = {}) noexcept;

  /// Standalone form: owns a context built from the arguments;
  /// `on_change` (may be null) fires on every local state change.
  ReceiverEngine(sim::Simulator& sim, sim::Rng& rng, MechanismSet mechanisms,
                 TimerSettings timers, MessageChannel& out,
                 std::function<void()> on_change);

  ReceiverEngine(const ReceiverEngine&) = delete;             ///< non-copyable
  ReceiverEngine& operator=(const ReceiverEngine&) = delete;  ///< non-copyable

  /// Delivers a message from the sender.
  void handle(const Message& msg);

  /// External failure-detector signal (hard state): removes state and sends
  /// a notice so a live sender can re-install (the "false notification
  /// repair" of Sec. II).
  void external_removal_signal();

  /// Cancels the pending timeout timer (session end).
  void reset();

  /// Starts a new session epoch; stale messages are ignored afterwards.
  void begin_epoch(std::uint64_t epoch);

  /// The held state value (nullopt when no state is installed).
  [[nodiscard]] std::optional<std::int64_t> value() const noexcept {
    return slot_.value();
  }
  /// The current session epoch.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  /// Number of soft-state timeout expirations observed (tests use this).
  [[nodiscard]] std::uint64_t timeouts() const noexcept {
    return slot_.timeouts();
  }

 private:
  void on_expire();

  ReceiverEngine(std::unique_ptr<OwnedContext> owned, sim::Rng& rng,
                 MessageChannel& out);

  std::unique_ptr<OwnedContext> owned_;  ///< standalone form only
  const NodeContext* ctx_;
  MessageChannel* out_;
  Hook on_change_;

  /// The held copy plus its soft-state timeout (the mechanism core).
  StateSlot slot_;
  std::uint64_t epoch_ = 0;
};

}  // namespace sigcomp::protocols

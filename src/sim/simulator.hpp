// The discrete-event simulation engine: a clock plus the pending-event set.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "sim/event_queue.hpp"

namespace sigcomp::sim {

/// Sequential discrete-event simulator.
///
/// Typical use:
///   Simulator sim;
///   sim.schedule_in(1.0, [&] { ... });
///   sim.run_until(100.0);
class Simulator {
 public:
  /// Current simulation time (seconds).
  [[nodiscard]] Time now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `t` (must be >= now()).  Callbacks
  /// are EventCallback: any `void()` callable, stored inline when its
  /// captures fit kInlineCapacity (always, on the library's own paths).
  EventId schedule_at(Time t, EventCallback action);

  /// Schedules `action` after `delay` seconds (negative delays are clamped
  /// to "immediately").
  EventId schedule_in(Time delay, EventCallback action);

  /// Cancels a pending event.  Returns false when it already ran/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Re-arms a pending event to run `delay` seconds from now (negative
  /// delays are clamped to "immediately"), keeping its callback: the
  /// in-place form of cancel() + schedule_in() for refresh, timeout and
  /// retransmission timers, with the same resulting event order.
  /// @return the event's new handle, or an invalid EventId (value 0) with
  ///         nothing changed when `id` already ran or was cancelled.
  EventId reschedule_in(EventId id, Time delay);

  /// Executes the next event, if any.  Returns false when the queue is empty.
  bool step();

  /// Runs events up to and including time `t`; the clock then rests at `t`.
  void run_until(Time t);

  /// Runs until no events remain or `max_events` have executed.
  void run(std::uint64_t max_events = std::numeric_limits<std::uint64_t>::max());

  /// Advances through every event with time <= `horizon` using batched
  /// expiry delivery: all due events are drained from the queue in one pass
  /// (amortizing pops on the refresh-storm hot path), then dispatched in
  /// exact pop order, merging in any event the callbacks schedule inside the
  /// slice.  `stop` is polled after every executed event; when it returns
  /// true the slice aborts immediately -- undispatched drained events are
  /// requeued untouched -- and run_slice returns true.  Unlike run_until,
  /// the clock is NOT bumped to `horizon`; it rests at the last executed
  /// event so a caller observing now() after a stop sees the same value a
  /// step()-driven loop would.  The executed event sequence is bit-identical
  /// to a step() loop over the same horizon.
  template <typename Stop>
  bool run_slice(Time horizon, Stop&& stop);

  /// Time of the earliest pending event, or nullopt when idle.  The
  /// non-throwing companion to EventQueue::next_time().
  [[nodiscard]] std::optional<Time> next_pending_time() const {
    Time t = 0.0;
    if (!queue_.peek_ready(t)) return std::nullopt;
    return t;
  }

  /// True when no events are pending.
  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }
  /// Number of pending (live) events.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }
  /// Events executed since construction.
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return executed_; }
  /// Slot-pool high-water mark of the underlying event queue
  /// (EventQueue::slot_capacity).  Tests assert it stays flat across
  /// session start/stop churn -- the zero-allocation teardown contract.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return queue_.slot_capacity();
  }

 private:
  // Pops and executes the queue's front event (precondition: non-empty).
  // Defined out of line on purpose: inlined into run_slice's two pop loops
  // it made the farm benchmark's refresh_steady workload ~4% slower.
  void execute_next();

  // Returns every undispatched drained event (from index `from` on) to the
  // queue, preserving (time, seq) so pop order is unchanged.  Returns true
  // -- the "stopped" result -- so the dispatch loop can `return
  // requeue_rest(...)`.
  bool requeue_rest(std::size_t from) {
    for (std::size_t i = from; i < drain_buf_.size(); ++i) {
      queue_.requeue_drained(drain_buf_[i]);
    }
    return true;
  }

  EventQueue queue_;
  Time now_ = 0.0;
  std::uint64_t executed_ = 0;
  // Scratch buffer for run_slice's batched expiry delivery; member so the
  // per-slice drain reuses capacity instead of reallocating.
  std::vector<DrainedEvent> drain_buf_;
};

// One drain_due pass, then dispatch: before each buffered event, pop-execute
// any queue event scheduled strictly earlier (events pushed by slice
// callbacks; at equal times the buffered event has the smaller seq, so
// strict < preserves pop order).  take_drained's generation check skips
// buffered events that a callback cancelled mid-slice.  A tail pop loop
// handles callback-scheduled events still inside the horizon after the
// buffer is exhausted.
template <typename Stop>
bool Simulator::run_slice(Time horizon, Stop&& stop) {
  drain_buf_.clear();
  queue_.drain_due(horizon, drain_buf_);
  for (std::size_t i = 0; i < drain_buf_.size(); ++i) {
    const DrainedEvent& e = drain_buf_[i];
    Time t = 0.0;
    while (queue_.peek_ready(t) && t < e.time) {
      execute_next();
      if (stop()) return requeue_rest(i);
    }
    EventCallback action;
    if (!queue_.take_drained(e, action)) continue;  // cancelled mid-slice
    now_ = e.time;
    ++executed_;
    action();
    if (stop()) return requeue_rest(i + 1);
  }
  Time t = 0.0;
  while (queue_.peek_ready(t) && t <= horizon) {
    execute_next();
    if (stop()) return true;
  }
  return false;
}

}  // namespace sigcomp::sim

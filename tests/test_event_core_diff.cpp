// Differential test of the event core against the naive reference
// implementation: identical randomized operation streams must produce
// identical observable behavior -- pop sequence (time and payload), sizes,
// emptiness, cancel outcomes -- while the pooled EventQueue also honors its
// heap_entries() compaction bound and free-list slot recycling.  The
// pooled queue's in-place reschedule() is checked against the reference's
// cancel + push of the same payload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "reference_event_queue.hpp"
#include "sim/rng.hpp"

namespace sigcomp::sim {
namespace {

/// One pending event's bookkeeping across both queues.
struct PendingPair {
  EventId pooled;
  ReferenceEventId reference;
  std::uint64_t payload;
  Time time = 0.0;
};

/// A callback that appends `payload` to `fired` when it runs.
auto append_to(std::vector<std::uint64_t>& fired, std::uint64_t payload) {
  return [&fired, payload] { fired.push_back(payload); };
}

/// Drives the pooled EventQueue and the reference queue through an
/// identical randomized op stream.  With `reschedules`, half the cancels
/// become reschedules (cancel + push of the same payload on the reference
/// side); without, the op stream is the original push/cancel/pop mix.
class DifferentialDriver {
 public:
  explicit DifferentialDriver(std::uint64_t seed, bool reschedules = false)
      : rng_(seed), reschedules_(reschedules) {}

  void run(std::size_t operations) {
    for (std::size_t op = 0; op < operations; ++op) {
      step();
      peak_live_ = std::max(peak_live_, pooled_.size());
      ASSERT_EQ(pooled_.size(), reference_.size()) << "op " << op;
      ASSERT_EQ(pooled_.empty(), reference_.empty()) << "op " << op;
      // Garbage bound: dead husks never exceed the live count at the most
      // recent cancel, so the heap stays within twice the peak live size
      // (plus the small-queue compaction threshold).
      ASSERT_LE(pooled_.heap_entries(), 2 * peak_live_ + 65) << "op " << op;
      if (!pooled_.empty()) {
        ASSERT_DOUBLE_EQ(pooled_.next_time(), reference_.next_time())
            << "op " << op;
      }
    }
    drain();
  }

 private:
  void step() {
    const std::uint64_t roll = rng_.uniform_int(10);
    if (roll < 5) {  // 50% schedule
      push();
    } else if (roll < 8 && !pending_.empty()) {  // 30% cancel/reschedule
      if (reschedules_ && rng_.uniform_int(2) == 0) {
        reschedule();
      } else {
        cancel();
      }
    } else if (!pooled_.empty()) {  // 20% pop
      pop();
    } else {
      push();
    }
  }

  void push() {
    const Time t = rng_.uniform(0.0, 1000.0);
    const std::uint64_t payload = next_payload_++;
    PendingPair pair;
    pair.payload = payload;
    pair.time = t;
    pair.pooled =
        pooled_.push(t, [this, payload] { pooled_fired_.push_back(payload); });
    pair.reference = reference_.push(
        t, [this, payload] { reference_fired_.push_back(payload); });
    pending_.push_back(pair);
  }

  void reschedule() {
    // Moves a random pending event up to 300 s later or earlier.
    PendingPair& pair = pending_[rng_.uniform_int(pending_.size())];
    const Time t = pair.time + rng_.uniform(-300.0, 300.0);
    const EventId old_pooled = pair.pooled;
    const ReferenceEventId old_reference = pair.reference;
    pair.pooled = pooled_.reschedule(old_pooled, t);
    ASSERT_NE(pair.pooled.value, 0u) << "rescheduling a pending event failed";
    ASSERT_TRUE(reference_.cancel(old_reference));
    pair.reference =
        reference_.push(t, append_to(reference_fired_, pair.payload));
    pair.time = t;
    // The superseded handles are dead on both sides.
    ASSERT_FALSE(pooled_.cancel(old_pooled));
    ASSERT_EQ(pooled_.reschedule(old_pooled, t), EventId{});
    ASSERT_FALSE(reference_.cancel(old_reference));
  }

  void cancel() {
    const std::size_t pick = rng_.uniform_int(pending_.size());
    const PendingPair pair = pending_[pick];
    pending_.erase(pending_.begin() +
                   static_cast<std::ptrdiff_t>(pick));
    const bool pooled_ok = pooled_.cancel(pair.pooled);
    const bool reference_ok = reference_.cancel(pair.reference);
    ASSERT_EQ(pooled_ok, reference_ok);
    ASSERT_TRUE(pooled_ok) << "cancelling a pending event must succeed";
    // A second cancel through the same handles must fail identically.
    ASSERT_FALSE(pooled_.cancel(pair.pooled));
    ASSERT_FALSE(reference_.cancel(pair.reference));
  }

  void pop() {
    auto pooled_event = pooled_.pop();
    auto reference_event = reference_.pop();
    ASSERT_DOUBLE_EQ(pooled_event.time, reference_event.time);
    pooled_event.action();
    reference_event.action();
    ASSERT_FALSE(pooled_fired_.empty());
    ASSERT_EQ(pooled_fired_.back(), reference_fired_.back())
        << "pop order diverged";
    forget(pooled_fired_.back());
  }

  void drain() {
    while (!pooled_.empty() || !reference_.empty()) {
      ASSERT_FALSE(pooled_.empty());
      ASSERT_FALSE(reference_.empty());
      pop();
    }
    ASSERT_EQ(pooled_fired_, reference_fired_);
    ASSERT_TRUE(pending_.empty());
  }

  void forget(std::uint64_t payload) {
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      if (pending_[i].payload == payload) {
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
    FAIL() << "popped an event that was not pending";
  }

  Rng rng_;
  bool reschedules_;
  EventQueue pooled_;
  ReferenceEventQueue reference_;
  std::vector<PendingPair> pending_;
  std::vector<std::uint64_t> pooled_fired_;
  std::vector<std::uint64_t> reference_fired_;
  std::uint64_t next_payload_ = 1;
  std::size_t peak_live_ = 0;
};

TEST(EventCoreDifferential, ValidationBehaviorMatchesReference) {
  EventQueue pooled;
  ReferenceEventQueue reference;
  EXPECT_THROW(pooled.push(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(reference.push(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(pooled.push(1.0, EventCallback{}), std::invalid_argument);
  EXPECT_THROW(reference.push(1.0, std::function<void()>{}),
               std::invalid_argument);
  EXPECT_THROW((void)pooled.pop(), std::logic_error);
  EXPECT_THROW((void)reference.pop(), std::logic_error);
  EXPECT_THROW((void)pooled.next_time(), std::logic_error);
  EXPECT_THROW((void)reference.next_time(), std::logic_error);
}

TEST(EventCoreDifferential, RandomizedOpsMatchReferenceAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull, 99991ull}) {
    DifferentialDriver driver(seed);
    driver.run(10000);
  }
}

TEST(EventCoreDifferential, RandomizedReschedulesMatchReferenceAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull, 1337ull, 99991ull}) {
    DifferentialDriver driver(seed, /*reschedules=*/true);
    driver.run(10000);
  }
}

TEST(EventCoreDifferential, TieStormMatchesReference) {
  // Many events at identical times: pop order must be insertion order in
  // both queues.
  EventQueue pooled;
  ReferenceEventQueue reference;
  std::vector<int> pooled_order, reference_order;
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const Time t = static_cast<Time>(rng.uniform_int(3));
    pooled.push(t, [&pooled_order, i] { pooled_order.push_back(i); });
    reference.push(t, [&reference_order, i] { reference_order.push_back(i); });
  }
  while (!pooled.empty()) {
    pooled.pop().action();
    reference.pop().action();
  }
  EXPECT_EQ(pooled_order, reference_order);
}

TEST(EventCoreDifferential, TieStormWithReschedulesMatchesReference) {
  // Reschedules onto the same three instants: a moved event must run after
  // every event already waiting at its new time, as cancel + push orders
  // it, whether the move is later, earlier or to the same time.
  EventQueue pooled;
  ReferenceEventQueue reference;
  std::vector<std::uint64_t> pooled_order, reference_order;
  std::vector<PendingPair> pending;
  Rng rng(5);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const Time t = static_cast<Time>(rng.uniform_int(3));
    PendingPair pair;
    pair.payload = i;
    pair.pooled = pooled.push(t, append_to(pooled_order, i));
    pair.reference = reference.push(t, append_to(reference_order, i));
    pending.push_back(pair);
  }
  for (int round = 0; round < 2000; ++round) {
    PendingPair& pair = pending[rng.uniform_int(pending.size())];
    const Time t = static_cast<Time>(rng.uniform_int(3));
    pair.pooled = pooled.reschedule(pair.pooled, t);
    ASSERT_NE(pair.pooled.value, 0u);
    ASSERT_TRUE(reference.cancel(pair.reference));
    pair.reference =
        reference.push(t, append_to(reference_order, pair.payload));
    ASSERT_DOUBLE_EQ(pooled.next_time(), reference.next_time());
  }
  while (!pooled.empty()) {
    ASSERT_FALSE(reference.empty());
    auto a = pooled.pop();
    auto b = reference.pop();
    ASSERT_DOUBLE_EQ(a.time, b.time);
    a.action();
    b.action();
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_EQ(pooled_order, reference_order);
}

TEST(EventCoreDifferential, CancelHeavyChurnKeepsBoundsAndOrder) {
  // The soft-state re-arm pattern at differential scale: long-lived timers
  // plus schedule/cancel churn, then a full drain compared element-wise.
  EventQueue pooled;
  ReferenceEventQueue reference;
  std::vector<std::uint64_t> pooled_fired, reference_fired;
  std::vector<PendingPair> rearm;
  Rng rng(23);
  std::uint64_t payload = 0;
  const auto push_both = [&](Time t) {
    const std::uint64_t p = ++payload;
    PendingPair pair;
    pair.payload = p;
    pair.pooled =
        pooled.push(t, [&pooled_fired, p] { pooled_fired.push_back(p); });
    pair.reference = reference.push(
        t, [&reference_fired, p] { reference_fired.push_back(p); });
    return pair;
  };
  for (int i = 0; i < 64; ++i) rearm.push_back(push_both(1e6 + i));
  for (int round = 0; round < 20000; ++round) {
    const std::size_t victim = rng.uniform_int(rearm.size());
    ASSERT_TRUE(pooled.cancel(rearm[victim].pooled));
    ASSERT_TRUE(reference.cancel(rearm[victim].reference));
    rearm[victim] = push_both(1e6 + rng.uniform(0.0, 1000.0));
    ASSERT_EQ(pooled.size(), reference.size());
    ASSERT_LE(pooled.heap_entries(), 2 * pooled.size() + 65);
  }
  while (!pooled.empty()) {
    auto a = pooled.pop();
    auto b = reference.pop();
    ASSERT_DOUBLE_EQ(a.time, b.time);
    a.action();
    b.action();
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_EQ(pooled_fired, reference_fired);
}

TEST(EventCoreDifferential, RescheduleOnlyRefreshLoopHoldsNoHusks) {
  // The soft-state refresh loop with in-place re-arms only: 64 receiver
  // timeouts (T = 15 s) pushed out by refreshes at random instants, a
  // timed-out entry re-installed.  Every re-arm is later than the timer's
  // deadline, so the heap never holds more than one entry per live event.
  EventQueue pooled;
  ReferenceEventQueue reference;
  std::vector<std::uint64_t> pooled_fired, reference_fired;
  std::vector<PendingPair> timers(64);
  Rng rng(31);
  constexpr Time kTimeout = 15.0;
  Time now = 0.0;
  const auto install = [&](PendingPair& pair, std::uint64_t payload) {
    pair.payload = payload;
    pair.pooled = pooled.push(now + kTimeout, append_to(pooled_fired, payload));
    pair.reference =
        reference.push(now + kTimeout, append_to(reference_fired, payload));
  };
  for (std::uint64_t i = 0; i < timers.size(); ++i) install(timers[i], i);
  for (int round = 0; round < 50000; ++round) {
    now += rng.exponential(5.0 / 64.0);  // each timer refreshed every ~5 s
    while (!pooled.empty() && pooled.next_time() <= now) {
      ASSERT_DOUBLE_EQ(reference.next_time(), pooled.next_time());
      pooled.pop().action();
      reference.pop().action();
      ASSERT_EQ(pooled_fired.back(), reference_fired.back());
      install(timers[pooled_fired.back()], pooled_fired.back());
    }
    PendingPair& pair = timers[rng.uniform_int(timers.size())];
    const Time deadline = now + kTimeout;
    pair.pooled = pooled.reschedule(pair.pooled, deadline);
    ASSERT_NE(pair.pooled.value, 0u);
    ASSERT_TRUE(reference.cancel(pair.reference));
    pair.reference =
        reference.push(deadline, append_to(reference_fired, pair.payload));
    ASSERT_EQ(pooled.size(), reference.size());
    ASSERT_EQ(pooled.heap_entries(), pooled.size()) << "round " << round;
    ASSERT_DOUBLE_EQ(pooled.next_time(), reference.next_time());
  }
  EXPECT_FALSE(pooled_fired.empty()) << "no timeout ever expired";
  while (!pooled.empty()) {
    auto a = pooled.pop();
    auto b = reference.pop();
    ASSERT_DOUBLE_EQ(a.time, b.time);
    a.action();
    b.action();
    ASSERT_EQ(pooled.heap_entries(), pooled.size());
  }
  EXPECT_TRUE(reference.empty());
  EXPECT_EQ(pooled_fired, reference_fired);
}

}  // namespace
}  // namespace sigcomp::sim

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace sigcomp::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
  EXPECT_THROW((void)q.pop(), std::logic_error);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(3.0, [&] { order.push_back(3); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(1.0, [&] { order.push_back(1); });
  q.push(1.0, [&] { order.push_back(2); });
  q.push(1.0, [&] { order.push_back(3); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, NextTimePeeksWithoutPopping) {
  EventQueue q;
  q.push(5.0, [] {});
  q.push(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.push(1.0, [&] { ++fired; });
  q.push(2.0, [&] { fired += 10; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(fired, 10);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelledHeadIsSkipped) {
  EventQueue q;
  int fired = 0;
  const EventId first = q.push(1.0, [&] { fired = 1; });
  q.push(2.0, [&] { fired = 2; });
  q.cancel(first);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  q.pop().action();
  EXPECT_EQ(fired, 2);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RejectsNonFiniteTimeAndEmptyAction) {
  EventQueue q;
  EXPECT_THROW(q.push(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_THROW(q.push(1.0, EventCallback{}), std::invalid_argument);
}

TEST(EventQueue, CancelHeavyWorkloadKeepsHeapCompact) {
  // Regression: cancel() used to leave dead entries in the heap until they
  // surfaced, so a refresh/backoff-heavy run (schedule + cancel churn at
  // far-future times that never surface) carried O(cancelled) garbage.
  EventQueue q;
  std::vector<EventId> live;
  for (int i = 0; i < 100; ++i) {
    live.push_back(q.push(1e9 + i, [] {}));  // long-lived timers, never pop
  }
  for (int round = 0; round < 200000; ++round) {
    // A timer is set and re-set before ever firing -- the soft-state
    // refresh pattern.
    const EventId id = q.push(1e6 + round, [] {});
    ASSERT_TRUE(q.cancel(id));
    EXPECT_LE(q.heap_entries(), 2 * q.size() + 65)
        << "round " << round << ": dead entries accumulate";
  }
  EXPECT_EQ(q.size(), live.size());
  EXPECT_LE(q.heap_entries(), 2 * q.size() + 65);
}

TEST(EventQueue, CompactionPreservesOrderAndLiveEvents) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    ids.push_back(q.push(t, [] {}));
  }
  // Cancel enough to trigger compaction several times over.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(q.cancel(ids[i]));
    }
  }
  EXPECT_EQ(q.size(), 500u);
  double last = -1.0;
  std::size_t popped = 0;
  while (!q.empty()) {
    const double t = q.next_time();
    EXPECT_LE(last, t);
    last = t;
    q.pop();
    ++popped;
  }
  EXPECT_EQ(popped, 500u);
}

TEST(EventQueue, RejectsInfiniteTimes) {
  EventQueue q;
  EXPECT_THROW(q.push(std::numeric_limits<double>::infinity(), [] {}),
               std::invalid_argument);
  EXPECT_THROW(q.push(-std::numeric_limits<double>::infinity(), [] {}),
               std::invalid_argument);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopAfterDrainThrowsAndQueueStaysUsable) {
  EventQueue q;
  q.push(1.0, [] {});
  q.pop();
  EXPECT_THROW((void)q.pop(), std::logic_error);
  EXPECT_THROW((void)q.next_time(), std::logic_error);
  // The queue must remain fully usable after the failed pop.
  int fired = 0;
  q.push(2.0, [&] { ++fired; });
  q.pop().action();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, StaleIdAfterSlotReuseCancelsNothing) {
  // The popped event's slot is recycled by the next push; the stale handle
  // must not cancel the new occupant (generation check).
  EventQueue q;
  const EventId stale = q.push(1.0, [] {});
  q.pop();
  int fired = 0;
  const EventId fresh = q.push(2.0, [&] { ++fired; });
  EXPECT_EQ(stale.slot, fresh.slot);  // the pool really did recycle the slot
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  q.pop().action();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, DefaultEventIdNeverCancels) {
  EventQueue q;
  q.push(1.0, [] {});
  EXPECT_FALSE(q.cancel(EventId{}));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, FreeListReusePreventsPoolGrowth) {
  // One million schedule/cancel cycles against a fixed backdrop of live
  // timers: the slot pool and the heap must both stay flat (the
  // zero-allocation steady-state contract).
  EventQueue q;
  for (int i = 0; i < 100; ++i) q.push(1e9 + i, [] {});
  {
    const EventId id = q.push(1e6, [] {});
    ASSERT_TRUE(q.cancel(id));
  }
  const std::size_t slots_high_water = q.slot_capacity();
  const std::uint64_t heap_allocs_before = EventCallback::heap_allocations();
  for (int cycle = 0; cycle < 1000000; ++cycle) {
    const EventId id = q.push(1e6 + cycle, [] {});
    ASSERT_TRUE(q.cancel(id));
  }
  EXPECT_EQ(q.slot_capacity(), slots_high_water) << "slot pool grew";
  EXPECT_LE(q.heap_entries(), 2 * q.size() + 65) << "heap garbage grew";
  EXPECT_EQ(EventCallback::heap_allocations(), heap_allocs_before)
      << "a callback spilled to the heap";
  EXPECT_EQ(q.size(), 100u);
}

TEST(EventCallback, InlineCapturesNeverTouchTheHeap) {
  const std::uint64_t before = EventCallback::heap_allocations();
  int fired = 0;
  // Timer-sized ([this]) and delivery-sized ([this, message]) captures.
  EventCallback small([&fired] { ++fired; });
  struct {
    int* p;
    std::uint64_t body[4] = {1, 2, 3, 4};
  } payload{&fired};
  EventCallback large([payload] { *payload.p += int(payload.body[0]); });
  small();
  large();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(EventCallback::heap_allocations(), before);
}

TEST(EventCallback, OversizedCapturesSpillToHeapAndStillRun) {
  const std::uint64_t before = EventCallback::heap_allocations();
  std::array<std::uint64_t, 16> big{};  // 128 bytes > kInlineCapacity
  big[15] = 7;
  std::uint64_t out = 0;
  EventCallback cb([big, &out] { out = big[15]; });
  EXPECT_EQ(EventCallback::heap_allocations(), before + 1);
  EventCallback moved = std::move(cb);  // heap case: pointer relocation
  moved();
  EXPECT_EQ(out, 7u);
}

TEST(EventCallback, OverAlignedCapturesSpillToHeapAndStillRun) {
  // Inline storage is pointer-aligned (it keeps the queue's pool slot at 80
  // bytes), so a small capture that needs 16-byte alignment takes the
  // counted heap path instead of being stored misaligned.
  struct alignas(16) Wide {
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;
  };
  static_assert(sizeof(Wide) <= EventCallback::kInlineCapacity);
  static_assert(alignof(Wide) > EventCallback::kInlineAlign);
  const std::uint64_t before = EventCallback::heap_allocations();
  Wide wide;
  wide.hi = 9;
  std::uint64_t out = 0;
  EventCallback cb([wide, &out] { out = wide.hi; });
  EXPECT_EQ(EventCallback::heap_allocations(), before + 1);
  EventQueue q;
  q.push(1.0, std::move(cb));
  q.pop().action();
  EXPECT_EQ(out, 9u);
}

TEST(EventCallback, MoveTransfersOwnershipExactlyOnce) {
  int fired = 0;
  EventCallback a([&fired] { ++fired; });
  EventCallback b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(fired, 1);
}

TEST(EventCallback, DestructorRunsCaptureDestructors) {
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    EventCallback cb([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // the callback keeps the capture alive
  }
  EXPECT_TRUE(watch.expired()) << "capture leaked";
}

// ------------------------------------------------ batched expiry drain --

TEST(EventQueue, DrainDueCollectsDueEventsInExactPopOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(5.0, [&] { order.push_back(50); });
  q.push(1.0, [&] { order.push_back(1); });
  q.push(3.0, [&] { order.push_back(3); });
  q.push(8.0, [&] { order.push_back(80); });
  q.push(1.0, [&] { order.push_back(2); });  // tie: insertion order
  std::vector<DrainedEvent> due;
  q.drain_due(3.0, due);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_DOUBLE_EQ(due[0].time, 1.0);
  EXPECT_DOUBLE_EQ(due[1].time, 1.0);
  EXPECT_DOUBLE_EQ(due[2].time, 3.0);
  EXPECT_EQ(q.size(), 5u);  // drained events stay live until taken
  for (const DrainedEvent& event : due) {
    EventCallback action;
    ASSERT_TRUE(q.take_drained(event, action));
    action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.size(), 2u);
  q.pop().action();
  q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 50, 80}));
}

TEST(EventQueue, DrainedEventsAreInvisibleUntilRequeued) {
  EventQueue q;
  int fired = 0;
  q.push(1.0, [&] { fired = 1; });
  q.push(5.0, [] {});
  std::vector<DrainedEvent> due;
  q.drain_due(2.0, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 5.0);  // the drained event is gone...
  Time ready = 0.0;
  ASSERT_TRUE(q.peek_ready(ready));
  EXPECT_DOUBLE_EQ(ready, 5.0);
  q.requeue_drained(due[0]);  // ...until put back, untouched
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  q.pop().action();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelOfADrainedEventPreventsDispatch) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.push(1.0, [&] { fired += 1; });
  q.push(2.0, [&] { fired += 10; });
  std::vector<DrainedEvent> due;
  q.drain_due(3.0, due);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_TRUE(q.cancel(id));
  EventCallback action;
  EXPECT_FALSE(q.take_drained(due[0], action));  // cancelled mid-slice
  ASSERT_TRUE(q.take_drained(due[1], action));
  action();
  EXPECT_EQ(fired, 10);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleDrainedHandleAfterSlotReuseIsRejected) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.push(1.0, [&] { fired = 1; });
  std::vector<DrainedEvent> due;
  q.drain_due(2.0, due);
  ASSERT_EQ(due.size(), 1u);
  ASSERT_TRUE(q.cancel(id));
  q.push(7.0, [&] { fired = 7; });  // reuses the released slot
  EventCallback action;
  EXPECT_FALSE(q.take_drained(due[0], action));  // stale seq
  q.requeue_drained(due[0]);                     // must be a no-op
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 7.0);
  q.pop().action();
  EXPECT_EQ(fired, 7);
}

TEST(EventQueue, DrainIncludesTheHorizonAndAppendsToTheBuffer) {
  EventQueue q;
  q.push(1.0, [] {});
  q.push(2.0, [] {});
  std::vector<DrainedEvent> due;
  q.drain_due(1.0, due);  // t == horizon is due
  ASSERT_EQ(due.size(), 1u);
  q.drain_due(2.0, due);  // appends, never clears
  ASSERT_EQ(due.size(), 2u);
  EXPECT_DOUBLE_EQ(due[0].time, 1.0);
  EXPECT_DOUBLE_EQ(due[1].time, 2.0);
  EventCallback action;
  EXPECT_TRUE(q.take_drained(due[0], action));
  EXPECT_TRUE(q.take_drained(due[1], action));
  EXPECT_TRUE(q.empty());
  Time ready = 0.0;
  EXPECT_FALSE(q.peek_ready(ready));
}

TEST(EventQueue, EventsPushedMidSliceMergeAheadOfDrainedOnes) {
  // The run_slice pattern: a drained event's callback schedules new work
  // BEFORE the next drained event's time; the dispatcher peeks the queue
  // and pops it first.
  EventQueue q;
  std::vector<double> order;
  q.push(1.0, [&] { order.push_back(1.0); });
  q.push(2.0, [&] { order.push_back(2.0); });
  std::vector<DrainedEvent> due;
  q.drain_due(2.0, due);
  ASSERT_EQ(due.size(), 2u);
  EventCallback action;
  ASSERT_TRUE(q.take_drained(due[0], action));
  action();
  q.push(1.5, [&] { order.push_back(1.5); });  // scheduled "by" event 1.0
  Time ready = 0.0;
  ASSERT_TRUE(q.peek_ready(ready));
  ASSERT_LT(ready, due[1].time);
  q.pop().action();
  ASSERT_TRUE(q.take_drained(due[1], action));
  action();
  EXPECT_EQ(order, (std::vector<double>{1.0, 1.5, 2.0}));
}

TEST(EventQueue, DrainCyclesKeepTheSlotPoolFlat) {
  // The sliced-farm steady state: drain a batch, take it, schedule the
  // next batch -- forever, against a backdrop of live timers, without
  // growing the slot pool or touching the heap.
  EventQueue q;
  for (int i = 0; i < 16; ++i) q.push(1e9 + i, [] {});
  for (int i = 0; i < 16; ++i) q.push(static_cast<double>(i), [] {});
  std::vector<DrainedEvent> due;
  q.drain_due(16.0, due);
  for (const DrainedEvent& event : due) {
    EventCallback action;
    ASSERT_TRUE(q.take_drained(event, action));
  }
  const std::size_t slots_high_water = q.slot_capacity();
  const std::uint64_t heap_allocs_before = EventCallback::heap_allocations();
  double now = 16.0;
  for (int cycle = 0; cycle < 100000; ++cycle) {
    for (int i = 0; i < 16; ++i) q.push(now + i, [] {});
    due.clear();
    q.drain_due(now + 16.0, due);
    ASSERT_EQ(due.size(), 16u);
    for (const DrainedEvent& event : due) {
      EventCallback action;
      ASSERT_TRUE(q.take_drained(event, action));
    }
    now += 16.0;
  }
  EXPECT_EQ(q.slot_capacity(), slots_high_water) << "slot pool grew";
  EXPECT_EQ(EventCallback::heap_allocations(), heap_allocs_before)
      << "a callback spilled to the heap";
  EXPECT_EQ(q.size(), 16u);
}

// ------------------------------------------------- in-place reschedule --

TEST(EventQueue, LaterRescheduleAddsNoHeapEntry) {
  // The soft-state refresh pattern: a timeout pushed out again and again
  // before it fires.  Only the slot changes; the heap keeps one entry.
  EventQueue q;
  int fired = 0;
  q.push(4.0, [] {});
  EventId timer = q.push(1.0, [&] { ++fired; });
  const std::uint64_t heap_allocs_before = EventCallback::heap_allocations();
  for (int i = 2; i <= 10; ++i) {
    const EventId moved = q.reschedule(timer, static_cast<Time>(i));
    ASSERT_NE(moved.value, 0u);
    EXPECT_EQ(moved.slot, timer.slot);  // same slot, callback kept
    EXPECT_NE(moved.value, timer.value);
    timer = moved;
    EXPECT_EQ(q.heap_entries(), 2u);
    EXPECT_EQ(q.size(), 2u);
  }
  EXPECT_EQ(EventCallback::heap_allocations(), heap_allocs_before);
  // The stale front entry (key 1.0) is re-keyed, not popped early.
  EXPECT_DOUBLE_EQ(q.next_time(), 4.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 4.0);
  auto event = q.pop();
  EXPECT_DOUBLE_EQ(event.time, 10.0);
  event.action();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EarlierReschedulePopsAtTheNewTime) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.push(5.0, [&] { order.push_back(1); });
  q.push(3.0, [&] { order.push_back(2); });
  const EventId moved = q.reschedule(a, 1.0);
  ASSERT_NE(moved.value, 0u);
  EXPECT_EQ(q.heap_entries(), 3u);  // a fresh entry; the old one is a husk
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  Time ready = 0.0;
  EXPECT_FALSE(q.peek_ready(ready));  // sheds the husk once it surfaces
  EXPECT_EQ(q.heap_entries(), 0u);
}

TEST(EventQueue, RescheduleTakesAFreshSeqLikeCancelPlusPush) {
  // Equal time: the rescheduled event now runs after the event pushed
  // after it, exactly as a cancel + push would order it.
  EventQueue q;
  std::vector<int> order;
  const EventId first = q.push(1.0, [&] { order.push_back(1); });
  q.push(1.0, [&] { order.push_back(2); });
  ASSERT_NE(q.reschedule(first, 1.0).value, 0u);
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
}

TEST(EventQueue, LaterThenEarlierRescheduleLeavesOneLiveEntry) {
  // A lazily re-armed event moved back again before its entry surfaced:
  // the entry still holds the original key, and the earlier deadline must
  // win over both the stale key and the later one.
  EventQueue q;
  int fired = 0;
  EventId id = q.push(10.0, [&] { ++fired; });
  q.push(12.0, [] {});
  id = q.reschedule(id, 20.0);
  id = q.reschedule(id, 15.0);
  ASSERT_NE(id.value, 0u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_DOUBLE_EQ(q.pop().time, 12.0);
  auto event = q.pop();
  EXPECT_DOUBLE_EQ(event.time, 15.0);
  event.action();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.heap_entries(), 0u);
}

TEST(EventQueue, RescheduleOfAnIdThatIsNotPendingChangesNothing) {
  EventQueue q;
  const EventId popped = q.push(1.0, [] {});
  q.pop();
  const EventId cancelled = q.push(2.0, [] {});
  ASSERT_TRUE(q.cancel(cancelled));
  const EventId live = q.push(3.0, [] {});
  const EventId moved = q.reschedule(live, 4.0);
  ASSERT_NE(moved.value, 0u);
  // Default, already popped, cancelled, superseded by a reschedule, and a
  // slot past the pool.
  const EventId far_slot{moved.value, moved.slot + 1000};
  for (const EventId stale : {EventId{}, popped, cancelled, live, far_slot}) {
    EXPECT_EQ(q.reschedule(stale, 0.5), EventId{});
    EXPECT_EQ(q.size(), 1u);
    EXPECT_DOUBLE_EQ(q.next_time(), 4.0);
  }
  EXPECT_FALSE(q.cancel(live));  // the old handle is dead for cancel too
  EXPECT_TRUE(q.cancel(moved));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleRejectsNonFiniteTimes) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  const Time inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)q.reschedule(id, std::nan("")), std::invalid_argument);
  EXPECT_THROW((void)q.reschedule(id, inf), std::invalid_argument);
  EXPECT_THROW((void)q.reschedule(EventId{}, -inf), std::invalid_argument);
  // The event is untouched: its handle still cancels it.
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_TRUE(q.cancel(id));
}

TEST(EventQueue, RescheduleOfADrainedEventReturnsItToTheHeap) {
  // A drained event re-armed before dispatch: its drained handle goes
  // stale, and it pops from the heap at its new time, earlier or later.
  for (const Time target : {0.5, 7.0}) {
    EventQueue q;
    int fired = 0;
    const EventId id = q.push(1.0, [&] { ++fired; });
    q.push(2.0, [] {});
    std::vector<DrainedEvent> due;
    q.drain_due(3.0, due);
    ASSERT_EQ(due.size(), 2u);
    EXPECT_EQ(q.heap_entries(), 0u);
    const EventId moved = q.reschedule(id, target);
    ASSERT_NE(moved.value, 0u);
    EXPECT_EQ(q.heap_entries(), 1u);  // no husk: the drained event had none
    EventCallback action;
    EXPECT_FALSE(q.take_drained(due[0], action));
    q.requeue_drained(due[0]);  // a no-op as well
    ASSERT_TRUE(q.take_drained(due[1], action));
    EXPECT_EQ(q.size(), 1u);
    EXPECT_DOUBLE_EQ(q.next_time(), target);
    q.pop().action();
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(q.empty());
  }
}

TEST(EventQueue, DrainUsesTheTrueTimeOfALazilyRescheduledEvent) {
  // The heap entry still says 1.0; the event is due at 10.0.
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.push(2.0, [] {});
  ASSERT_NE(q.reschedule(id, 10.0).value, 0u);
  std::vector<DrainedEvent> due;
  q.drain_due(5.0, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_DOUBLE_EQ(due[0].time, 2.0);
  EventCallback action;
  ASSERT_TRUE(q.take_drained(due[0], action));
  q.drain_due(10.0, due);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_DOUBLE_EQ(due[1].time, 10.0);
  ASSERT_TRUE(q.take_drained(due[1], action));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CompactionReKeysLazilyRescheduledEvents) {
  // Stale entries survive compaction with their true keys: every fourth
  // event is pushed out, the rest are cancelled (compacting once husks
  // outnumber live events), and the survivors pop at their new times.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 400; ++i) {
    ids.push_back(q.push(static_cast<Time>(i), [] {}));
  }
  for (std::size_t i = 3; i < ids.size(); i += 4) {
    ids[i] = q.reschedule(ids[i], 1000.0 - static_cast<Time>(i));
  }
  EXPECT_EQ(q.heap_entries(), 400u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i % 4 != 3) {
      ASSERT_TRUE(q.cancel(ids[i]));
    }
  }
  EXPECT_EQ(q.size(), 100u);
  EXPECT_LT(q.heap_entries(), 300u) << "compaction never ran";
  std::vector<Time> popped;
  while (!q.empty()) popped.push_back(q.pop().time);
  ASSERT_EQ(popped.size(), 100u);
  for (std::size_t k = 0; k < popped.size(); ++k) {
    EXPECT_DOUBLE_EQ(popped[k], 601.0 + 4.0 * static_cast<Time>(k));
  }
}

TEST(EventQueue, EarlierRescheduleChurnKeepsHeapCompact) {
  // Every reschedule moves a timer earlier, each one leaving a husk; the
  // compaction bound must hold as it does for cancel churn.
  EventQueue q;
  std::vector<EventId> timers;
  for (int i = 0; i < 100; ++i) timers.push_back(q.push(1e9 + i, [] {}));
  Time deadline = 1e8;
  for (int round = 0; round < 20000; ++round) {
    EventId& timer = timers[static_cast<std::size_t>(round) % timers.size()];
    timer = q.reschedule(timer, deadline);
    deadline -= 1.0;
    ASSERT_NE(timer.value, 0u);
    ASSERT_LE(q.heap_entries(), 2 * q.size() + 65) << "round " << round;
  }
  EXPECT_EQ(q.size(), 100u);
  Time last = -1e18;
  while (!q.empty()) {
    const Time t = q.pop().time;
    EXPECT_LE(last, t);
    last = t;
  }
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  std::vector<double> popped;
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    q.push(t, [&popped, t] { popped.push_back(t); });
  }
  while (!q.empty()) q.pop().action();
  for (std::size_t i = 1; i < popped.size(); ++i) {
    EXPECT_LE(popped[i - 1], popped[i]);
  }
}

TEST(TimerId, PacksEveryHandleTheQueueIssuesIntoOneWord) {
  static_assert(sizeof(TimerId) == sizeof(std::uint64_t));
  EXPECT_FALSE(TimerId{});
  EXPECT_FALSE(TimerId(EventId{}));
  EXPECT_EQ(TimerId{}.id(), EventId{});
  // Real handles round-trip, across recycled slots and fresh seqs, and a
  // packed handle cancels and reschedules like the original.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 64; ++i) ids.push_back(q.push(1.0 + i, [] {}));
  for (int i = 0; i < 64; i += 2) EXPECT_TRUE(q.cancel(TimerId(ids[i]).id()));
  for (int i = 0; i < 32; ++i) ids.push_back(q.push(100.0 + i, [] {}));
  for (const EventId id : ids) {
    const TimerId packed(id);
    EXPECT_TRUE(packed);
    EXPECT_EQ(packed.id(), id);
  }
  const TimerId moved = q.reschedule(TimerId(ids[1]).id(), 500.0);
  EXPECT_TRUE(moved);
  EXPECT_FALSE(q.cancel(ids[1]));  // the old handle went stale
  EXPECT_TRUE(q.cancel(moved.id()));
  // The largest seq and slot the queue may issue survive the packing.
  const EventId edge{(std::uint64_t{1} << (64 - kEventSlotBits)) - 1,
                     (std::uint32_t{1} << kEventSlotBits) - 1};
  EXPECT_EQ(TimerId(edge).id(), edge);
}

}  // namespace
}  // namespace sigcomp::sim

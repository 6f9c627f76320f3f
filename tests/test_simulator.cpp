#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace sigcomp::sim {
namespace {

TEST(Simulator, ClockStartsAtZero) {
  Simulator s;
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, StepAdvancesClockToEventTime) {
  Simulator s;
  s.schedule_at(2.5, [] {});
  EXPECT_TRUE(s.step());
  EXPECT_DOUBLE_EQ(s.now(), 2.5);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  std::vector<double> times;
  s.schedule_in(1.0, [&] {
    times.push_back(s.now());
    s.schedule_in(1.5, [&] { times.push_back(s.now()); });
  });
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 2.5);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator s;
  s.schedule_in(3.0, [&] {
    s.schedule_in(-5.0, [&] { EXPECT_DOUBLE_EQ(s.now(), 3.0); });
  });
  s.run();
  EXPECT_DOUBLE_EQ(s.now(), 3.0);
}

TEST(Simulator, ScheduleAtPastThrows) {
  Simulator s;
  s.schedule_at(5.0, [] {});
  s.step();
  EXPECT_THROW(s.schedule_at(1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, RunUntilExecutesUpToBoundaryInclusive) {
  Simulator s;
  int fired = 0;
  s.schedule_at(1.0, [&] { ++fired; });
  s.schedule_at(2.0, [&] { ++fired; });
  s.schedule_at(3.0, [&] { ++fired; });
  s.run_until(2.0);
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(s.now(), 2.0);
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator s;
  s.run_until(42.0);
  EXPECT_DOUBLE_EQ(s.now(), 42.0);
}

TEST(Simulator, CancelStopsEvent) {
  Simulator s;
  int fired = 0;
  const EventId id = s.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(s.cancel(id));
  s.run();
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, EventsExecutedCounts) {
  Simulator s;
  for (int i = 0; i < 5; ++i) s.schedule_in(double(i), [] {});
  s.run();
  EXPECT_EQ(s.events_executed(), 5u);
}

TEST(Simulator, RunWithEventCapStopsEarly) {
  Simulator s;
  int fired = 0;
  // A self-perpetuating event chain.
  std::function<void()> tick = [&] {
    ++fired;
    s.schedule_in(1.0, tick);
  };
  s.schedule_in(1.0, tick);
  s.run(10);
  EXPECT_EQ(fired, 10);
}

TEST(Simulator, SimultaneousEventsRunInScheduleOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(1.0, [&] { order.push_back(1); });
  s.schedule_at(1.0, [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, RescheduleInMovesATimerAndKeepsItsCallback) {
  Simulator s;
  std::vector<double> fired_at;
  EventId timer = s.schedule_in(5.0, [&] { fired_at.push_back(s.now()); });
  s.schedule_in(1.0, [&] { timer = s.reschedule_in(timer, 10.0); });
  s.run();
  EXPECT_EQ(fired_at, (std::vector<double>{11.0}));
  EXPECT_EQ(s.events_executed(), 2u);
}

TEST(Simulator, RescheduleInClampsNegativeDelaysToNow) {
  Simulator s;
  std::vector<double> fired_at;
  EventId timer = s.schedule_in(5.0, [&] { fired_at.push_back(s.now()); });
  s.schedule_in(2.0, [&] { timer = s.reschedule_in(timer, -3.0); });
  s.run();
  EXPECT_EQ(fired_at, (std::vector<double>{2.0}));
}

TEST(Simulator, RescheduleInOfAFinishedEventReturnsAnInvalidId) {
  Simulator s;
  const EventId done = s.schedule_in(1.0, [] {});
  s.run();
  EXPECT_EQ(s.reschedule_in(done, 1.0), EventId{});
  EXPECT_EQ(s.reschedule_in(EventId{}, 1.0), EventId{});
  EXPECT_TRUE(s.idle());
}

/// One run of the mid-slice re-arm scenario: four events at t = 1..4, the
/// first of which re-arms the drained, not-yet-run events at t = 3 (later,
/// to 7 -- past the first slice) and t = 4 (earlier, to 1.5).  `rearm`
/// does the re-arm; `drive` runs the simulator to completion.  Returns
/// "name@time" per executed event, then the executed-event count.
template <typename Rearm, typename Drive>
std::string mid_slice_rearm_trace(Rearm rearm, Drive drive) {
  Simulator s;
  std::ostringstream trace;
  const auto log = [&trace, &s](const char* name) {
    return [&trace, &s, name] { trace << name << '@' << s.now() << ' '; };
  };
  EventId c;
  EventId d;
  s.schedule_at(1.0, [&] {
    trace << "a@" << s.now() << ' ';
    c = rearm(s, c, 6.0, log("c"));  // 3 -> 7
    d = rearm(s, d, 0.5, log("d"));  // 4 -> 1.5
    s.schedule_in(0.25, log("e"));   // 1.25, merged ahead of both
  });
  s.schedule_at(2.0, log("b"));
  c = s.schedule_at(3.0, log("c"));
  d = s.schedule_at(4.0, log("d"));
  drive(s);
  trace << "executed=" << s.events_executed();
  return trace.str();
}

TEST(Simulator, RescheduleOfDrainedEventsInsideRunSliceMatchesStepLoop) {
  const auto in_place = [](Simulator& s, EventId id, Time delay,
                           EventCallback /*unused*/) {
    return s.reschedule_in(id, delay);
  };
  const auto cancel_and_push = [](Simulator& s, EventId id, Time delay,
                                  EventCallback action) {
    EXPECT_TRUE(s.cancel(id));
    return s.schedule_in(delay, std::move(action));
  };
  const auto sliced = [](Simulator& s) {
    EXPECT_FALSE(s.run_slice(5.0, [] { return false; }));
    EXPECT_DOUBLE_EQ(s.now(), 2.0);  // "c" moved out of this slice
    EXPECT_FALSE(s.run_slice(10.0, [] { return false; }));
  };
  const auto stepped = [](Simulator& s) {
    while (s.step()) {
    }
  };
  const std::string expected = mid_slice_rearm_trace(cancel_and_push, stepped);
  EXPECT_EQ(expected, "a@1 e@1.25 d@1.5 b@2 c@7 executed=5");
  EXPECT_EQ(mid_slice_rearm_trace(in_place, sliced), expected);
  EXPECT_EQ(mid_slice_rearm_trace(in_place, stepped), expected);
}

}  // namespace
}  // namespace sigcomp::sim

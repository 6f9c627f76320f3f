#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
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

}  // namespace
}  // namespace sigcomp::sim

#include "sim/simulator.hpp"

#include <stdexcept>

namespace sigcomp::sim {

EventId Simulator::schedule_at(Time t, EventCallback action) {
  if (t < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  }
  return queue_.push(t, std::move(action));
}

EventId Simulator::schedule_in(Time delay, EventCallback action) {
  if (delay < 0.0) delay = 0.0;
  return queue_.push(now_ + delay, std::move(action));
}

EventId Simulator::reschedule_in(EventId id, Time delay) {
  if (delay < 0.0) delay = 0.0;
  return queue_.reschedule(id, now_ + delay);
}

void Simulator::execute_next() {
  auto event = queue_.pop();
  now_ = event.time;
  ++executed_;
  event.action();
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  execute_next();
  return true;
}

void Simulator::run_until(Time t) {
  while (!queue_.empty() && queue_.next_time() <= t) execute_next();
  if (t > now_) now_ = t;
}

void Simulator::run(std::uint64_t max_events) {
  while (executed_ < max_events && step()) {
  }
}

}  // namespace sigcomp::sim

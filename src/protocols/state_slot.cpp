#include "protocols/state_slot.hpp"

#include <utility>

namespace sigcomp::protocols {

// -------------------------------------------------------------- StateSlot --

StateSlot::StateSlot(sim::Simulator& sim, sim::Rng& rng, MechanismSet mech,
                     const TimerSettings& timers,
                     std::function<void()> on_expire)
    : sim_(sim),
      rng_(rng),
      mech_(mech),
      timers_(timers),
      on_expire_(std::move(on_expire)) {}

void StateSlot::arm_timeout() {
  if (!mech_.soft_timeout) return;
  rearm_timer(sim_, timeout_timer_,
              sim::sample(rng_, timers_.dist, timers_.timeout),
              [this] { on_timeout(); });
}

void StateSlot::cancel_timeout() {
  if (timeout_timer_) {
    sim_.cancel(*timeout_timer_);
    timeout_timer_.reset();
  }
}

bool StateSlot::clear() {
  cancel_timeout();
  if (!value_) return false;
  value_.reset();
  return true;
}

void StateSlot::on_timeout() {
  timeout_timer_.reset();
  if (!value_) return;
  value_.reset();
  ++timeouts_;
  if (on_expire_) on_expire_();
}

// ---------------------------------------------------------- ReliableSlot --

ReliableSlot::ReliableSlot(sim::Simulator& sim, sim::Rng& rng,
                           sim::Distribution dist, double retrans_timer,
                           MessageChannel* channel)
    : sim_(sim), rng_(rng), dist_(dist), retrans_timer_(retrans_timer),
      channel_(channel) {}

void ReliableSlot::send(Message msg) {
  pending_ = msg;
  outstanding_ = true;
  channel_->send(pending_);
  arm();
}

bool ReliableSlot::acknowledge(std::uint64_t seq) {
  if (!outstanding_ || pending_.seq != seq) return false;
  cancel();
  return true;
}

void ReliableSlot::cancel() {
  outstanding_ = false;
  if (timer_) {
    sim_.cancel(*timer_);
    timer_.reset();
  }
}

void ReliableSlot::arm() {
  rearm_timer(sim_, timer_, sim::sample(rng_, dist_, retrans_timer_),
              [this] { on_timer(); });
}

void ReliableSlot::on_timer() {
  timer_.reset();
  if (!outstanding_) return;
  channel_->send(pending_);
  arm();
}

}  // namespace sigcomp::protocols

#include "protocols/state_slot.hpp"

namespace sigcomp::protocols {

// -------------------------------------------------------------- StateSlot --

void StateSlot::arm_timeout() {
  if (!ctx_->mech.soft_timeout) return;
  rearm_timer(*ctx_->sim, timeout_timer_,
              sim::sample(*rng_, ctx_->timers.dist, ctx_->timers.timeout),
              [this] { on_timeout(); });
}

bool StateSlot::clear() {
  cancel_timeout();
  if (!value_) return false;
  value_.reset();
  return true;
}

void StateSlot::on_timeout() {
  timeout_timer_ = {};
  if (!value_) return;
  value_.reset();
  ++timeouts_;
  on_expire_();
}

// ---------------------------------------------------------- ReliableSlot --

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
  cancel_timer(*ctx_->sim, timer_);
}

void ReliableSlot::arm() {
  rearm_timer(*ctx_->sim, timer_,
              sim::sample(*rng_, ctx_->timers.dist, ctx_->timers.retrans),
              [this] { on_timer(); });
}

void ReliableSlot::on_timer() {
  timer_ = {};
  if (!outstanding_) return;
  channel_->send(pending_);
  arm();
}

}  // namespace sigcomp::protocols

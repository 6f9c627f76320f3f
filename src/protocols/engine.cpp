#include "protocols/engine.hpp"

#include <algorithm>
#include <utility>

namespace sigcomp::protocols {

// ---------------------------------------------------------------- sender --

SenderEngine::SenderEngine(const NodeContext& ctx, sim::Rng& rng,
                           MessageChannel& out, Hook on_change) noexcept
    : ctx_(&ctx), rng_(&rng), out_(&out), on_change_(on_change),
      slot_(ctx, rng) {}

SenderEngine::SenderEngine(sim::Simulator& sim, sim::Rng& rng,
                           MechanismSet mechanisms, TimerSettings timers,
                           MessageChannel& out, std::function<void()> on_change)
    : SenderEngine(std::make_unique<OwnedContext>(OwnedContext{
                       NodeContext{&sim, mechanisms, timers},
                       std::move(on_change)}),
                   rng, out) {}

SenderEngine::SenderEngine(std::unique_ptr<OwnedContext> owned, sim::Rng& rng,
                           MessageChannel& out)
    : owned_(std::move(owned)),
      ctx_(&owned_->ctx),
      rng_(&rng),
      out_(&out),
      on_change_(owned_->hook()),
      slot_(owned_->ctx, rng) {}

void SenderEngine::begin_epoch(std::uint64_t epoch) {
  reset();
  epoch_ = epoch;
}

void SenderEngine::reset() {
  cancel(refresh_timer_);
  cancel(trigger_retrans_timer_);
  cancel(removal_retrans_timer_);
  awaiting_trigger_ack_ = false;
  removal_pending_ = false;
  slot_.clear();
}

void SenderEngine::send_trigger() {
  out_->send(
      Message{MessageType::kTrigger, *slot_.value(), trigger_seq_, epoch_});
  if (ctx_->mech.reliable_trigger) {
    awaiting_trigger_ack_ = true;
    // Fresh content: reset the stage.
    trigger_retrans_interval_ = ctx_->timers.retrans;
    arm_trigger_retrans();
  }
}

void SenderEngine::install(std::int64_t value) {
  slot_.set(value);
  trigger_seq_ = next_seq_++;
  // An install supersedes a pending removal of the previous incarnation.
  removal_pending_ = false;
  cancel(removal_retrans_timer_);
  send_trigger();
  if (ctx_->mech.refresh && !refresh_timer_) arm_refresh();
  on_change_();
}

void SenderEngine::update(std::int64_t value) {
  if (!slot_.value()) {
    install(value);
    return;
  }
  slot_.set(value);
  trigger_seq_ = next_seq_++;
  send_trigger();  // re-arms a pending trigger retransmission in place
  on_change_();
}

void SenderEngine::remove() {
  slot_.clear();
  cancel(refresh_timer_);
  cancel(trigger_retrans_timer_);
  awaiting_trigger_ack_ = false;
  if (ctx_->mech.explicit_removal) {
    removal_seq_ = next_seq_++;
    out_->send(Message{MessageType::kRemove, 0, removal_seq_, epoch_});
    if (ctx_->mech.reliable_removal) {
      removal_pending_ = true;
      removal_retrans_interval_ = ctx_->timers.retrans;
      arm_removal_retrans();
    }
  }
  on_change_();
}

void SenderEngine::crash() {
  slot_.clear();
  cancel(refresh_timer_);
  cancel(trigger_retrans_timer_);
  cancel(removal_retrans_timer_);
  awaiting_trigger_ack_ = false;
  removal_pending_ = false;
  on_change_();
}

void SenderEngine::arm_refresh() {
  refresh_timer_ = ctx_->sim->schedule_in(
      sim::sample(*rng_, ctx_->timers.dist, ctx_->timers.refresh),
      [this] { on_refresh_timer(); });
}

void SenderEngine::on_refresh_timer() {
  refresh_timer_ = {};
  if (!slot_.value()) return;
  out_->send(
      Message{MessageType::kRefresh, *slot_.value(), trigger_seq_, epoch_});
  arm_refresh();
}

namespace {

/// Advances a staged retransmission interval by one backoff step.
double next_stage(double current, const TimerSettings& timers) {
  const double cap = timers.backoff_cap * timers.retrans;
  return std::min(current * std::max(1.0, timers.backoff), cap);
}

}  // namespace

void SenderEngine::arm_trigger_retrans() {
  rearm_timer(*ctx_->sim, trigger_retrans_timer_,
              sim::sample(*rng_, ctx_->timers.dist, trigger_retrans_interval_),
              [this] { on_trigger_retrans(); });
}

void SenderEngine::on_trigger_retrans() {
  trigger_retrans_timer_ = {};
  if (!slot_.value() || !awaiting_trigger_ack_) return;
  out_->send(
      Message{MessageType::kTrigger, *slot_.value(), trigger_seq_, epoch_});
  trigger_retrans_interval_ =
      next_stage(trigger_retrans_interval_, ctx_->timers);
  arm_trigger_retrans();
}

void SenderEngine::arm_removal_retrans() {
  rearm_timer(*ctx_->sim, removal_retrans_timer_,
              sim::sample(*rng_, ctx_->timers.dist, removal_retrans_interval_),
              [this] { on_removal_retrans(); });
}

void SenderEngine::on_removal_retrans() {
  removal_retrans_timer_ = {};
  if (!removal_pending_) return;
  out_->send(Message{MessageType::kRemove, 0, removal_seq_, epoch_});
  removal_retrans_interval_ =
      next_stage(removal_retrans_interval_, ctx_->timers);
  arm_removal_retrans();
}

void SenderEngine::handle(const Message& msg) {
  if (msg.epoch != epoch_) return;  // straggler from a finished session
  switch (msg.type) {
    case MessageType::kAckTrigger:
      if (msg.seq == trigger_seq_ && awaiting_trigger_ack_) {
        awaiting_trigger_ack_ = false;
        cancel(trigger_retrans_timer_);
      }
      break;
    case MessageType::kAckRemove:
      if (msg.seq == removal_seq_ && removal_pending_) {
        removal_pending_ = false;
        cancel(removal_retrans_timer_);
      }
      break;
    case MessageType::kNotice:
      // The receiver (falsely or via timeout) removed our state; if we still
      // have it, re-install.
      if (slot_.value()) {
        trigger_seq_ = next_seq_++;
        send_trigger();  // re-arms a pending trigger retransmission in place
      }
      break;
    default:
      break;  // data-plane messages never reach the sender
  }
}

// -------------------------------------------------------------- receiver --

ReceiverEngine::ReceiverEngine(const NodeContext& ctx, sim::Rng& rng,
                               MessageChannel& out, Hook on_change) noexcept
    : ctx_(&ctx),
      out_(&out),
      on_change_(on_change),
      slot_(ctx, rng, Hook::bind<&ReceiverEngine::on_expire>(this)) {}

ReceiverEngine::ReceiverEngine(sim::Simulator& sim, sim::Rng& rng,
                               MechanismSet mechanisms, TimerSettings timers,
                               MessageChannel& out,
                               std::function<void()> on_change)
    : ReceiverEngine(std::make_unique<OwnedContext>(OwnedContext{
                         NodeContext{&sim, mechanisms, timers},
                         std::move(on_change)}),
                     rng, out) {}

ReceiverEngine::ReceiverEngine(std::unique_ptr<OwnedContext> owned,
                               sim::Rng& rng, MessageChannel& out)
    : owned_(std::move(owned)),
      ctx_(&owned_->ctx),
      out_(&out),
      on_change_(owned_->hook()),
      slot_(owned_->ctx, rng, Hook::bind<&ReceiverEngine::on_expire>(this)) {}

void ReceiverEngine::begin_epoch(std::uint64_t epoch) {
  reset();
  epoch_ = epoch;
}

void ReceiverEngine::reset() {
  slot_.clear();
}

/// The soft-state timeout fired and the slot dropped the value: emit the
/// (possibly false-) removal notification if the protocol has one.
void ReceiverEngine::on_expire() {
  if (ctx_->mech.removal_notification) {
    out_->send(Message{MessageType::kNotice, 0, 0, epoch_});
  }
  on_change_();
}

void ReceiverEngine::external_removal_signal() {
  if (!slot_.clear()) return;
  if (ctx_->mech.removal_notification) {
    out_->send(Message{MessageType::kNotice, 0, 0, epoch_});
  }
  on_change_();
}

void ReceiverEngine::handle(const Message& msg) {
  if (msg.epoch != epoch_) return;
  switch (msg.type) {
    case MessageType::kTrigger:
      slot_.set(msg.value);
      if (ctx_->mech.reliable_trigger) {
        out_->send(Message{MessageType::kAckTrigger, 0, msg.seq, epoch_});
      }
      slot_.arm_timeout();
      on_change_();
      break;
    case MessageType::kRefresh:
      slot_.set(msg.value);
      slot_.arm_timeout();
      on_change_();
      break;
    case MessageType::kRemove:
      // Idempotent: always acknowledge so a lost ACK is repaired by the
      // sender's retransmission.
      if (ctx_->mech.reliable_removal) {
        out_->send(Message{MessageType::kAckRemove, 0, msg.seq, epoch_});
      }
      if (slot_.clear()) on_change_();
      break;
    default:
      break;
  }
}

}  // namespace sigcomp::protocols

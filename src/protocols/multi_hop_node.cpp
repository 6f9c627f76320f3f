#include "protocols/multi_hop_node.hpp"

namespace sigcomp::protocols {

// ------------------------------------------------------------ TreeSender --

void TreeSender::send_trigger_to(ChildEdge& edge) {
  const Message msg{MessageType::kTrigger, *slot_.value(), trigger_seq_, 0};
  edge.installed = true;
  if (ctx_->mech.reliable_trigger) {
    edge.reliable.send(msg);
  } else {
    edge.down->send(msg);
  }
}

void TreeSender::send_trigger() {
  for (ChildEdge& edge : children_) {
    if (edge.active) send_trigger_to(edge);
  }
}

void TreeSender::start(std::int64_t value) {
  slot_.set(value);
  trigger_seq_ = next_seq_++;
  send_trigger();
  if (ctx_->mech.refresh && !refresh_timer_) arm_refresh();
  on_change_();
}

void TreeSender::update(std::int64_t value) {
  if (!slot_.value()) {
    start(value);
    return;
  }
  slot_.set(value);
  trigger_seq_ = next_seq_++;
  send_trigger();
  on_change_();
}

void TreeSender::arm_refresh() {
  refresh_timer_ = ctx_->sim->schedule_in(
      sim::sample(*rng_, ctx_->timers.dist, ctx_->timers.refresh), [this] {
        refresh_timer_ = {};
        if (slot_.value()) {
          const Message msg{MessageType::kRefresh, *slot_.value(),
                            trigger_seq_, 0};
          for (ChildEdge& edge : children_) {
            if (!edge.active) continue;
            edge.installed = true;
            edge.down->send(msg);
          }
          arm_refresh();
        }
      });
}

/// Emits one removal down `edge`: reliably (superseding any pending
/// trigger in the slot) when the protocol's removals are reliable, best
/// effort -- with the pending trigger cancelled -- otherwise.
void TreeSender::send_removal_to(ChildEdge& edge, std::uint64_t seq) {
  const Message msg{MessageType::kRemove, 0, seq, 0};
  if (ctx_->mech.reliable_removal) {
    edge.reliable.send(msg);
  } else {
    edge.reliable.cancel();
    edge.down->send(msg);
  }
}

void TreeSender::remove() {
  if (!slot_.clear()) return;
  cancel_timer(*ctx_->sim, refresh_timer_);
  if (ctx_->mech.explicit_removal) {
    // One removal, fanned down every branch that was ever installed; each
    // per-child reliable slot matches its own ACK against the shared seq.
    const std::uint64_t seq = next_seq_++;
    for (ChildEdge& edge : children_) {
      if (!edge.installed) {
        edge.reliable.cancel();
        continue;
      }
      edge.installed = false;
      send_removal_to(edge, seq);
    }
  } else {
    for (ChildEdge& edge : children_) edge.reliable.cancel();
  }
  on_change_();
}

void TreeSender::graft_child(std::size_t c) {
  children_[c].active = true;
  if (slot_.value()) send_trigger_to(children_[c]);
}

void TreeSender::deactivate_child(std::size_t c) {
  children_[c].active = false;
  children_[c].reliable.cancel();
}

void TreeSender::prune_child(std::size_t c) {
  deactivate_child(c);
  ChildEdge& edge = children_[c];
  if (ctx_->mech.explicit_removal && edge.installed) {
    edge.installed = false;
    send_removal_to(edge, next_seq_++);
  }
}

void TreeSender::stop() {
  slot_.clear();
  cancel_timer(*ctx_->sim, refresh_timer_);
  for (ChildEdge& edge : children_) edge.reliable.cancel();
}

void TreeSender::handle_from_child(const Message& msg, ChildEdge& edge) {
  switch (msg.type) {
    case MessageType::kAckTrigger:
    case MessageType::kAckRemove:
      edge.reliable.acknowledge(msg.seq);
      break;
    case MessageType::kNotice:
      // A receiver removed our state (timeout or false external signal);
      // re-install.  Under HS the notice traveled reliably, so acknowledge.
      // The fresh trigger goes down every branch: relays that still hold
      // the value re-ack the duplicate without re-forwarding it.
      if (ctx_->mech.external_failure_detector) {
        edge.down->send(Message{MessageType::kAckNotice, 0, msg.seq, 0});
      }
      if (slot_.value()) {
        trigger_seq_ = next_seq_++;
        send_trigger();
      }
      break;
    default:
      break;
  }
}

// ------------------------------------------------------------- TreeRelay --

/// The soft-state timeout fired and the slot dropped the value: emit the
/// one-hop repair notice where the protocol has removal notification.
void TreeRelay::on_expire() {
  if (ctx_->mech.removal_notification) {
    // One-hop repair notice (SS+RT): the upstream neighbor re-triggers.
    up_->send(Message{MessageType::kNotice, 0, 0, 0});
  }
  on_change_();
}

void TreeRelay::forward_trigger_to(ChildEdge& edge, std::int64_t value) {
  const Message msg{MessageType::kTrigger, value, next_seq_++, 0};
  edge.installed = true;
  if (ctx_->mech.reliable_trigger) {
    edge.reliable.send(msg);
  } else {
    edge.down->send(msg);
  }
}

void TreeRelay::forward_trigger(std::int64_t value) {
  for (ChildEdge& edge : children_) {
    if (edge.active) forward_trigger_to(edge, value);
  }
}

/// Emits one removal down `edge` (see TreeSender::send_removal_to).
void TreeRelay::send_removal_to(ChildEdge& edge, std::uint64_t seq) {
  const Message msg{MessageType::kRemove, 0, seq, 0};
  if (ctx_->mech.reliable_removal) {
    edge.reliable.send(msg);
  } else {
    edge.reliable.cancel();
    edge.down->send(msg);
  }
}

/// Propagates a graceful removal down every branch that was ever installed
/// (NOT gated on activity: a removal chases state wherever it went).
void TreeRelay::forward_removal() {
  const std::uint64_t seq = next_seq_++;
  for (ChildEdge& edge : children_) {
    if (!edge.installed) continue;
    edge.installed = false;
    send_removal_to(edge, seq);
  }
}

/// Sends a reliable teardown down every child edge (HS recovery), each
/// with its own seq.
void TreeRelay::flood_teardown() {
  for (ChildEdge& edge : children_) {
    edge.installed = false;
    edge.reliable.send(Message{MessageType::kTeardown, 0, next_seq_++, 0});
  }
}

void TreeRelay::graft_child(std::size_t c) {
  children_[c].active = true;
  if (slot_.value()) forward_trigger_to(children_[c], *slot_.value());
}

void TreeRelay::deactivate_child(std::size_t c) {
  children_[c].active = false;
  children_[c].reliable.cancel();
}

void TreeRelay::prune_child(std::size_t c) {
  deactivate_child(c);
  // A crashed relay cannot signal: the prune degrades to a silent
  // deactivation and the stranded downstream copies are left to their
  // soft-state timeouts (or to the removal that chases them after
  // recovery).
  if (crashed_) return;
  ChildEdge& edge = children_[c];
  if (ctx_->mech.explicit_removal && edge.installed) {
    edge.installed = false;
    send_removal_to(edge, next_seq_++);
  }
}

void TreeRelay::handle_from_upstream(const Message& msg) {
  if (crashed_) return;  // a dead process hears nothing
  switch (msg.type) {
    case MessageType::kTrigger: {
      const bool duplicate = slot_.holds(msg.value);
      if (ctx_->mech.reliable_trigger) {
        up_->send(Message{MessageType::kAckTrigger, 0, msg.seq, 0});
      }
      slot_.set(msg.value);
      slot_.arm_timeout();
      // Duplicates (retransmission after a lost ACK) are re-ACKed but not
      // re-forwarded: the downstream copies are already in flight or pending.
      if (!duplicate) {
        forward_trigger(msg.value);
        on_change_();
      }
      break;
    }
    case MessageType::kRefresh:
      slot_.set(msg.value);
      slot_.arm_timeout();
      // Forward the refresh copy down every active branch, best effort.
      for (ChildEdge& edge : children_) {
        if (!edge.active) continue;
        edge.installed = true;
        edge.down->send(msg);
      }
      on_change_();
      break;
    case MessageType::kRemove:
      // Graceful explicit removal (SS+ER best effort; SS+RTR/HS reliable).
      // Always re-ACK so a lost ACK is repaired by the retransmission, but
      // propagate only once per removal seq -- a retransmitted removal must
      // not re-flood the subtree.
      if (ctx_->mech.reliable_removal) {
        up_->send(Message{MessageType::kAckRemove, 0, msg.seq, 0});
      }
      // The parent's seq counter is monotonic, so anything at or below the
      // last processed removal is a stale duplicate -- it must neither
      // re-flood the subtree nor wipe state a later graft re-installed.
      if (removal_seen_ && msg.seq <= removal_seq_seen_) break;
      removal_seen_ = true;
      removal_seq_seen_ = msg.seq;
      if (slot_.clear()) on_change_();
      forward_removal();
      break;
    case MessageType::kTeardown:
      // Reliable downstream propagation of a removal signal (HS recovery).
      up_->send(Message{MessageType::kAckNotice, 0, msg.seq, 0});
      if (slot_.clear()) on_change_();
      flood_teardown();
      break;
    case MessageType::kAckNotice:
      if (reliable_up_ != nullptr) reliable_up_->acknowledge(msg.seq);
      break;
    default:
      break;
  }
}

void TreeRelay::handle_from_child(const Message& msg, ChildEdge& edge) {
  if (crashed_) return;  // a dead process hears nothing
  switch (msg.type) {
    case MessageType::kAckTrigger:
    case MessageType::kAckNotice:
    case MessageType::kAckRemove:
      edge.reliable.acknowledge(msg.seq);
      break;
    case MessageType::kNotice:
      if (ctx_->mech.external_failure_detector) {
        // HS recovery: acknowledge, drop our own state, keep flooding the
        // notice toward the sender.
        edge.down->send(Message{MessageType::kAckNotice, 0, msg.seq, 0});
        if (slot_.value()) {
          slot_.clear();
          on_change_();
        }
        reliable_up_->send(Message{MessageType::kNotice, 0, next_seq_++, 0});
      } else if (slot_.value() && edge.active) {
        // SS+RT one-hop repair: re-install our value down the branch the
        // notice came from (the other branches kept their copies) -- unless
        // the branch was pruned, in which case the timeout was the point.
        forward_trigger_to(edge, *slot_.value());
      }
      break;
    default:
      break;
  }
}

void TreeRelay::stop() {
  slot_.clear();
  if (reliable_up_ != nullptr) reliable_up_->cancel();
  for (ChildEdge& edge : children_) edge.reliable.cancel();
}

void TreeRelay::crash() {
  const bool held = slot_.clear();
  if (reliable_up_ != nullptr) reliable_up_->cancel();
  for (ChildEdge& edge : children_) edge.reliable.cancel();
  crashed_ = true;
  if (held) on_change_();
}

void TreeRelay::recover() { crashed_ = false; }

void TreeRelay::external_removal_signal() {
  if (crashed_) return;  // the detector cannot fire inside a dead process
  if (!slot_.clear()) return;
  on_change_();
  if (reliable_up_ != nullptr) {
    reliable_up_->send(Message{MessageType::kNotice, 0, next_seq_++, 0});
  }
  flood_teardown();
}

}  // namespace sigcomp::protocols

// Executable nodes of multi-hop signaling topologies (Sec. III-B,
// generalized from the paper's chain to arbitrary rooted trees).
//
// Topology: a sender at the root, relays at interior nodes, receivers at
// the leaves; a chain is the degenerate tree with fan-out 1.  Every node's
// state copy lives in a protocols::StateSlot -- the same mechanism-driven
// core the single-hop engines use -- so all FIVE protocols run here:
// triggers propagate edge-by-edge down every branch (reliably for SS+RT,
// SS+RTR and HS), refreshes propagate as forwarded best-effort copies down
// every branch (the soft-state protocols), explicit removals propagate
// down every branch (best-effort for SS+ER, reliably for SS+RTR and HS),
// and the HS recovery protocol floods notices upstream and teardowns
// downstream when a false external signal fires.  Acks aggregate up the
// branches through per-child reliable slots.
//
// Dynamic membership (IGMP-style leaf churn): each child edge carries an
// activity flag.  Triggers and refreshes flow only down ACTIVE edges;
// graft_child re-activates an edge and re-installs the local copy down it,
// prune_child deactivates an edge using the protocol's own removal
// semantics (nothing for timeout-pruned soft state, a best-effort or
// reliable removal otherwise).  Removals and teardowns are not gated --
// they chase whatever state was installed, tracked per child.  With every
// edge active (the static default) the nodes behave bit-identically to the
// PR 4 nodes, and with exactly one child to the PR 3 chain nodes (the
// golden-trace tests pin both).
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "core/protocol.hpp"
#include "protocols/engine.hpp"
#include "protocols/message.hpp"
#include "protocols/state_slot.hpp"
#include "sim/channel.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::protocols {

/// A node's state for one child edge: the channel toward the child, the
/// edge's reliable slot (one per edge, so one slow branch cannot stall
/// another), and whether signaling flows down it (`active`) and whether
/// state was ever pushed down it (`installed`).  The owner of the tree
/// (protocols::Topology) keeps every node's child edges in one contiguous
/// array; a node sees its own as a span.  Never moves once a timer is
/// armed: the reliable slot's retransmission event points at it.
struct ChildEdge {
  /// `ctx`, `rng` and `channel` (toward the child) must outlive the edge.
  ChildEdge(const NodeContext& ctx, sim::Rng& rng,
            MessageChannel& channel) noexcept
      : down(&channel), reliable(ctx, rng, &channel) {}

  ChildEdge(const ChildEdge&) = delete;             ///< pinned in place
  ChildEdge& operator=(const ChildEdge&) = delete;  ///< pinned in place

  /// Delivery target for the edge's upward channel: hands the message to
  /// the parent node (`parent`, a Node) as arriving from this child.
  template <typename Node>
  void deliver_up(const Message& msg) {
    static_cast<Node*>(parent)->handle_from_child(msg, *this);
  }

  MessageChannel* down;   ///< parent -> child
  ReliableSlot reliable;  ///< reliable sends down the edge
  void* parent = nullptr;  ///< the parent node, for deliver_up
  bool active = true;      ///< signaling flows down the edge
  bool installed = false;  ///< state was pushed down the edge
};

/// The signaling sender at the root of the tree.  The state value changes
/// on updates and is removed only by an explicit remove() (graceful,
/// signaled) or stop() (silent).  Fan-out: triggers and refreshes go down
/// every active child edge; each child edge has its own reliable slot so
/// one slow branch cannot stall another.
class TreeSender {
 public:
  /// `children[c]` is child edge c; the span's order defines the child
  /// indices used by handle_from_downstream.  `ctx`, `rng` and the child
  /// edges must outlive the node; `on_change` fires on every local state
  /// change.
  TreeSender(const NodeContext& ctx, sim::Rng& rng,
             std::span<ChildEdge> children, Hook on_change = {}) noexcept
      : ctx_(&ctx),
        rng_(&rng),
        children_(children),
        on_change_(on_change),
        slot_(ctx, rng) {}

  TreeSender(const TreeSender&) = delete;             ///< non-copyable
  TreeSender& operator=(const TreeSender&) = delete;  ///< non-copyable

  /// Installs the initial value and starts the refresh process.
  void start(std::int64_t value);

  /// Updates the state value (a new trigger propagates down every branch).
  void update(std::int64_t value);

  /// Gracefully removes the state: where the protocol has explicit removal
  /// a removal message goes down every branch that was ever installed
  /// (reliably when the protocol's removals are reliable); otherwise the
  /// downstream copies are left to their soft-state timeouts.
  void remove();

  /// Message arriving from child `child` (ACKs, notices).
  void handle_from_downstream(const Message& msg, std::size_t child = 0) {
    handle_from_child(msg, children_[child]);
  }

  /// Message arriving up `edge`, one of this node's child edges.
  void handle_from_child(const Message& msg, ChildEdge& edge);

  /// Re-activates child edge `c` (a leaf joined somewhere below it) and
  /// re-installs the current value down it if one is held.
  void graft_child(std::size_t c);

  /// Deactivates child edge `c` (the last leaf below it left) using the
  /// protocol's removal semantics: a best-effort or reliable removal where
  /// the mechanisms provide one, nothing (timeout prune) otherwise.
  void prune_child(std::size_t c);

  /// Deactivates child edge `c` without signaling anything (used for the
  /// deeper edges of a pruned path -- the removal, if any, arrives via the
  /// propagation from the prune point).
  void deactivate_child(std::size_t c);

  /// True when signaling flows down child edge `c`.
  [[nodiscard]] bool child_active(std::size_t c) const {
    return children_[c].active;
  }

  /// Silently ends the session: clears state and cancels every pending
  /// timer WITHOUT signaling anything.  Used by the session farm when a
  /// finite-lifetime session's observation window closes.
  void stop();

  /// The installed state value (nullopt before start / after stop).
  [[nodiscard]] std::optional<std::int64_t> value() const noexcept {
    return slot_.value();
  }
  /// Number of child edges.
  [[nodiscard]] std::size_t fanout() const noexcept { return children_.size(); }

 private:
  void send_trigger();
  void send_trigger_to(ChildEdge& edge);
  void send_removal_to(ChildEdge& edge, std::uint64_t seq);
  void arm_refresh();

  const NodeContext* ctx_;
  sim::Rng* rng_;
  std::span<ChildEdge> children_;  ///< owned by the tree, fixed size
  Hook on_change_;

  StateSlot slot_;  ///< the authoritative root copy (never armed)
  std::uint64_t next_seq_ = 1;
  std::uint64_t trigger_seq_ = 0;
  sim::TimerId refresh_timer_;
};

/// A relay node (any non-root node of the tree).  Holds state, forwards
/// signaling down its child edges; a leaf (no children) is a receiver.
class TreeRelay {
 public:
  /// `up` sends toward the parent; `children[c]` is child edge c (none
  /// for a leaf).  The span's order defines the child indices used by
  /// handle_from_downstream.  `reliable_up` sends the HS recovery notices
  /// toward the parent; only the external failure detector sends them, so
  /// it may be null when ctx.mech has none.  `ctx`, `rng`, `up`, the child
  /// edges and `reliable_up` must outlive the node; `on_change` fires on
  /// every local state change.
  TreeRelay(const NodeContext& ctx, sim::Rng& rng, MessageChannel* up,
            std::span<ChildEdge> children, ReliableSlot* reliable_up,
            Hook on_change = {}) noexcept
      : ctx_(&ctx),
        up_(up),
        children_(children),
        on_change_(on_change),
        reliable_up_(reliable_up),
        slot_(ctx, rng, Hook::bind<&TreeRelay::on_expire>(this)) {}

  TreeRelay(const TreeRelay&) = delete;             ///< non-copyable
  TreeRelay& operator=(const TreeRelay&) = delete;  ///< non-copyable

  /// Message arriving from the parent (triggers, refreshes, removals,
  /// teardowns).
  void handle_from_upstream(const Message& msg);

  /// Message arriving from child `child` (ACKs, notices).
  void handle_from_downstream(const Message& msg, std::size_t child = 0) {
    handle_from_child(msg, children_[child]);
  }

  /// Message arriving up `edge`, one of this node's child edges.
  void handle_from_child(const Message& msg, ChildEdge& edge);

  /// HS external failure detector fired (falsely) at this node: remove
  /// state, notify upstream (toward the sender; only with a reliable
  /// upstream slot) and tear down every branch below.
  void external_removal_signal();

  /// Re-activates child edge `c` and re-installs the locally cached value
  /// down it if one is held (see TreeSender::graft_child).
  void graft_child(std::size_t c);

  /// Deactivates child edge `c` with the protocol's removal semantics
  /// (see TreeSender::prune_child).
  void prune_child(std::size_t c);

  /// Deactivates child edge `c` silently (see TreeSender::deactivate_child).
  void deactivate_child(std::size_t c);

  /// True when signaling flows down child edge `c`.
  [[nodiscard]] bool child_active(std::size_t c) const {
    return children_[c].active;
  }

  /// Silently ends the session (see TreeSender::stop).
  void stop();

  /// Crashes the relay: the held copy and every pending timer vanish
  /// silently (a dead process signals nothing) and the node goes deaf --
  /// every arriving message is dropped until recover().  The parent keeps
  /// the edge active and keeps refreshing/retransmitting into the void;
  /// after recover() the next refresh (soft state), pending reliable
  /// retransmission, or an explicit re-graft (the HS detector path)
  /// re-installs state.
  void crash();

  /// Ends a crash: the relay processes messages again.  It holds no state
  /// until the upstream re-installs one.
  void recover();

  /// True while the relay is crashed (deaf and stateless).
  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  /// The held state value (nullopt when no state is installed).
  [[nodiscard]] std::optional<std::int64_t> value() const noexcept {
    return slot_.value();
  }
  /// Number of soft-state timeout expirations at this relay.
  [[nodiscard]] std::uint64_t timeouts() const noexcept {
    return slot_.timeouts();
  }
  /// Number of child edges (0 = this relay is a receiver).
  [[nodiscard]] std::size_t fanout() const noexcept { return children_.size(); }

 private:
  void on_expire();
  void forward_trigger(std::int64_t value);
  void forward_trigger_to(ChildEdge& edge, std::int64_t value);
  void send_removal_to(ChildEdge& edge, std::uint64_t seq);
  void forward_removal();
  void flood_teardown();

  const NodeContext* ctx_;
  MessageChannel* up_;
  std::span<ChildEdge> children_;  ///< owned by the tree; empty for a leaf
  Hook on_change_;
  ReliableSlot* reliable_up_;  ///< HS notices toward the parent (may be null)

  StateSlot slot_;  ///< the held copy plus its soft-state timeout
  std::uint64_t next_seq_ = 1;
  std::uint64_t removal_seq_seen_ = 0;  ///< dedup of retransmitted removals
  bool removal_seen_ = false;
  bool crashed_ = false;  ///< deaf and stateless between crash()/recover()
};

/// Chain names for the same nodes: a chain is the fan-out-1 tree.
using ChainSender = TreeSender;
using ChainRelay = TreeRelay;

// Layout pins: a tree session holds one sender, one relay per edge and one
// ChildEdge per edge, so these bytes multiply by the edge count of every
// tree in a farm.  Nodes see their child edges as a span into the tree's
// flat storage instead of owning per-child vectors, and a relay's upstream
// reliable slot lives there too, only for protocols that use it.
static_assert(sizeof(ChildEdge) <= 96, "a child edge is a slot plus flags");
static_assert(sizeof(TreeSender) <= 136, "the sender owns no per-child storage");
static_assert(sizeof(TreeRelay) <= 144,
              "a relay owns no per-child or HS-only storage");

}  // namespace sigcomp::protocols

// A fully wired signaling tree: the sender at the root, relays at interior
// nodes, receivers at the leaves, with per-edge bidirectional channels,
// sinks connected, and optional per-edge tracing.  Built in one place,
// protocols::TreeSession (tree_run.hpp), which both the tree harness
// (which also runs chains as the fan-out-1 special case) and the session
// farm drive, so topology and wiring can never drift between them.
//
// What every tree of a run shares -- the spec, its derived child lists,
// leaf sets and root paths, the per-edge channel configurations and the
// nodes' NodeContext -- lives in one immutable TreePlan, built once per
// farm shard (or per run_tree call).  A Topology keeps a pointer to it and
// only its own mutable state: the sender, relays, child edges and channels
// in one contiguous block, plus the membership counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/protocol.hpp"
#include "core/topology.hpp"
#include "protocols/engine.hpp"
#include "protocols/multi_hop_node.hpp"
#include "sim/channel_process.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace sigcomp::analytic {
struct TreeParams;
}  // namespace sigcomp::analytic

namespace sigcomp::protocols {

/// The immutable part of a tree, shared by every Topology built over it:
/// the spec and what routing derives from it, one validated
/// sim::ChannelConfig per edge (an edge's two directions share its loss and
/// delay configuration), and the NodeContext (simulator, mechanisms,
/// timers) every node points at.  Must outlive those topologies; it never
/// moves.
///
/// Child slots: node n's child edges, in increasing edge order, occupy the
/// slots [child_begin(n), child_begin(n) + fanout(n)) of one CSR array --
/// the order a Topology stores its ChildEdges in.
class TreePlan {
 public:
  /// `edge_loss` and `edge_delay` must have exactly spec.edges() entries
  /// (and the spec at least one edge).  Throws std::invalid_argument on an
  /// invalid spec, mismatched vectors or an invalid channel configuration.
  TreePlan(sim::Simulator& sim, MechanismSet mech, const TimerSettings& timers,
           const TreeSpec& spec, const std::vector<sim::LossConfig>& edge_loss,
           const std::vector<sim::DelayConfig>& edge_delay);

  /// The plan of `params`' tree (which must be valid) running protocol
  /// `kind`: timers drawn from `timer_dist`, edge e's channels with loss
  /// params.edge_loss_config(e) and a `delay_model` delay of mean
  /// params.delay[e] (shape `delay_shape`).
  TreePlan(sim::Simulator& sim, ProtocolKind kind,
           const analytic::TreeParams& params, sim::Distribution timer_dist,
           sim::DelayModel delay_model, double delay_shape);

  TreePlan(const TreePlan&) = delete;             ///< topologies point at it
  TreePlan& operator=(const TreePlan&) = delete;  ///< non-copyable

  /// The tree.
  [[nodiscard]] const TreeSpec& spec() const noexcept { return spec_; }
  /// What every node shares: simulator, mechanisms, timers.
  [[nodiscard]] const NodeContext& node() const noexcept { return node_; }
  /// Tree nodes (edges + 1).
  [[nodiscard]] std::size_t nodes() const noexcept { return spec_.nodes(); }
  /// Tree edges (== relays).
  [[nodiscard]] std::size_t edges() const noexcept { return spec_.edges(); }
  /// Parent node of edge e.
  [[nodiscard]] std::size_t parent(std::size_t e) const {
    return spec_.parent[e];
  }
  /// Edge e's channel configuration (both directions).
  [[nodiscard]] const sim::ChannelConfig& edge_config(std::size_t e) const {
    return edge_config_[e];
  }
  /// First child slot of node n.
  [[nodiscard]] std::size_t child_begin(std::size_t n) const {
    return child_begin_[n];
  }
  /// Number of child edges of node n.
  [[nodiscard]] std::size_t fanout(std::size_t n) const {
    return child_begin_[n + 1] - child_begin_[n];
  }
  /// Edge e's position within its parent's child list (the child index
  /// the parent's graft/prune calls take).
  [[nodiscard]] std::size_t child_index(std::size_t e) const {
    return child_index_[e];
  }
  /// Edge e's child slot: child_begin(parent(e)) + child_index(e).
  [[nodiscard]] std::size_t child_slot(std::size_t e) const {
    return child_begin_[parent(e)] + child_index_[e];
  }
  /// True when node n is a leaf (a receiver); false for the root and for
  /// ids past the last node.
  [[nodiscard]] bool is_leaf(std::size_t n) const noexcept {
    return n < is_leaf_.size() && is_leaf_[n] != 0;
  }
  /// Leaf node ids, in increasing order.
  [[nodiscard]] std::span<const std::size_t> leaves() const noexcept {
    return leaves_;
  }
  /// Edge ids on the root -> `leaf` path, root first (TreeSpec::path_edges
  /// of a leaf, precomputed).  `leaf` must be a leaf.
  [[nodiscard]] std::span<const std::size_t> leaf_path(std::size_t leaf) const;

 private:
  TreeSpec spec_;
  NodeContext node_;
  std::vector<sim::ChannelConfig> edge_config_;  ///< by edge
  std::vector<std::size_t> child_begin_;  ///< by node, plus one end entry
  std::vector<std::size_t> child_index_;  ///< by edge
  std::vector<char> is_leaf_;             ///< by node
  std::vector<std::size_t> leaves_;       ///< increasing node ids
  /// Node n's root path is path_edges_[path_begin_[n], path_begin_[n + 1])
  /// for a leaf, empty otherwise.
  std::vector<std::size_t> path_begin_;
  std::vector<std::size_t> path_edges_;
};

/// Owns one tree's nodes and channels over a shared TreePlan, plus the
/// change hook and the channels' trace bindings.  Storage is one block per
/// topology: the sender, E relays, E child edges (in the plan's child-slot
/// order), the relays' E upstream reliable slots (HS only: no other
/// protocol signals reliably toward the root) and 2E channels, followed by
/// the per-node membership counters.
/// Channel trace labels are "dn<e>" (away from the root) and "up<e>"
/// (toward the root) -- on a chain spec these coincide with the historical
/// per-hop labels.
class Topology {
 public:
  /// Compact topology over a shared plan: `plan`, `channel_rng` and
  /// `node_rng` must outlive it.  `on_change` fires on every node state
  /// change; `trace` (may be null) records every channel's events.
  Topology(const TreePlan& plan, sim::Rng& channel_rng, sim::Rng& node_rng,
           Hook on_change, sim::TraceLog* trace = nullptr);

  /// Self-contained topology: builds (and owns) a private TreePlan --
  /// `edge_loss` and `edge_delay` must have exactly spec.edges() entries
  /// (and the spec at least one edge) -- and keeps `on_change` out of line.
  /// Both `channel_rng` and `node_rng` must outlive the topology.  Throws
  /// std::invalid_argument on an invalid spec or mismatched vectors.
  Topology(sim::Simulator& sim, sim::Rng& channel_rng, sim::Rng& node_rng,
           MechanismSet mech, const TimerSettings& timers,
           const TreeSpec& spec,
           const std::vector<sim::LossConfig>& edge_loss,
           const std::vector<sim::DelayConfig>& edge_delay,
           std::function<void()> on_change, sim::TraceLog* trace = nullptr);

  ~Topology();

  Topology(const Topology&) = delete;             ///< non-copyable
  Topology& operator=(const Topology&) = delete;  ///< non-copyable

  /// The shared plan this tree runs on.
  [[nodiscard]] const TreePlan& plan() const noexcept { return *plan_; }
  /// The tree being simulated.
  [[nodiscard]] const TreeSpec& spec() const noexcept { return plan_->spec(); }
  /// Non-root nodes (== edges).
  [[nodiscard]] std::size_t relays() const noexcept { return plan_->edges(); }
  /// The root node.
  [[nodiscard]] TreeSender& sender() noexcept { return *sender_; }
  /// The root node (const).
  [[nodiscard]] const TreeSender& sender() const noexcept { return *sender_; }
  /// Relay i holds tree node i+1 (edge i's child endpoint).
  [[nodiscard]] TreeRelay& relay(std::size_t i) { return relays_[i]; }
  /// Relay i (const).
  [[nodiscard]] const TreeRelay& relay(std::size_t i) const {
    return relays_[i];
  }

  // --- Dynamic leaf membership (IGMP-style churn) ---------------------
  //
  // Every leaf starts joined (the static tree).  join()/leave() maintain
  // per-subtree active-leaf counts: an edge is active while its subtree
  // contains at least one joined leaf, and the nodes' per-child activity
  // flags mirror that.  A join grafts: every newly activated edge has its
  // parent re-install whatever copy it still caches (state flows down the
  // path only where missing).  A leave prunes: the deeper dead edges are
  // deactivated silently and the prune point applies the protocol's own
  // removal semantics (nothing for timeout-pruned soft state, a
  // best-effort or reliable removal otherwise).  Neither allocates: the
  // edges they report are a view of the leaf's root path in the plan.

  /// Outcome of a join: the edges that switched from inactive to active,
  /// in root-to-leaf order (empty when the path was already live) -- the
  /// tail of the leaf's root path.
  struct GraftResult {
    std::span<const std::size_t> activated_edges;  ///< newly active, shallow first
  };

  /// Outcome of a leave: the edges that switched to inactive, in
  /// root-to-leaf order -- the tail of the leaf's root path.  Never empty
  /// (the leaf's own edge always dies); the first entry is the prune
  /// point, where removal is signaled.
  struct PruneResult {
    std::span<const std::size_t> pruned_edges;  ///< newly inactive, shallow first
    /// The shallowest pruned edge (== pruned_edges.front()).
    [[nodiscard]] std::size_t prune_edge() const { return pruned_edges.front(); }
  };

  /// Joins leaf node `leaf` and grafts state down the reactivated path
  /// segment.  Throws std::invalid_argument when `leaf` is not a leaf or is
  /// already joined.
  GraftResult join(std::size_t leaf);

  /// Leaf node `leaf` departs; dead edges are pruned (see above).  Throws
  /// std::invalid_argument when `leaf` is not a joined leaf.
  PruneResult leave(std::size_t leaf);

  /// True while leaf node `leaf` is joined.  Throws std::invalid_argument
  /// when `leaf` is not a leaf.
  [[nodiscard]] bool leaf_active(std::size_t leaf) const;

  /// Number of currently joined leaves.
  [[nodiscard]] std::size_t active_leaf_count() const noexcept {
    return active_leaves_;
  }

  /// Re-installs edge e's parent-side cached copy down the edge (the
  /// crash-recovery repair path: after relay e recovers, its parent
  /// re-sends whatever value it still holds, reliably when the protocol's
  /// triggers are reliable).  A no-op when the parent holds no copy.
  void regraft_edge(std::size_t e) { graft_edge(e); }

  /// True when `node` should hold state: it lies on the path to some joined
  /// leaf (or is one).  The root is always required.  Detached nodes whose
  /// copy lingers are the orphan window the churn metrics measure.
  [[nodiscard]] bool node_required(std::size_t node) const {
    return node == 0 || active_below_[node] > 0;
  }

  /// Messages handed to edge e's channels (both directions).
  [[nodiscard]] std::uint64_t edge_messages_sent(std::size_t e) const noexcept;

  /// Messages handed to all channels of the tree.
  [[nodiscard]] std::uint64_t messages_sent() const noexcept;

  /// Soft-state timeout expirations summed across relays.
  [[nodiscard]] std::uint64_t relay_timeouts() const noexcept;

  /// Silently tears the whole tree down (TreeSender/TreeRelay::stop):
  /// state cleared, timers cancelled, nothing signaled.
  void stop();

 private:
  /// What only a self-contained or traced topology owns: the private plan,
  /// the std::function change hook, the channel trace bindings.
  struct Extras;

  Topology(std::unique_ptr<Extras> extras, sim::Rng& channel_rng,
           sim::Rng& node_rng, sim::TraceLog* trace);

  /// Allocates the block and constructs, wires and traces every node and
  /// channel in it.
  void build(sim::Rng& channel_rng, sim::Rng& node_rng, sim::TraceLog* trace);

  /// Routes graft/prune/deactivate calls to edge e's parent node (the
  /// sender for root children, a relay otherwise).
  void graft_edge(std::size_t e);
  void prune_edge_at(std::size_t e);
  void deactivate_edge(std::size_t e);

  /// Relays' upstream reliable slots: one per edge under HS, whose failure
  /// detector is the only sender of reliable notices toward the root.
  [[nodiscard]] std::size_t up_slot_count() const noexcept {
    return plan_->node().mech.external_failure_detector ? plan_->edges() : 0;
  }

  /// Edge e's channels: down (parent -> child) and up (child -> parent).
  [[nodiscard]] MessageChannel& down(std::size_t e) { return channels_[2 * e]; }
  [[nodiscard]] MessageChannel& up(std::size_t e) {
    return channels_[2 * e + 1];
  }

  const TreePlan* plan_;
  std::unique_ptr<Extras> extras_;  ///< null for a compact, untraced tree
  Hook on_change_;
  std::unique_ptr<std::byte[]> block_;  ///< everything below points into it
  TreeSender* sender_ = nullptr;
  TreeRelay* relays_ = nullptr;           ///< by edge
  ChildEdge* child_edges_ = nullptr;      ///< by child slot
  ReliableSlot* reliable_up_ = nullptr;   ///< by edge; see up_slot_count
  MessageChannel* channels_ = nullptr;    ///< 2e: down, 2e + 1: up
  std::uint32_t* active_below_ = nullptr;  ///< by node: joined leaves below
  char* leaf_joined_ = nullptr;  ///< by node; nonzero for joined leaves
  std::size_t active_leaves_ = 0;
};

}  // namespace sigcomp::protocols

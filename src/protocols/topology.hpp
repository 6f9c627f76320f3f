// A fully wired signaling tree: the sender at the root, relays at interior
// nodes, receivers at the leaves, with per-edge bidirectional channels,
// sinks connected, and optional per-edge tracing.  One builder shared by
// the tree harness (protocols/tree_run.cpp, which also runs chains as the
// fan-out-1 special case) and the session farm (exp/session_farm.cpp), so
// topology and wiring can never drift between them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/protocol.hpp"
#include "core/topology.hpp"
#include "protocols/engine.hpp"
#include "protocols/multi_hop_node.hpp"
#include "sim/channel_process.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace sigcomp::protocols {

/// Owns the tree's nodes and channels.  Edge e's two directions share the
/// link's loss and delay configuration; channel trace labels are "dn<e>"
/// (away from the root) and "up<e>" (toward the root) -- on a chain spec
/// these coincide with the historical per-hop labels.
class Topology {
 public:
  /// `edge_loss` and `edge_delay` must have exactly spec.edges() entries
  /// (and the spec at least one edge).  Both `channel_rng` and `node_rng`
  /// must outlive the topology.  Throws std::invalid_argument on an
  /// invalid spec or mismatched vectors.
  Topology(sim::Simulator& sim, sim::Rng& channel_rng, sim::Rng& node_rng,
           MechanismSet mech, const TimerSettings& timers,
           const TreeSpec& spec,
           const std::vector<sim::LossConfig>& edge_loss,
           const std::vector<sim::DelayConfig>& edge_delay,
           std::function<void()> on_change, sim::TraceLog* trace = nullptr);

  Topology(const Topology&) = delete;             ///< non-copyable
  Topology& operator=(const Topology&) = delete;  ///< non-copyable

  /// The tree being simulated.
  [[nodiscard]] const TreeSpec& spec() const noexcept { return spec_; }
  /// Non-root nodes (== edges).
  [[nodiscard]] std::size_t relays() const noexcept { return relays_.size(); }
  /// The root node.
  [[nodiscard]] TreeSender& sender() noexcept { return *sender_; }
  /// The root node (const).
  [[nodiscard]] const TreeSender& sender() const noexcept { return *sender_; }
  /// Relay i holds tree node i+1 (edge i's child endpoint).
  [[nodiscard]] TreeRelay& relay(std::size_t i) { return *relays_[i]; }
  /// Relay i (const).
  [[nodiscard]] const TreeRelay& relay(std::size_t i) const {
    return *relays_[i];
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
  // best-effort or reliable removal otherwise).

  /// Outcome of a join: the edges that switched from inactive to active,
  /// in root-to-leaf order (empty when the path was already live).
  struct GraftResult {
    std::vector<std::size_t> activated_edges;  ///< newly active, shallow first
  };

  /// Outcome of a leave: the edges that switched to inactive, in
  /// root-to-leaf order.  Never empty (the leaf's own edge always dies);
  /// the first entry is the prune point, where removal is signaled.
  struct PruneResult {
    std::vector<std::size_t> pruned_edges;  ///< newly inactive, shallow first
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
  /// Routes graft/prune/deactivate calls to edge e's parent node (the
  /// sender for root children, a relay otherwise).
  void graft_edge(std::size_t e);
  void prune_edge_at(std::size_t e);
  void deactivate_edge(std::size_t e);

  TreeSpec spec_;
  std::vector<std::unique_ptr<MessageChannel>> down_;  ///< e: parent -> child
  std::vector<std::unique_ptr<MessageChannel>> up_;    ///< e: child -> parent
  std::unique_ptr<TreeSender> sender_;
  std::vector<std::unique_ptr<TreeRelay>> relays_;
  std::vector<std::size_t> child_index_;   ///< e's slot in its parent's list
  std::vector<std::size_t> active_below_;  ///< joined leaves per subtree
  std::vector<char> leaf_joined_;          ///< per node; nonzero for joined leaves
  std::size_t active_leaves_ = 0;
};

}  // namespace sigcomp::protocols

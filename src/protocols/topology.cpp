#include "protocols/topology.hpp"

#include <algorithm>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "analytic/tree_paths.hpp"

namespace sigcomp::protocols {

// -------------------------------------------------------------- TreePlan --

TreePlan::TreePlan(sim::Simulator& sim, MechanismSet mech,
                   const TimerSettings& timers, const TreeSpec& spec,
                   const std::vector<sim::LossConfig>& edge_loss,
                   const std::vector<sim::DelayConfig>& edge_delay)
    : spec_(spec), node_{&sim, mech, timers} {
  spec_.validate();
  const std::size_t e_count = spec_.edges();
  if (e_count == 0) {
    throw std::invalid_argument("Topology: the tree needs at least one edge");
  }
  if (edge_loss.size() != e_count || edge_delay.size() != e_count) {
    throw std::invalid_argument(
        "Topology: need one loss and one delay config per edge");
  }
  edge_config_.reserve(e_count);
  for (std::size_t e = 0; e < e_count; ++e) {
    edge_config_.emplace_back(sim, edge_loss[e], edge_delay[e]);
  }

  // Child slots, CSR style: count each node's children, prefix-sum, then
  // hand out positions in edge order.  child_index_[e] is the routing
  // index e's parent uses for ACKs and notices arriving up e, and the
  // per-child index graft/prune calls target.
  const std::size_t n_count = spec_.nodes();
  child_begin_.assign(n_count + 1, 0);
  for (const std::size_t p : spec_.parent) ++child_begin_[p + 1];
  for (std::size_t n = 0; n < n_count; ++n) {
    child_begin_[n + 1] += child_begin_[n];
  }
  std::vector<std::size_t> seen(n_count, 0);
  child_index_.resize(e_count);
  for (std::size_t e = 0; e < e_count; ++e) {
    child_index_[e] = seen[spec_.parent[e]]++;
  }

  // Leaves and their root paths.  Parents precede children (the TreeSpec
  // invariant), so depths accumulate in one forward pass.
  is_leaf_.assign(n_count, 0);
  std::vector<std::size_t> depth(n_count, 0);
  path_begin_.assign(n_count + 1, 0);
  for (std::size_t n = 1; n < n_count; ++n) {
    depth[n] = depth[spec_.parent[n - 1]] + 1;
    const bool leaf = fanout(n) == 0;
    if (leaf) {
      is_leaf_[n] = 1;
      leaves_.push_back(n);
    }
    path_begin_[n + 1] = path_begin_[n] + (leaf ? depth[n] : 0);
  }
  path_edges_.resize(path_begin_[n_count]);
  for (const std::size_t leaf : leaves_) {
    std::size_t at = path_begin_[leaf + 1];
    for (std::size_t n = leaf; n != 0; n = spec_.parent[n - 1]) {
      path_edges_[--at] = n - 1;
    }
  }
}

namespace {

std::vector<sim::LossConfig> edge_losses(const analytic::TreeParams& params) {
  std::vector<sim::LossConfig> out;
  out.reserve(params.edges());
  for (std::size_t e = 0; e < params.edges(); ++e) {
    out.push_back(params.edge_loss_config(e));
  }
  return out;
}

std::vector<sim::DelayConfig> edge_delays(const analytic::TreeParams& params,
                                          sim::DelayModel model,
                                          double shape) {
  std::vector<sim::DelayConfig> out;
  out.reserve(params.edges());
  for (std::size_t e = 0; e < params.edges(); ++e) {
    out.push_back(sim::DelayConfig{model, params.delay[e], shape});
  }
  return out;
}

}  // namespace

TreePlan::TreePlan(sim::Simulator& sim, ProtocolKind kind,
                   const analytic::TreeParams& params,
                   sim::Distribution timer_dist, sim::DelayModel delay_model,
                   double delay_shape)
    : TreePlan(sim, mechanisms(kind),
               TimerSettings{timer_dist, params.refresh_timer,
                             params.timeout_timer, params.retrans_timer},
               params.tree, edge_losses(params),
               edge_delays(params, delay_model, delay_shape)) {}

std::span<const std::size_t> TreePlan::leaf_path(std::size_t leaf) const {
  return {path_edges_.data() + path_begin_[leaf],
          path_begin_[leaf + 1] - path_begin_[leaf]};
}

// -------------------------------------------------------------- Topology --

struct Topology::Extras {
  std::optional<TreePlan> plan;    ///< self-contained topologies only
  std::function<void()> on_change;  ///< self-contained topologies only
  /// Trace bindings, "dn<e>" at 2e and "up<e>" at 2e + 1 (empty untraced).
  std::vector<sim::ChannelTrace<Message>> traces;
};

namespace {

/// Where one array of the block starts: `offset` rounded up to T's
/// alignment; advances `offset` past `count` elements.
template <typename T>
std::size_t place(std::size_t& offset, std::size_t count) {
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  offset = (offset + alignof(T) - 1) / alignof(T) * alignof(T);
  const std::size_t at = offset;
  offset += count * sizeof(T);
  return at;
}

/// The storage for T objects at `offset` of the block.
template <typename T>
T* at(std::byte* block, std::size_t offset) {
  return reinterpret_cast<T*>(block + offset);
}

}  // namespace

Topology::Topology(const TreePlan& plan, sim::Rng& channel_rng,
                   sim::Rng& node_rng, Hook on_change, sim::TraceLog* trace)
    : plan_(&plan), on_change_(on_change) {
  build(channel_rng, node_rng, trace);
}

Topology::Topology(sim::Simulator& sim, sim::Rng& channel_rng,
                   sim::Rng& node_rng, MechanismSet mech,
                   const TimerSettings& timers, const TreeSpec& spec,
                   const std::vector<sim::LossConfig>& edge_loss,
                   const std::vector<sim::DelayConfig>& edge_delay,
                   std::function<void()> on_change, sim::TraceLog* trace)
    : Topology(
          [&] {
            auto extras = std::make_unique<Extras>();
            extras->plan.emplace(sim, mech, timers, spec, edge_loss,
                                 edge_delay);
            extras->on_change = std::move(on_change);
            return extras;
          }(),
          channel_rng, node_rng, trace) {}

Topology::Topology(std::unique_ptr<Extras> extras, sim::Rng& channel_rng,
                   sim::Rng& node_rng, sim::TraceLog* trace)
    : plan_(&*extras->plan),
      extras_(std::move(extras)),
      on_change_(extras_->on_change ? Hook::to(&extras_->on_change)
                                    : Hook{}) {
  build(channel_rng, node_rng, trace);
}

void Topology::build(sim::Rng& channel_rng, sim::Rng& node_rng,
                     sim::TraceLog* trace) {
  const TreePlan& plan = *plan_;
  const std::size_t e_count = plan.edges();
  const std::size_t n_count = plan.nodes();

  // Trace bindings first: they are the only step that can throw, and
  // nothing in the block may exist yet if one does.
  if (trace != nullptr) {
    if (!extras_) extras_ = std::make_unique<Extras>();
    const auto describe = [](const Message& m) {
      return std::string(to_string(m.type));
    };
    extras_->traces.reserve(2 * e_count);
    for (std::size_t e = 0; e < e_count; ++e) {
      extras_->traces.push_back({trace, "dn" + std::to_string(e), describe});
      extras_->traces.push_back({trace, "up" + std::to_string(e), describe});
    }
  }

  const std::size_t up_slots = up_slot_count();
  std::size_t bytes = 0;
  const std::size_t sender_at = place<TreeSender>(bytes, 1);
  const std::size_t relays_at = place<TreeRelay>(bytes, e_count);
  const std::size_t edges_at = place<ChildEdge>(bytes, e_count);
  const std::size_t up_slots_at = place<ReliableSlot>(bytes, up_slots);
  const std::size_t channels_at = place<MessageChannel>(bytes, 2 * e_count);
  const std::size_t below_at = place<std::uint32_t>(bytes, n_count);
  const std::size_t joined_at = place<char>(bytes, n_count);
  block_ = std::make_unique_for_overwrite<std::byte[]>(bytes);
  std::byte* block = block_.get();

  // Channels first (nodes keep pointers to them), then the child edges in
  // child-slot order, then the nodes; sinks are wired last.  None of these
  // constructors draws randomness or throws.  Edge order matches the
  // chain builder's hop order, so a fan-out-1 spec produces the identical
  // trace-label sequence.
  channels_ = at<MessageChannel>(block, channels_at);
  for (std::size_t e = 0; e < e_count; ++e) {
    ::new (&down(e)) MessageChannel(plan.edge_config(e), channel_rng);
    ::new (&up(e)) MessageChannel(plan.edge_config(e), channel_rng);
    if (trace != nullptr) {
      down(e).set_trace(&extras_->traces[2 * e]);
      up(e).set_trace(&extras_->traces[2 * e + 1]);
    }
  }
  child_edges_ = at<ChildEdge>(block, edges_at);
  for (std::size_t e = 0; e < e_count; ++e) {
    ::new (&child_edges_[plan.child_slot(e)])
        ChildEdge(plan.node(), node_rng, down(e));
  }
  reliable_up_ = at<ReliableSlot>(block, up_slots_at);
  for (std::size_t e = 0; e < up_slots; ++e) {
    ::new (&reliable_up_[e]) ReliableSlot(plan.node(), node_rng, &up(e));
  }
  const auto children = [&](std::size_t node) {
    return std::span<ChildEdge>(child_edges_ + plan.child_begin(node),
                                plan.fanout(node));
  };
  sender_ = ::new (at<TreeSender>(block, sender_at))
      TreeSender(plan.node(), node_rng, children(0), on_change_);
  relays_ = at<TreeRelay>(block, relays_at);
  for (std::size_t e = 0; e < e_count; ++e) {
    ::new (&relays_[e])
        TreeRelay(plan.node(), node_rng, &up(e), children(e + 1),
                  up_slots == 0 ? nullptr : &reliable_up_[e], on_change_);
  }

  // Edge e's down channel feeds relay e; its up channel feeds the
  // parent's ChildEdge for e, which hands each message to the parent as
  // arriving from that child.
  for (std::size_t e = 0; e < e_count; ++e) {
    down(e).set_sink(
        MessageChannel::Delivery::bind<&TreeRelay::handle_from_upstream>(
            &relays_[e]));
    ChildEdge& edge = child_edges_[plan.child_slot(e)];
    const std::size_t parent = plan.parent(e);
    if (parent == 0) {
      edge.parent = sender_;
      up(e).set_sink(MessageChannel::Delivery::bind<
                     &ChildEdge::deliver_up<TreeSender>>(&edge));
    } else {
      edge.parent = &relays_[parent - 1];
      up(e).set_sink(MessageChannel::Delivery::bind<
                     &ChildEdge::deliver_up<TreeRelay>>(&edge));
    }
  }

  // Membership bookkeeping: every leaf starts joined, so active_below_[n]
  // is node n's subtree leaf count.  Children have larger ids than their
  // parent (the TreeSpec invariant), so one reverse pass accumulates.
  active_below_ = at<std::uint32_t>(block, below_at);
  leaf_joined_ = at<char>(block, joined_at);
  std::fill_n(active_below_, n_count, 0u);
  std::fill_n(leaf_joined_, n_count, char{0});
  for (std::size_t n = n_count; n-- > 1;) {
    if (plan.is_leaf(n)) {
      leaf_joined_[n] = 1;
      ++active_below_[n];
      ++active_leaves_;
    }
    active_below_[plan.parent(n - 1)] += active_below_[n];
  }
}

Topology::~Topology() {
  const std::size_t e_count = plan_->edges();
  std::destroy_n(relays_, e_count);
  std::destroy_at(sender_);
  std::destroy_n(reliable_up_, up_slot_count());
  std::destroy_n(child_edges_, e_count);
  std::destroy_n(channels_, 2 * e_count);
}

void Topology::graft_edge(std::size_t e) {
  const std::size_t parent = plan_->parent(e);
  if (parent == 0) {
    sender_->graft_child(plan_->child_index(e));
  } else {
    relays_[parent - 1].graft_child(plan_->child_index(e));
  }
}

void Topology::prune_edge_at(std::size_t e) {
  const std::size_t parent = plan_->parent(e);
  if (parent == 0) {
    sender_->prune_child(plan_->child_index(e));
  } else {
    relays_[parent - 1].prune_child(plan_->child_index(e));
  }
}

void Topology::deactivate_edge(std::size_t e) {
  const std::size_t parent = plan_->parent(e);
  if (parent == 0) {
    sender_->deactivate_child(plan_->child_index(e));
  } else {
    relays_[parent - 1].deactivate_child(plan_->child_index(e));
  }
}

bool Topology::leaf_active(std::size_t leaf) const {
  if (!plan_->is_leaf(leaf)) {
    throw std::invalid_argument("Topology::leaf_active: node " +
                                std::to_string(leaf) + " is not a leaf");
  }
  return leaf_joined_[leaf] != 0;
}

// Subtree leaf counts never grow going down a root path (a child's subtree
// is part of its parent's), so the edges whose count is zero always form
// the path's tail: join activates, and leave prunes, exactly that tail.

Topology::GraftResult Topology::join(std::size_t leaf) {
  if (leaf_active(leaf)) {
    throw std::invalid_argument("Topology::join: leaf " +
                                std::to_string(leaf) + " is already joined");
  }
  leaf_joined_[leaf] = 1;
  ++active_leaves_;
  const std::span<const std::size_t> path = plan_->leaf_path(leaf);
  std::size_t first = path.size();
  for (std::size_t i = path.size(); i-- > 0;) {
    if (++active_below_[path[i] + 1] == 1) first = i;
  }
  const GraftResult out{path.subspan(first)};
  // Graft shallow-to-deep: every reactivated edge re-installs from its
  // parent's cached copy where one exists, so the deepest surviving state
  // along the path seeds the branch without waiting for a refresh.
  for (const std::size_t e : out.activated_edges) graft_edge(e);
  return out;
}

Topology::PruneResult Topology::leave(std::size_t leaf) {
  if (!leaf_active(leaf)) {
    throw std::invalid_argument("Topology::leave: leaf " +
                                std::to_string(leaf) + " is not joined");
  }
  leaf_joined_[leaf] = 0;
  --active_leaves_;
  const std::span<const std::size_t> path = plan_->leaf_path(leaf);
  std::size_t first = path.size();
  for (std::size_t i = path.size(); i-- > 0;) {
    if (--active_below_[path[i] + 1] == 0) first = i;
  }
  const PruneResult out{path.subspan(first)};
  // The dead edges form the path's tail; deactivate the deeper ones
  // silently first, then signal removal (if the protocol has one) at the
  // prune point -- the removal propagates down the subtree by itself.
  for (std::size_t i = out.pruned_edges.size(); i-- > 1;) {
    deactivate_edge(out.pruned_edges[i]);
  }
  prune_edge_at(out.prune_edge());
  return out;
}

std::uint64_t Topology::edge_messages_sent(std::size_t e) const noexcept {
  return channels_[2 * e].counters().sent + channels_[2 * e + 1].counters().sent;
}

std::uint64_t Topology::messages_sent() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t e = 0; e < plan_->edges(); ++e) {
    total += edge_messages_sent(e);
  }
  return total;
}

std::uint64_t Topology::relay_timeouts() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t e = 0; e < plan_->edges(); ++e) {
    total += relays_[e].timeouts();
  }
  return total;
}

void Topology::stop() {
  sender_->stop();
  for (std::size_t e = 0; e < plan_->edges(); ++e) relays_[e].stop();
}

}  // namespace sigcomp::protocols

#include "analytic/tree_paths.hpp"

#include <stdexcept>
#include <utility>

namespace sigcomp::analytic {

namespace {

TreeParams from_base(const MultiHopParams& base, TreeSpec spec) {
  base.validate();
  TreeParams out;
  out.loss.assign(spec.edges(), base.loss);
  out.delay.assign(spec.edges(), base.delay);
  if (base.loss_model != sim::LossModel::kIid) {
    out.loss_process.assign(spec.edges(), base.loss_config());
  }
  out.tree = std::move(spec);
  out.update_rate = base.update_rate;
  out.refresh_timer = base.refresh_timer;
  out.timeout_timer = base.timeout_timer;
  out.retrans_timer = base.retrans_timer;
  out.false_signal_rate = base.false_signal_rate;
  return out;
}

}  // namespace

TreeParams TreeParams::balanced(const MultiHopParams& base, std::size_t fanout,
                                std::size_t depth, std::size_t receivers) {
  return from_base(base, TreeSpec::balanced(fanout, depth, receivers));
}

TreeParams TreeParams::chain(const MultiHopParams& base) {
  return from_base(base, TreeSpec::chain(base.hops));
}

TreeParams TreeParams::uniform(const MultiHopParams& base, TreeSpec spec) {
  return from_base(base, std::move(spec));
}

sim::LossConfig TreeParams::edge_loss_config(std::size_t e) const {
  if (e >= edges()) {
    throw std::out_of_range("TreeParams::edge_loss_config");
  }
  if (loss_process.empty()) return sim::LossConfig::iid(loss[e]);
  return loss_process[e];
}

void TreeParams::set_edge_bursty(std::size_t e, double burst_length,
                                 double loss_bad) {
  if (e >= edges()) {
    throw std::out_of_range("TreeParams::set_edge_bursty");
  }
  if (loss_process.empty()) {
    loss_process.reserve(edges());
    for (const double pl : loss) {
      loss_process.push_back(sim::LossConfig::iid(pl));
    }
  }
  loss_process[e] = sim::LossConfig::gilbert_elliott_matched(
      loss[e], burst_length, loss_bad);
}

HeteroMultiHopParams TreeParams::path_params(std::size_t leaf) const {
  if (leaf == 0) {
    throw std::invalid_argument(
        "TreeParams::path_params: the root has no path to itself");
  }
  const std::vector<std::size_t> path = tree.path_edges(leaf);
  HeteroMultiHopParams out;
  out.loss.reserve(path.size());
  out.delay.reserve(path.size());
  for (const std::size_t e : path) {
    out.loss.push_back(loss[e]);
    out.delay.push_back(delay[e]);
  }
  if (!loss_process.empty()) {
    out.loss_process.reserve(path.size());
    for (const std::size_t e : path) {
      out.loss_process.push_back(loss_process[e]);
    }
  }
  out.update_rate = update_rate;
  out.refresh_timer = refresh_timer;
  out.timeout_timer = timeout_timer;
  out.retrans_timer = retrans_timer;
  out.false_signal_rate = false_signal_rate;
  return out;
}

TreeParams TreeParams::from_path(const HeteroMultiHopParams& path) {
  TreeParams out;
  out.tree = TreeSpec::chain(path.hops());
  out.loss = path.loss;
  out.delay = path.delay;
  out.loss_process = path.loss_process;
  out.update_rate = path.update_rate;
  out.refresh_timer = path.refresh_timer;
  out.timeout_timer = path.timeout_timer;
  out.retrans_timer = path.retrans_timer;
  out.false_signal_rate = path.false_signal_rate;
  return out;
}

void TreeParams::validate() const {
  tree.validate();
  if (tree.edges() == 0) {
    throw std::invalid_argument("TreeParams: the tree needs at least one edge");
  }
  if (loss.size() != tree.edges() || delay.size() != tree.edges()) {
    throw std::invalid_argument(
        "TreeParams: need one loss and one delay per edge");
  }
  // Checked here, before any path is built: path_params reads
  // loss_process[e] for every edge on the path.
  if (!loss_process.empty() && loss_process.size() != tree.edges()) {
    throw std::invalid_argument(
        "TreeParams: loss_process must be empty or have one entry per edge");
  }
  // Delegate the value-domain checks to the chain validation on the
  // deepest path (every edge lies on at least one root-to-leaf path, so
  // validating all paths covers all edges; validating one per leaf is
  // enough and cheap).
  for (const std::size_t leaf : tree.leaves()) {
    path_params(leaf).validate();
  }
}

std::vector<TreePathMetrics> evaluate_tree_paths(ProtocolKind kind,
                                                 const TreeParams& params) {
  params.validate();
  std::vector<TreePathMetrics> out;
  for (const std::size_t leaf : params.tree.leaves()) {
    const HeteroMultiHopParams path = params.path_params(leaf);
    const HeteroMultiHopModel model(kind, path);
    TreePathMetrics entry;
    entry.leaf = leaf;
    entry.hops = path.hops();
    entry.metrics = model.metrics();
    out.push_back(entry);
  }
  return out;
}

TreePathMetrics worst_tree_path(ProtocolKind kind, const TreeParams& params) {
  const std::vector<TreePathMetrics> paths = evaluate_tree_paths(kind, params);
  const TreePathMetrics* worst = &paths.front();
  for (const TreePathMetrics& path : paths) {
    if (path.metrics.inconsistency > worst->metrics.inconsistency) {
      worst = &path;
    }
  }
  return *worst;
}

}  // namespace sigcomp::analytic

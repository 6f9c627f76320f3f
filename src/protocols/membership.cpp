#include "protocols/membership.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

namespace sigcomp::protocols {

void ChurnOptions::validate() const {
  if (!std::isfinite(leaf_lifetime) || !std::isfinite(rejoin_rate)) {
    throw std::invalid_argument("ChurnOptions: values must be finite");
  }
  if (leaf_lifetime < 0.0 || rejoin_rate < 0.0) {
    throw std::invalid_argument("ChurnOptions: values must be >= 0");
  }
}

double ChurnReport::mean_setup_latency() const noexcept {
  return completed_joins == 0
             ? 0.0
             : setup_latency_sum / static_cast<double>(completed_joins);
}

double ChurnReport::mean_orphan_window() const noexcept {
  return resolved_orphans == 0
             ? 0.0
             : orphan_window_sum / static_cast<double>(resolved_orphans);
}

double ChurnReport::mean_orphan_window_bound() const noexcept {
  const std::uint64_t orphans = resolved_orphans + pending_orphans;
  return orphans == 0 ? 0.0
                      : (orphan_window_sum + censored_orphan_window_sum) /
                            static_cast<double>(orphans);
}

void ChurnReport::absorb(const ChurnReport& other) noexcept {
  joins += other.joins;
  leaves += other.leaves;
  completed_joins += other.completed_joins;
  resolved_orphans += other.resolved_orphans;
  setup_latency_sum += other.setup_latency_sum;
  setup_latency_max = std::max(setup_latency_max, other.setup_latency_max);
  orphan_window_sum += other.orphan_window_sum;
  orphan_window_max = std::max(orphan_window_max, other.orphan_window_max);
  pending_joins += other.pending_joins;
  pending_orphans += other.pending_orphans;
  censored_orphan_window_sum += other.censored_orphan_window_sum;
}

namespace {

/// The plain controller's scenario: every rate zero.
const ScenarioOptions kNoScenario{};

}  // namespace

MembershipController::MembershipController(sim::Simulator& sim,
                                           Topology& topology, sim::Rng& rng,
                                           const ChurnOptions& options,
                                           std::function<void()> changed)
    : MembershipController(sim, topology, rng, options, kNoScenario, nullptr,
                           std::move(changed)) {}

MembershipController::MembershipController(
    sim::Simulator& sim, Topology& topology, sim::Rng& rng,
    const ChurnOptions& options, const ScenarioOptions& scenario,
    sim::Rng* scenario_rng, std::function<void()> changed)
    : sim_(sim),
      topology_(topology),
      rng_(rng),
      options_(options),
      scenario_(scenario),
      scenario_rng_(scenario_rng),
      arrival_(scenario.arrival, options.rejoin_rate),
      changed_(std::move(changed)) {
  options_.validate();
  scenario_.validate();
  if (scenario_.membership_processes() && scenario_rng_ == nullptr) {
    throw std::invalid_argument(
        "MembershipController: an active scenario needs a scenario rng");
  }
  pending_joins_.reserve(topology_.plan().leaves().size());
  orphans_.reserve(topology_.relays());
  next_lingering_.assign(topology_.relays(), kNoRelay);
}

void MembershipController::start() {
  if (options_.enabled()) {
    // Leaves in increasing node order: the draw order is part of the
    // determinism contract.
    for (const std::size_t leaf : topology_.plan().leaves()) {
      schedule_leave(leaf);
    }
  }
  if (scenario_.shared_risk.enabled()) schedule_burst();
}

void MembershipController::schedule_leave(std::size_t leaf) {
  // Guarded on enabled() (not just called from enabled paths): with
  // shared-risk bursts driving leaves while iid churn is off,
  // leaf_lifetime is 0 and an unguarded draw would schedule an immediate
  // re-leave forever.
  if (!options_.enabled()) return;
  sim_.schedule_in(rng_.exponential(options_.leaf_lifetime),
                   [this, leaf] { do_leave(leaf); });
}

void MembershipController::schedule_join(std::size_t leaf) {
  if (scenario_.arrival.modulated()) {
    // Modulated rejoins draw from the dedicated scenario substream, so a
    // modulation-free run never touches it and replays the iid trace.
    const double delay = arrival_.next_delay(sim_.now(), *scenario_rng_);
    if (!std::isfinite(delay)) return;  // no further arrivals possible
    sim_.schedule_in(delay, [this, leaf] { do_join(leaf); });
    return;
  }
  if (options_.rejoin_rate <= 0.0) return;  // departed for good
  sim_.schedule_in(rng_.exponential(1.0 / options_.rejoin_rate),
                   [this, leaf] { do_join(leaf); });
}

void MembershipController::schedule_burst() {
  sim_.schedule_in(
      scenario_rng_->exponential(1.0 / scenario_.shared_risk.burst_rate),
      [this] { do_burst(); });
}

void MembershipController::do_burst() {
  if (finished_) return;
  // One shared-risk event: a uniformly drawn relay's whole subtree fails
  // its members at once -- every joined leaf below it leaves, in
  // increasing node order (the deterministic iteration order).  A leaf is
  // below relay r exactly when edge r is on its root path.
  const std::size_t failed_relay =
      scenario_rng_->uniform_int(topology_.relays());
  const TreePlan& plan = topology_.plan();
  for (const std::size_t leaf : plan.leaves()) {
    if (!topology_.leaf_active(leaf)) continue;
    const std::span<const std::size_t> path = plan.leaf_path(leaf);
    if (std::find(path.begin(), path.end(), failed_relay) == path.end()) {
      continue;
    }
    do_leave(leaf);
  }
  schedule_burst();
}

template <typename Gone>
bool MembershipController::drop_relays(std::uint32_t& head, Gone gone) {
  std::uint32_t* link = &head;
  while (*link != kNoRelay) {
    const std::uint32_t relay = *link;
    if (gone(relay)) {
      *link = next_lingering_[relay];
      next_lingering_[relay] = kNoRelay;
    } else {
      link = &next_lingering_[relay];
    }
  }
  return head == kNoRelay;
}

void MembershipController::resolve_orphan(std::size_t i) {
  const double window = sim_.now() - orphans_[i].at;
  ++report_.resolved_orphans;
  report_.orphan_window_sum += window;
  report_.orphan_window_max = std::max(report_.orphan_window_max, window);
  orphans_.erase(orphans_.begin() + static_cast<std::ptrdiff_t>(i));
}

void MembershipController::do_leave(std::size_t leaf) {
  if (finished_) return;
  // A stale leave timer (the leaf already departed in a shared-risk burst)
  // is a no-op; without bursts the strict join/leave alternation keeps one
  // timer per leaf and this guard never fires.
  if (!topology_.leaf_active(leaf)) return;
  const Topology::PruneResult pruned = topology_.leave(leaf);
  ++report_.leaves;
  // A join whose setup never completed is abandoned by the departure.
  pending_joins_.erase(
      std::remove_if(pending_joins_.begin(), pending_joins_.end(),
                     [leaf](const PendingJoin& p) { return p.leaf == leaf; }),
      pending_joins_.end());
  // The orphan window of this leave covers every pruned relay still
  // holding a copy; branches that were already clean resolve instantly.
  Orphan orphan{sim_.now(), kNoRelay};
  for (const std::size_t e : pruned.pruned_edges) {
    if (!topology_.relay(e).value()) continue;
    next_lingering_[e] = orphan.head;
    orphan.head = static_cast<std::uint32_t>(e);
  }
  if (orphan.head == kNoRelay) {
    ++report_.resolved_orphans;  // window of zero: nothing lingered
  } else {
    orphans_.push_back(orphan);
  }
  schedule_join(leaf);
  if (changed_) changed_();
}

void MembershipController::do_join(std::size_t leaf) {
  if (finished_) return;
  // Defensive mirror of the do_leave guard; the strict alternation keeps
  // at most one join in flight per leaf, so this never fires today.
  if (topology_.leaf_active(leaf)) return;
  const Topology::GraftResult graft = topology_.join(leaf);
  ++report_.joins;
  pending_joins_.push_back(PendingJoin{leaf, sim_.now()});
  // Re-grafted relays are wanted again: their copy stops being orphaned the
  // moment membership returns, resolving the windows that covered them.
  const std::span<const std::size_t> grafted = graft.activated_edges;
  if (!grafted.empty() && !orphans_.empty()) {
    const auto regrafted = [grafted](std::uint32_t relay) {
      return std::find(grafted.begin(), grafted.end(), relay) != grafted.end();
    };
    for (std::size_t i = orphans_.size(); i-- > 0;) {
      if (drop_relays(orphans_[i].head, regrafted)) resolve_orphan(i);
    }
  }
  schedule_leave(leaf);
  if (changed_) changed_();
}

void MembershipController::on_state_change() {
  if (finished_) return;
  // Setup latency: a pending join completes when its leaf holds the
  // sender's current value.
  const auto sender_value = topology_.sender().value();
  if (sender_value) {
    for (std::size_t i = pending_joins_.size(); i-- > 0;) {
      const PendingJoin& pending = pending_joins_[i];
      if (topology_.relay(pending.leaf - 1).value() == sender_value) {
        const double latency = sim_.now() - pending.at;
        ++report_.completed_joins;
        report_.setup_latency_sum += latency;
        report_.setup_latency_max =
            std::max(report_.setup_latency_max, latency);
        pending_joins_.erase(pending_joins_.begin() +
                             static_cast<std::ptrdiff_t>(i));
      }
    }
  }
  // Orphan windows: a pruned branch resolves when its last lingering relay
  // copy is gone (timeout, removal delivery, or teardown).
  const auto dropped = [this](std::uint32_t relay) {
    return !topology_.relay(relay).value().has_value();
  };
  for (std::size_t i = orphans_.size(); i-- > 0;) {
    if (drop_relays(orphans_[i].head, dropped)) resolve_orphan(i);
  }
}

void MembershipController::finish() {
  if (finished_) return;
  on_state_change();  // final sweep at the horizon
  finished_ = true;
  report_.pending_joins += pending_joins_.size();
  report_.pending_orphans += orphans_.size();
  // Right-censor the still-running orphan windows instead of dropping
  // them: each contributes its elapsed time, a lower bound on its eventual
  // length (see ChurnReport::mean_orphan_window_bound).
  for (const Orphan& orphan : orphans_) {
    report_.censored_orphan_window_sum += sim_.now() - orphan.at;
  }
  pending_joins_.clear();
  orphans_.clear();
}

}  // namespace sigcomp::protocols

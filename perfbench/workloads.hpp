// The benchmark's four session-farm workloads.  README.md gives the reason
// each one exists; the sizes are chosen so one fresh-process farm call takes
// about a second on a 4-core VM, which lets run.py take a median over many
// such calls inside one measured run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "analytic/tree_paths.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/session_farm.hpp"

namespace perfbench {

enum class SessionKind { kSingleHop, kTree };

struct Workload {
  std::string_view name;
  SessionKind kind;
  std::size_t sessions;  ///< farm sessions, relays not included
  double window_s;       ///< arrival window (arrivals uniform over it)
  double lifetime_s;     ///< mean exponential session lifetime
  std::size_t workers;   ///< explicit pool size (never 0 = one per core)
  /// Shared relays = sessions / relay_divisor, each with
  /// kSubscribersPerRelay subscribers; 0 disables the fabric.
  std::size_t relay_divisor;
};

inline constexpr std::size_t kSubscribersPerRelay = 16;
/// Every workload runs SS+RT, the protocol whose refresh re-arm path
/// dominates the farm profile.
inline constexpr sigcomp::ProtocolKind kProtocol = sigcomp::ProtocolKind::kSSRT;

inline constexpr Workload kWorkloads[] = {
    {"refresh_steady", SessionKind::kSingleHop, 8192, 30.0, 600.0, 1, 0},
    {"arrival_burst", SessionKind::kSingleHop, 100000, 1.0, 10.0, 1, 0},
    // One worker: with two, cross-vCPU wake-ups at every epoch barrier made
    // run medians too noisy on shared VMs (README.md, "Observed noise").
    {"relay_fabric", SessionKind::kSingleHop, 32768, 10.0, 120.0, 1, 64},
    {"tree_churn", SessionKind::kTree, 2048, 30.0, 120.0, 1, 0},
};

inline const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

inline std::size_t relays_for(const Workload& w, std::size_t sessions) {
  return w.relay_divisor == 0 ? 0 : sessions / w.relay_divisor;
}

/// Farm options of `w` at `sessions` sessions: the window stays fixed, so a
/// smaller run (the replica, the smoke tests) keeps the workload's shape.
inline sigcomp::exp::SessionFarmOptions farm_options(const Workload& w,
                                                     std::size_t sessions,
                                                     std::uint64_t seed) {
  sigcomp::exp::SessionFarmOptions options;
  options.seed = seed;
  options.sessions = sessions;
  options.arrival_rate = static_cast<double>(sessions) / w.window_s;
  options.session_lifetime = w.lifetime_s;
  options.threads = w.workers;
  options.shared_relays = relays_for(w, sessions);
  options.subscribers_per_relay = kSubscribersPerRelay;
  if (w.kind == SessionKind::kTree) {
    options.leaf_churn.leaf_lifetime = 30.0;
    options.leaf_churn.rejoin_rate = 1.0 / 30.0;
  }
  return options;
}

/// tree_churn's topology: a balanced 4-ary tree of depth 2 (16 leaves).
inline sigcomp::analytic::TreeParams tree_params() {
  return sigcomp::analytic::TreeParams::balanced(sigcomp::MultiHopParams{}, 4,
                                                 2);
}

}  // namespace perfbench

// One-shard replica of a workload, built from the library's public classes
// (sim::Simulator, sim::Channel, SenderEngine/ReceiverEngine,
// protocols::Topology, MembershipController, RelayClient/SharedRelayHub,
// exp::SessionArena, exp::ShardRing) so the benchmark can put spans around
// calls into each layer without any tracing inside src/.
//
// The replica runs at most one default-size shard (4096) of the workload's
// sessions over the same arrival window, seeded per global index exactly
// like the farm, so its events and messages per session land within a few
// percent of the farm's counters (run.py checks this on every traced run).
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

/// Spans recorded inside the replica.  Nested spans are split into self
/// time where the README says so (sim.step excludes handler and spawn
/// spans; exp.arena.spawn excludes the session constructor).
enum Span : std::size_t {
  kStep,           ///< sim.step_ns: one Simulator::step, self time
  kHandle,         ///< protocols.handle_ns: one delivered message
  kSessionBuild,   ///< protocols.session_build_ns: constructor + begin()
  kTopologyBuild,  ///< protocols.topology.build_ns: Topology constructor
  kArenaSpawn,     ///< exp.arena.spawn_ns: SessionArena::spawn, self time
  kArenaRetire,    ///< exp.arena.retire_ns: SessionArena::retire
  kRingPushPop,    ///< exp.ring.push_pop_ns: per entry, per epoch
  kRingDrainSort,  ///< exp.ring.drain_sort_ns: per entry, per epoch
  kSpanCount
};

/// Span samples in nanoseconds.  When off, nothing reads the clock.
class Spans {
 public:
  explicit Spans(bool on) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }

  [[nodiscard]] static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void add(Span span, std::uint64_t ns) {
    samples_[span].push_back(static_cast<double>(ns));
  }

  [[nodiscard]] const std::vector<double>& samples(Span span) const {
    return samples_[span];
  }

  /// Time spent in top-level child spans during the current step.
  std::uint64_t child_ns = 0;

 private:
  bool on_;
  std::array<std::vector<double>, kSpanCount> samples_;
};

struct ReplicaResult {
  std::size_t sessions = 0;  ///< completed, relays included
  std::uint64_t events = 0;
  std::uint64_t messages = 0;  ///< priced exactly as the farm prices them
  std::uint64_t pushes = 0;    ///< event-queue pushes
  std::uint64_t cancels = 0;   ///< event-queue cancels
  double wall_s = 0.0;
  std::vector<double> depth;  ///< sampled live queue depth (traced only)
  Spans spans{false};
};

/// Runs the replica of `workload` at `sessions` farm sessions (it keeps
/// at most one default-size shard of them) with spans on or off.
ReplicaResult run_replica(const Workload& workload, std::size_t sessions,
                          std::uint64_t seed, bool traced);

}  // namespace perfbench

// Multi-hop simulation harness: a sender plus K relays connected by lossy
// per-hop channels, running SS, SS+RT or HS, measured against the multi-hop
// analytic model (Figs. 17-19).
#pragma once

#include <cstdint>
#include <vector>

#include "analytic/hetero_multi_hop.hpp"
#include "core/metrics.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "sim/channel_process.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"

namespace sigcomp::protocols {

/// Execution options of one multi-hop chain simulation.
struct MultiHopSimOptions {
  std::uint64_t seed = 1;     ///< base seed of the run's RNG streams
  double duration = 50000.0;  ///< simulated seconds
  /// Timer law at every node (deterministic = real protocols).
  sim::Distribution timer_dist = sim::Distribution::kDeterministic;
  /// Per-hop channel delay law (mean = the per-hop delay parameter; see
  /// SimOptions::delay_model).  The per-hop loss processes come from the
  /// parameter set (MultiHopParams::loss_config /
  /// HeteroMultiHopParams::loss_process).
  sim::DelayModel delay_model = sim::DelayModel::kExponential;
  double delay_shape = 1.5;  ///< Pareto tail index / lognormal sigma
  /// Optional trace sink; when set, every per-hop channel records its
  /// send/drop/deliver events (labels "dn0"/"up0", "dn1"/"up1", ...).
  /// Formatting is fully skipped when null -- tracing costs nothing when
  /// absent.
  sim::TraceLog* trace = nullptr;
};

/// Aggregate outcome of one multi-hop chain simulation.
struct MultiHopSimResult {
  Metrics metrics;  ///< inconsistency = P(not all hops consistent); raw rate
  std::vector<double> hop_inconsistency;  ///< per hop 1..K (index 0 = hop 1)
  std::uint64_t messages = 0;  ///< across every hop, both directions
  double duration = 0.0;       ///< simulated seconds
  std::uint64_t relay_timeouts = 0;  ///< total soft-state timeouts across relays
};

/// Runs one multi-hop replication.  Throws std::invalid_argument on bad
/// parameters or a protocol outside {SS, SS+RT, HS}.
[[nodiscard]] MultiHopSimResult run_multi_hop(ProtocolKind kind,
                                              const MultiHopParams& params,
                                              const MultiHopSimOptions& options);

/// Heterogeneous-path variant: each hop has its own loss and delay
/// (pairs with analytic::HeteroMultiHopModel).
[[nodiscard]] MultiHopSimResult run_multi_hop(
    ProtocolKind kind, const analytic::HeteroMultiHopParams& params,
    const MultiHopSimOptions& options);

/// Replicated multi-hop estimates with 95% confidence intervals (seeds
/// options.seed, options.seed + 1, ...), mirroring the single-hop API.
struct MultiHopReplicatedResult {
  sim::ConfidenceInterval inconsistency;     ///< whole-chain inconsistency
  sim::ConfidenceInterval message_rate;      ///< raw msg/s across the chain
  sim::ConfidenceInterval last_hop_inconsistency;  ///< hop K's inconsistency
  std::size_t replications = 0;              ///< independent runs aggregated
};

/// Runs `replications` independent multi-hop simulations and aggregates
/// them (see MultiHopReplicatedResult).
[[nodiscard]] MultiHopReplicatedResult run_multi_hop_replicated(
    ProtocolKind kind, const MultiHopParams& params,
    const MultiHopSimOptions& options, std::size_t replications);

}  // namespace sigcomp::protocols

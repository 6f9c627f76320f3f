// Facade over the two evaluation engines: the analytic Markov models and
// the discrete-event simulator.  This is the entry point most library users
// need -- see examples/quickstart.cpp.
#pragma once

#include <cstddef>
#include <vector>

#include "core/metrics.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/parallel.hpp"
#include "protocols/multi_hop_run.hpp"
#include "protocols/single_hop_run.hpp"

namespace sigcomp {

/// Analytic metrics of one protocol in the single-hop setting (Sec. III-A).
[[nodiscard]] Metrics evaluate_analytic(ProtocolKind kind,
                                        const SingleHopParams& params);

/// Analytic metrics of one protocol in the multi-hop setting (Sec. III-B;
/// SS, SS+RT and HS only).
[[nodiscard]] Metrics evaluate_analytic(ProtocolKind kind,
                                        const MultiHopParams& params);

/// Simulated metrics of one protocol in the single-hop setting.  The
/// channel's loss process (iid Bernoulli or Gilbert-Elliott bursty loss)
/// comes from the parameter set (SingleHopParams::loss_config /
/// with_bursty_loss); the delay law comes from the options
/// (SimOptions::delay_model).  The analytic engines above always see the
/// *average* loss rate only.
[[nodiscard]] protocols::SimResult evaluate_simulated(
    ProtocolKind kind, const SingleHopParams& params,
    const protocols::SimOptions& options = {});

/// Simulated metrics of one protocol in the multi-hop setting.
[[nodiscard]] protocols::MultiHopSimResult evaluate_simulated(
    ProtocolKind kind, const MultiHopParams& params,
    const protocols::MultiHopSimOptions& options = {});

/// One (protocol, metrics) row of a protocol comparison.
struct ProtocolMetrics {
  ProtocolKind kind;
  Metrics metrics;
};

/// Analytic comparison of all five protocols at one parameter point.
[[nodiscard]] std::vector<ProtocolMetrics> compare_all(const SingleHopParams& params);

/// Analytic comparison of the three multi-hop protocols.
[[nodiscard]] std::vector<ProtocolMetrics> compare_all(const MultiHopParams& params);

// ---------------------------------------------------------------------------
// Batch (grid) evaluation through the parallel experiment engine.  Every
// figure bench, the CLI and the examples route sweeps through these so one
// engine owns threading and replica seeding.  Results are bit-identical to
// a serial run of the same grid (see exp/parallel.hpp).

/// Threading of a batch evaluation.  When `engine` is set, its pool is
/// reused (spawning a fresh pool per call is wasteful when one binary
/// evaluates many grids -- e.g. one per protocol) and `threads` is ignored.
struct GridOptions {
  std::size_t threads = 0;  ///< worker threads; 0 = hardware concurrency
  exp::ParallelSweep* engine = nullptr;  ///< optional shared engine
};

/// Analytic metrics at every grid point, evaluated in parallel; out[i]
/// corresponds to grid[i].
[[nodiscard]] std::vector<Metrics> evaluate_grid_analytic(
    ProtocolKind kind, const std::vector<SingleHopParams>& grid,
    const GridOptions& options = {});
[[nodiscard]] std::vector<Metrics> evaluate_grid_analytic(
    ProtocolKind kind, const std::vector<MultiHopParams>& grid,
    const GridOptions& options = {});

/// Replicated simulation of a single-hop grid.  `sim.seed` is the base seed
/// of the deterministic per-replica seeding (exp::replica_seed); `sim.trace`
/// must be null (replicas run concurrently).
struct SimGridOptions {
  protocols::SimOptions sim;      ///< per-replica options; seed = base seed
  std::size_t replications = 10;  ///< independent replicas per grid point
  std::size_t threads = 0;        ///< worker threads; 0 = hardware
  exp::ParallelSweep* engine = nullptr;  ///< optional shared engine
};

[[nodiscard]] std::vector<exp::MetricsSummary> evaluate_grid_simulated(
    ProtocolKind kind, const std::vector<SingleHopParams>& grid,
    const SimGridOptions& options = {});

/// Replicated simulation of a multi-hop grid; as for the single-hop grid,
/// `sim.trace` must be null.
struct MultiHopSimGridOptions {
  protocols::MultiHopSimOptions sim;  ///< per-replica options; seed = base
  std::size_t replications = 10;
  std::size_t threads = 0;
  exp::ParallelSweep* engine = nullptr;  ///< optional shared engine
};

[[nodiscard]] std::vector<exp::MetricsSummary> evaluate_grid_simulated(
    ProtocolKind kind, const std::vector<MultiHopParams>& grid,
    const MultiHopSimGridOptions& options = {});

}  // namespace sigcomp

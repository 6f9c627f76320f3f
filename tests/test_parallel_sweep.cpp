// The engine's determinism contract: parallel results are bit-identical to
// a serial run of the same grid, and replica seeding depends only on
// (base_seed, point, replica) -- never on thread count or scheduling.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/evaluator.hpp"
#include "exp/parallel.hpp"
#include "exp/sweep.hpp"
#include "protocols/single_hop_run.hpp"
#include "sim/trace.hpp"

namespace sigcomp {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

std::vector<SingleHopParams> loss_grid(std::size_t points) {
  std::vector<SingleHopParams> grid;
  for (const double loss : exp::lin_space(0.0, 0.25, points)) {
    SingleHopParams p = SingleHopParams::kazaa_defaults();
    p.loss = loss;
    grid.push_back(p);
  }
  return grid;
}

TEST(ReplicaSeed, IsAPureFunctionOfItsInputs) {
  EXPECT_EQ(exp::replica_seed(1, 2, 3), exp::replica_seed(1, 2, 3));
  EXPECT_NE(exp::replica_seed(1, 2, 3), exp::replica_seed(1, 2, 4));
  EXPECT_NE(exp::replica_seed(1, 2, 3), exp::replica_seed(1, 3, 3));
  EXPECT_NE(exp::replica_seed(1, 2, 3), exp::replica_seed(2, 2, 3));
}

TEST(ReplicaSeed, HasNoCollisionsOnASmallLattice) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {1ULL, 42ULL}) {
    for (std::uint64_t point = 0; point < 50; ++point) {
      for (std::uint64_t replica = 0; replica < 20; ++replica) {
        seeds.insert(exp::replica_seed(base, point, replica));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 2u * 50u * 20u);
}

TEST(ReplicaSeed, DiffersFromNeighborsInEveryByte) {
  // The old `base + replica` convention gave nearly identical xoshiro
  // families to adjacent replicas; the avalanche must not.
  const std::uint64_t a = exp::replica_seed(1, 0, 0);
  const std::uint64_t b = exp::replica_seed(1, 0, 1);
  int differing_bits = 0;
  for (std::uint64_t diff = a ^ b; diff != 0; diff &= diff - 1) {
    ++differing_bits;
  }
  EXPECT_GE(differing_bits, 16);
}

TEST(ReplicatedRun, SeedForMatchesFreeFunction) {
  const exp::ReplicatedRun run(7, 99);
  EXPECT_EQ(run.seed_for(3, 5), exp::replica_seed(99, 3, 5));
  EXPECT_EQ(run.replications(), 7u);
}

TEST(ReplicatedRun, ZeroReplicationsClampsToOne) {
  EXPECT_EQ(exp::ReplicatedRun(0, 1).replications(), 1u);
}

TEST(ParallelSweep, MapPreservesGridOrder) {
  const std::vector<double> axis = exp::lin_space(0.0, 1.0, 100);
  for (const std::size_t threads : kThreadCounts) {
    exp::ParallelSweep sweep(threads);
    const std::vector<double> out =
        sweep.map(axis, [](double v) { return 3.0 * v + 1.0; });
    ASSERT_EQ(out.size(), axis.size());
    for (std::size_t i = 0; i < axis.size(); ++i) {
      EXPECT_EQ(out[i], 3.0 * axis[i] + 1.0) << "threads " << threads;
    }
  }
}

TEST(ParallelSweep, AnalyticGridIsBitIdenticalAcrossThreadCounts) {
  const std::vector<SingleHopParams> grid = loss_grid(9);
  const std::vector<Metrics> serial =
      evaluate_grid_analytic(ProtocolKind::kSSRT, grid, {1});
  ASSERT_EQ(serial.size(), grid.size());
  for (const std::size_t threads : kThreadCounts) {
    const std::vector<Metrics> parallel =
        evaluate_grid_analytic(ProtocolKind::kSSRT, grid, {threads});
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      // Exact equality on purpose: same grid point must produce the same
      // bits no matter how many workers ran the sweep.
      EXPECT_EQ(parallel[i].inconsistency, serial[i].inconsistency);
      EXPECT_EQ(parallel[i].message_rate, serial[i].message_rate);
      EXPECT_EQ(parallel[i].raw_message_rate, serial[i].raw_message_rate);
      EXPECT_EQ(parallel[i].session_length, serial[i].session_length);
    }
  }
}

TEST(ParallelSweep, SimulatedGridIsBitIdenticalAcrossThreadCounts) {
  const std::vector<SingleHopParams> grid = loss_grid(3);
  SimGridOptions options;
  options.sim.sessions = 40;
  options.sim.seed = 11;
  options.replications = 4;

  options.threads = 1;
  const auto serial = evaluate_grid_simulated(ProtocolKind::kSS, grid, options);
  ASSERT_EQ(serial.size(), grid.size());

  for (const std::size_t threads : kThreadCounts) {
    options.threads = threads;
    const auto parallel =
        evaluate_grid_simulated(ProtocolKind::kSS, grid, options);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].mean.inconsistency, serial[i].mean.inconsistency);
      EXPECT_EQ(parallel[i].mean.message_rate, serial[i].mean.message_rate);
      EXPECT_EQ(parallel[i].stddev.inconsistency,
                serial[i].stddev.inconsistency);
      EXPECT_EQ(parallel[i].inconsistency.half_width,
                serial[i].inconsistency.half_width);
      EXPECT_EQ(parallel[i].mean.breakdown.refresh,
                serial[i].mean.breakdown.refresh);
      EXPECT_EQ(parallel[i].replications, options.replications);
    }
  }
}

TEST(ParallelSweep, SimulatedGridMatchesManualSerialReplicas) {
  // The engine must be exactly "run_single_hop once per (point, replica)
  // with seed = replica_seed(base, point, replica), then summarize".
  const std::vector<SingleHopParams> grid = loss_grid(2);
  SimGridOptions options;
  options.sim.sessions = 30;
  options.sim.seed = 5;
  options.replications = 3;
  options.threads = 2;
  const auto engine = evaluate_grid_simulated(ProtocolKind::kHS, grid, options);

  for (std::size_t point = 0; point < grid.size(); ++point) {
    std::vector<Metrics> replicas;
    for (std::size_t r = 0; r < options.replications; ++r) {
      protocols::SimOptions sim = options.sim;
      sim.seed = exp::replica_seed(options.sim.seed, point, r);
      replicas.push_back(
          protocols::run_single_hop(ProtocolKind::kHS, grid[point], sim).metrics);
    }
    const exp::MetricsSummary expected = exp::summarize_replicas(replicas);
    EXPECT_EQ(engine[point].mean.inconsistency, expected.mean.inconsistency);
    EXPECT_EQ(engine[point].mean.raw_message_rate,
              expected.mean.raw_message_rate);
    EXPECT_EQ(engine[point].inconsistency.half_width,
              expected.inconsistency.half_width);
  }
}

TEST(ParallelSweep, MultiHopSimulatedGridIsDeterministic) {
  std::vector<MultiHopParams> grid(2, MultiHopParams::reservation_defaults());
  grid[0].hops = 2;
  grid[1].hops = 4;
  MultiHopSimGridOptions options;
  options.sim.duration = 500.0;
  options.sim.seed = 3;
  options.replications = 2;

  options.threads = 1;
  const auto serial =
      evaluate_grid_simulated(ProtocolKind::kSSRT, grid, options);
  options.threads = 8;
  const auto parallel =
      evaluate_grid_simulated(ProtocolKind::kSSRT, grid, options);
  ASSERT_EQ(serial.size(), 2u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(parallel[i].mean.inconsistency, serial[i].mean.inconsistency);
    EXPECT_EQ(parallel[i].mean.raw_message_rate,
              serial[i].mean.raw_message_rate);
  }
}

TEST(ParallelSweep, SharedEngineMatchesOwnedPool) {
  // GridOptions::engine reuses a caller-owned pool across many calls; the
  // results must be exactly what a per-call pool produces.
  const std::vector<SingleHopParams> grid = loss_grid(5);
  const std::vector<Metrics> owned =
      evaluate_grid_analytic(ProtocolKind::kHS, grid, {2, nullptr});

  exp::ParallelSweep engine(2);
  GridOptions shared;
  shared.engine = &engine;
  for (int call = 0; call < 3; ++call) {
    const std::vector<Metrics> result =
        evaluate_grid_analytic(ProtocolKind::kHS, grid, shared);
    ASSERT_EQ(result.size(), owned.size());
    for (std::size_t i = 0; i < owned.size(); ++i) {
      EXPECT_EQ(result[i].inconsistency, owned[i].inconsistency);
      EXPECT_EQ(result[i].message_rate, owned[i].message_rate);
    }
  }

  SimGridOptions sim_shared;
  sim_shared.sim.sessions = 20;
  sim_shared.replications = 2;
  sim_shared.engine = &engine;
  SimGridOptions sim_owned = sim_shared;
  sim_owned.engine = nullptr;
  sim_owned.threads = 2;
  const auto a = evaluate_grid_simulated(ProtocolKind::kSS, grid, sim_shared);
  const auto b = evaluate_grid_simulated(ProtocolKind::kSS, grid, sim_owned);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].mean.inconsistency, b[i].mean.inconsistency);
  }
}

TEST(ParallelSweep, SimulatedGridRejectsTracing) {
  sim::TraceLog trace;
  SimGridOptions options;
  options.sim.trace = &trace;
  EXPECT_THROW(
      (void)evaluate_grid_simulated(ProtocolKind::kSS, loss_grid(2), options),
      std::invalid_argument);
  MultiHopSimGridOptions multi_hop;
  multi_hop.sim.trace = &trace;
  EXPECT_THROW((void)evaluate_grid_simulated(
                   ProtocolKind::kSS,
                   std::vector<MultiHopParams>(2, MultiHopParams{}), multi_hop),
               std::invalid_argument);
}

TEST(SummarizeReplicas, MatchesHandComputedStatistics) {
  std::vector<Metrics> replicas(3);
  replicas[0].inconsistency = 0.01;
  replicas[1].inconsistency = 0.02;
  replicas[2].inconsistency = 0.03;
  replicas[0].message_rate = 1.0;
  replicas[1].message_rate = 1.0;
  replicas[2].message_rate = 1.0;
  const exp::MetricsSummary s = exp::summarize_replicas(replicas);
  EXPECT_NEAR(s.mean.inconsistency, 0.02, 1e-15);
  EXPECT_NEAR(s.stddev.inconsistency, 0.01, 1e-12);
  EXPECT_DOUBLE_EQ(s.mean.message_rate, 1.0);
  EXPECT_DOUBLE_EQ(s.stddev.message_rate, 0.0);
  EXPECT_EQ(s.replications, 3u);
  EXPECT_DOUBLE_EQ(s.inconsistency.mean, 0.02);
  EXPECT_GT(s.inconsistency.half_width, 0.0);
  EXPECT_DOUBLE_EQ(s.message_rate.half_width, 0.0);
}

TEST(SummarizeReplicas, RejectsEmptyInput) {
  EXPECT_THROW((void)exp::summarize_replicas({}), std::invalid_argument);
}

TEST(ThreadsFromArgs, ParsesAndDefaults) {
  const char* args[] = {"bench", "--threads", "6", "--csv", "x.csv"};
  EXPECT_EQ(exp::threads_from_args(5, args), 6u);
  const char* none[] = {"bench", "--csv", "x.csv"};
  EXPECT_EQ(exp::threads_from_args(3, none), 0u);
  EXPECT_EQ(exp::threads_from_args(3, none, 4), 4u);
  const char* negative[] = {"bench", "--threads", "-2"};
  EXPECT_THROW((void)exp::threads_from_args(3, negative),
               std::invalid_argument);
  const char* garbage[] = {"bench", "--threads", "abc"};
  EXPECT_THROW((void)exp::threads_from_args(3, garbage),
               std::invalid_argument);
  const char* trailing[] = {"bench", "--threads"};
  EXPECT_THROW((void)exp::threads_from_args(2, trailing),
               std::invalid_argument);
}

}  // namespace
}  // namespace sigcomp

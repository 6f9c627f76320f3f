// Tests of the many-session scale harness (exp/session_farm).
#include "exp/session_farm.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/parallel.hpp"
#include "protocols/single_hop_run.hpp"

namespace sigcomp::exp {
namespace {

SessionFarmOptions small_farm(std::size_t sessions) {
  SessionFarmOptions options;
  options.seed = 11;
  options.sessions = sessions;
  options.arrival_rate = static_cast<double>(sessions) / 20.0;
  options.session_lifetime = 30.0;
  options.threads = 1;
  return options;
}

TEST(SessionFarm, CompletesEverySession) {
  const SessionFarmResult result = run_session_farm(
      ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), small_farm(300));
  EXPECT_EQ(result.sessions, 300u);
  EXPECT_EQ(result.summary.replications, 300u);
  EXPECT_GT(result.messages, 0u);
  EXPECT_GT(result.events_executed, 0u);
  EXPECT_GT(result.horizon, 0.0);
  EXPECT_GT(result.peak_sessions_in_flight, 0u);
  EXPECT_LE(result.peak_sessions_in_flight, 300u);
}

TEST(SessionFarm, AllFiveProtocolsRun) {
  for (const ProtocolKind kind : kAllProtocols) {
    const SessionFarmResult result = run_session_farm(
        kind, SingleHopParams::kazaa_defaults(), small_farm(100));
    EXPECT_EQ(result.sessions, 100u) << to_string(kind);
    EXPECT_GE(result.summary.mean.inconsistency, 0.0) << to_string(kind);
    EXPECT_LE(result.summary.mean.inconsistency, 1.0) << to_string(kind);
    EXPECT_GT(result.summary.mean.session_length, 0.0) << to_string(kind);
  }
}

TEST(SessionFarm, BitIdenticalAcrossThreadCounts) {
  SessionFarmOptions base = small_farm(400);
  base.shard_size = 64;
  const SessionFarmResult serial = run_session_farm(
      ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), base);
  for (const std::size_t threads : {2u, 8u}) {
    SessionFarmOptions opt = base;
    opt.threads = threads;
    const SessionFarmResult parallel = run_session_farm(
        ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), opt);
    EXPECT_EQ(serial.summary.mean.inconsistency,
              parallel.summary.mean.inconsistency);
    EXPECT_EQ(serial.summary.mean.message_rate,
              parallel.summary.mean.message_rate);
    EXPECT_EQ(serial.summary.inconsistency.half_width,
              parallel.summary.inconsistency.half_width);
    EXPECT_EQ(serial.messages, parallel.messages);
    EXPECT_EQ(serial.events_executed, parallel.events_executed);
    EXPECT_EQ(serial.horizon, parallel.horizon);
    EXPECT_EQ(serial.receiver_timeouts, parallel.receiver_timeouts);
  }
}

TEST(SessionFarm, BitIdenticalAcrossShardSizes) {
  // Stronger than thread independence: per-session randomness is keyed to
  // the global session index, so even the shard decomposition cannot move
  // a single output bit of the per-session aggregates.
  SessionFarmOptions base = small_farm(400);
  base.shard_size = 400;  // one shard
  const SessionFarmResult one_shard = run_session_farm(
      ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), base);
  for (const std::size_t shard_size : {1u, 7u, 64u, 399u}) {
    SessionFarmOptions opt = base;
    opt.shard_size = shard_size;
    const SessionFarmResult sharded = run_session_farm(
        ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), opt);
    EXPECT_EQ(one_shard.summary.mean.inconsistency,
              sharded.summary.mean.inconsistency)
        << "shard_size " << shard_size;
    EXPECT_EQ(one_shard.summary.mean.message_rate,
              sharded.summary.mean.message_rate)
        << "shard_size " << shard_size;
    EXPECT_EQ(one_shard.summary.mean.session_length,
              sharded.summary.mean.session_length)
        << "shard_size " << shard_size;
    EXPECT_EQ(one_shard.summary.inconsistency.half_width,
              sharded.summary.inconsistency.half_width)
        << "shard_size " << shard_size;
    EXPECT_EQ(one_shard.messages, sharded.messages)
        << "shard_size " << shard_size;
    EXPECT_EQ(one_shard.receiver_timeouts, sharded.receiver_timeouts)
        << "shard_size " << shard_size;
  }
}

TEST(SessionFarm, SharedEngineMatchesPrivatePool) {
  SessionFarmOptions base = small_farm(200);
  const SessionFarmResult own_pool = run_session_farm(
      ProtocolKind::kSSER, SingleHopParams::kazaa_defaults(), base);
  ParallelSweep engine(4);
  SessionFarmOptions shared = base;
  shared.engine = &engine;
  const SessionFarmResult with_engine = run_session_farm(
      ProtocolKind::kSSER, SingleHopParams::kazaa_defaults(), shared);
  EXPECT_EQ(own_pool.summary.mean.inconsistency,
            with_engine.summary.mean.inconsistency);
  EXPECT_EQ(own_pool.messages, with_engine.messages);
}

TEST(SessionFarm, SoftStateSeesOrphanWindowHardStateDoesNot) {
  // A farm session ends with a graceful removal; soft-state receivers hold
  // orphaned state until timeout only when the removal message is lost, so
  // with losses pure SS (no explicit removal at all -- every session ends
  // by timeout) must be much more inconsistent than SS+RTR/HS.
  SessionFarmOptions options = small_farm(300);
  SingleHopParams params = SingleHopParams::kazaa_defaults();
  params.loss = 0.05;
  const SessionFarmResult ss =
      run_session_farm(ProtocolKind::kSS, params, options);
  const SessionFarmResult ssrtr =
      run_session_farm(ProtocolKind::kSSRTR, params, options);
  EXPECT_GT(ss.summary.mean.inconsistency,
            ssrtr.summary.mean.inconsistency);
  EXPECT_GT(ss.receiver_timeouts, ssrtr.receiver_timeouts);
}

TEST(SessionFarm, PerSessionMetricsMatchRenewalHarnessScale) {
  // The farm measures the same per-session quantities as the renewal
  // harness (protocols/run_single_hop); with matched lifetimes the mean
  // session length must agree within statistical noise.
  SessionFarmOptions options = small_farm(500);
  options.session_lifetime = 30.0;
  SingleHopParams params = SingleHopParams::kazaa_defaults();
  params.removal_rate = 1.0 / 30.0;
  const SessionFarmResult farm =
      run_session_farm(ProtocolKind::kSSRTR, params, options);
  protocols::SimOptions renewal_options;
  renewal_options.sessions = 500;
  renewal_options.seed = 11;
  const protocols::SimResult renewal =
      protocols::run_single_hop(ProtocolKind::kSSRTR, params, renewal_options);
  EXPECT_NEAR(farm.summary.mean.session_length, renewal.metrics.session_length,
              0.25 * renewal.metrics.session_length);
  EXPECT_NEAR(farm.summary.mean.message_rate, renewal.metrics.message_rate,
              0.25 * renewal.metrics.message_rate);
}

TEST(SessionFarm, MultiHopChainsRunAndTearDown) {
  MultiHopParams params;
  params.hops = 3;
  SessionFarmOptions options = small_farm(100);
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const SessionFarmResult result = run_session_farm(kind, params, options);
    EXPECT_EQ(result.sessions, 100u) << to_string(kind);
    EXPECT_GT(result.messages, 0u) << to_string(kind);
    EXPECT_GE(result.summary.mean.inconsistency, 0.0) << to_string(kind);
    EXPECT_LT(result.summary.mean.inconsistency, 0.5) << to_string(kind);
  }
}

TEST(SessionFarm, MultiHopBitIdenticalAcrossShardSizes) {
  MultiHopParams params;
  params.hops = 2;
  SessionFarmOptions base = small_farm(120);
  base.shard_size = 120;
  const SessionFarmResult one_shard =
      run_session_farm(ProtocolKind::kSSRT, params, base);
  SessionFarmOptions sharded_options = base;
  sharded_options.shard_size = 11;
  const SessionFarmResult sharded =
      run_session_farm(ProtocolKind::kSSRT, params, sharded_options);
  EXPECT_EQ(one_shard.summary.mean.inconsistency,
            sharded.summary.mean.inconsistency);
  EXPECT_EQ(one_shard.messages, sharded.messages);
  EXPECT_EQ(one_shard.receiver_timeouts, sharded.receiver_timeouts);
}

TEST(SessionFarm, ValidatesOptions) {
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  SessionFarmOptions options = small_farm(10);
  options.sessions = 0;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  options = small_farm(10);
  options.arrival_rate = 0.0;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  options = small_farm(10);
  options.session_lifetime = -1.0;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  options = small_farm(10);
  options.shard_size = 0;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  // Non-finite values are rejected up front, by name, before they reach the
  // event queue.
  const auto expect_rejected = [&](const SessionFarmOptions& bad,
                                   const std::string& field) {
    try {
      (void)run_session_farm(ProtocolKind::kSS, params, bad);
      ADD_FAILURE() << field << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  options = small_farm(10);
  options.arrival_rate = kNan;
  expect_rejected(options, "arrival_rate");
  options = small_farm(10);
  options.session_lifetime = kNan;
  expect_rejected(options, "session_lifetime");
  options = small_farm(10);
  options.session_lifetime = kInf;
  expect_rejected(options, "session_lifetime");
  // An infinite arrival rate is legal: every session arrives at t = 0.
  options = small_farm(10);
  options.arrival_rate = kInf;
  EXPECT_EQ(run_session_farm(ProtocolKind::kSS, params, options).sessions,
            10u);
  // Leaf churn prunes trees; a single-hop farm has none to prune.
  options = small_farm(10);
  options.leaf_churn.leaf_lifetime = 30.0;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, params, options),
               std::invalid_argument);
  // Churn knobs must be sane even for chain/tree farms.
  MultiHopParams chain;
  options = small_farm(10);
  options.leaf_churn.leaf_lifetime = -2.0;
  EXPECT_THROW((void)run_session_farm(ProtocolKind::kSS, chain, options),
               std::invalid_argument);
  // Channel laws are validated up front, with the channel layer's own
  // messages: a Pareto tail index <= 1 (no finite mean), a negative
  // lognormal sigma -- for single-hop and tree farms alike -- and
  // Gilbert-Elliott probabilities outside [0, 1].
  const auto expect_message = [](const auto& run, const std::string& what) {
    try {
      run();
      ADD_FAILURE() << what << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), what);
    }
  };
  const std::string pareto =
      "DelayConfig: Pareto delay needs tail index > 1 (finite mean)";
  const std::string lognormal = "DelayConfig: lognormal sigma must be >= 0";
  options = small_farm(10);
  options.delay_model = sim::DelayModel::kPareto;
  options.delay_shape = 0.5;
  expect_message(
      [&] { (void)run_session_farm(ProtocolKind::kSS, params, options); },
      pareto);
  expect_message(
      [&] { (void)run_session_farm(ProtocolKind::kSS, chain, options); },
      pareto);
  options.delay_model = sim::DelayModel::kLognormal;
  options.delay_shape = -0.5;
  expect_message(
      [&] { (void)run_session_farm(ProtocolKind::kHS, params, options); },
      lognormal);
  expect_message(
      [&] { (void)run_session_farm(ProtocolKind::kHS, chain, options); },
      lognormal);
  options = small_farm(10);
  SingleHopParams ge = params.with_bursty_loss(5.0);
  ge.ge_p_bg = 1.5;
  expect_message(
      [&] { (void)run_session_farm(ProtocolKind::kSS, ge, options); },
      "LossConfig: p_bg must be in [0, 1]");
  ge = params.with_bursty_loss(5.0);
  ge.ge_loss_bad = -0.1;
  expect_message(
      [&] { (void)run_session_farm(ProtocolKind::kSS, ge, options); },
      "LossConfig: loss_bad must be in [0, 1]");
}

TEST(SessionFarm, SingleHopAndSharedRelayFarmsReportNoChurn) {
  // Only tree sessions churn leaves, so only tree farms allocate and fill
  // churn reports; the others must still reduce to an all-zero report.
  const SingleHopParams params = SingleHopParams::kazaa_defaults();
  const SessionFarmResult single =
      run_session_farm(ProtocolKind::kSSRT, params, small_farm(60));
  EXPECT_EQ(single.sessions, 60u);
  EXPECT_EQ(single.churn, protocols::ChurnReport{});
  SessionFarmOptions relayed = small_farm(60);
  relayed.shared_relays = 3;
  relayed.subscribers_per_relay = 8;
  relayed.shard_size = 16;
  const SessionFarmResult fabric =
      run_session_farm(ProtocolKind::kSSRT, params, relayed);
  EXPECT_EQ(fabric.sessions, 63u);
  EXPECT_GT(fabric.fabric_messages, 0u);
  EXPECT_EQ(fabric.churn, protocols::ChurnReport{});
}

}  // namespace
}  // namespace sigcomp::exp

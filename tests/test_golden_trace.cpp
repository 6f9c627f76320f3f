// Golden-trace determinism lock: run every protocol single- and multi-hop
// (and on a fan-out tree) under a pinned seed, hash the full TraceLog
// record stream, and compare against checked-in digests.
//
// The digest covers every record's time (as IEEE-754 bits), category and
// detail string, so ANY change in event ordering, channel arithmetic, RNG
// consumption or trace formatting moves it.  This is the tripwire for
// accidental behavior changes from event-core/scheduler refactors: when a
// digest moves and the change is *intended*, regenerate by running this
// test and copying the "actual" values from the failure message.  The full
// recipe -- including how to add a digest for a new protocol or topology --
// lives in docs/TESTING.md.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "analytic/hetero_multi_hop.hpp"
#include "analytic/tree_paths.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "exp/session_farm.hpp"
#include "protocols/multi_hop_run.hpp"
#include "protocols/scenario.hpp"
#include "protocols/single_hop_run.hpp"
#include "protocols/tree_run.hpp"
#include "sim/channel_process.hpp"
#include "sim/rng.hpp"
#include "sim/trace.hpp"

namespace sigcomp {
namespace {

/// FNV-1a 64-bit over the full record stream.
class TraceDigest {
 public:
  void add_bytes(const void* data, std::size_t n) noexcept {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }

  void add_record(const sim::TraceRecord& record) noexcept {
    const auto time_bits = std::bit_cast<std::uint64_t>(record.time);
    add_bytes(&time_bits, sizeof(time_bits));
    const auto category = static_cast<unsigned char>(record.category);
    add_bytes(&category, 1);
    add_bytes(record.detail.data(), record.detail.size());
  }

  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest_of(const sim::TraceLog& log) {
  TraceDigest digest;
  for (const sim::TraceRecord& record : log.records()) {
    digest.add_record(record);
  }
  return digest.value();
}

std::string hex(std::uint64_t v) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buffer;
}

std::uint64_t single_hop_digest(ProtocolKind kind) {
  sim::TraceLog log(1 << 20);
  protocols::SimOptions options;
  options.seed = 2024;
  options.sessions = 30;
  options.trace = &log;
  SingleHopParams params = SingleHopParams::kazaa_defaults();
  params.removal_rate = 1.0 / 30.0;  // short sessions keep the trace bounded
  const auto result = protocols::run_single_hop(kind, params, options);
  EXPECT_EQ(result.sessions, 30u);
  EXPECT_LT(log.total_recorded(), log.capacity())  // nothing evicted
      << "trace overflowed; the digest would silently cover a suffix only";
  return digest_of(log);
}

std::uint64_t multi_hop_digest(ProtocolKind kind) {
  sim::TraceLog log(1 << 20);
  protocols::MultiHopSimOptions options;
  options.seed = 2024;
  options.duration = 300.0;
  options.trace = &log;
  MultiHopParams params;
  params.hops = 3;
  (void)protocols::run_multi_hop(kind, params, options);
  EXPECT_LT(log.total_recorded(), log.capacity())
      << "trace overflowed; the digest would silently cover a suffix only";
  return digest_of(log);
}

/// Tree harness under the multi-hop pin conditions (seed 2024, 300 s,
/// per-edge defaults from MultiHopParams).
std::uint64_t tree_digest(ProtocolKind kind,
                          const analytic::TreeParams& tree) {
  sim::TraceLog log(1 << 20);
  protocols::TreeSimOptions options;
  options.seed = 2024;
  options.duration = 300.0;
  options.trace = &log;
  (void)protocols::run_tree(kind, tree, options);
  EXPECT_LT(log.total_recorded(), log.capacity())
      << "trace overflowed; the digest would silently cover a suffix only";
  return digest_of(log);
}

struct GoldenEntry {
  ProtocolKind kind;
  std::uint64_t digest;
};

// Pinned against the PR 3 event core.  See docs/TESTING.md before "fixing"
// a mismatch by editing these constants.
constexpr GoldenEntry kSingleHopGolden[] = {
    {ProtocolKind::kSS, 0x5369480b0c5f602dULL},
    {ProtocolKind::kSSER, 0xe9b3b8395351ff0aULL},
    {ProtocolKind::kSSRT, 0xea6c3714f0f6b7b9ULL},
    {ProtocolKind::kSSRTR, 0xd967c29bef6d3287ULL},
    {ProtocolKind::kHS, 0x4cd155646150f6f1ULL},
};

// The PR 3 chain digests.  The PR 4 tree generalization MUST keep these
// bit-for-bit: a fan-out-1 tree is the chain.  The PR 5 StateSlot refactor
// (explicit removal + membership on trees) must keep them too -- SS+ER and
// SS+RTR were pinned when PR 5 opened the chain to them; with no removal in
// flight they replay SS / SS+RT exactly, hence the duplicated digests.
constexpr GoldenEntry kMultiHopGolden[] = {
    {ProtocolKind::kSS, 0xeca1ca36a4fe8658ULL},
    {ProtocolKind::kSSER, 0xeca1ca36a4fe8658ULL},
    {ProtocolKind::kSSRT, 0xf9691707db6155edULL},
    {ProtocolKind::kSSRTR, 0xf9691707db6155edULL},
    {ProtocolKind::kHS, 0x7ddfdce05e469af2ULL},
};

TEST(GoldenTrace, SingleHopRecordStreamsArePinned) {
  for (const GoldenEntry& entry : kSingleHopGolden) {
    const std::uint64_t actual = single_hop_digest(entry.kind);
    EXPECT_EQ(actual, entry.digest)
        << "single-hop " << to_string(entry.kind)
        << " trace digest moved; actual " << hex(actual);
  }
}

TEST(GoldenTrace, MultiHopRecordStreamsArePinned) {
  for (const GoldenEntry& entry : kMultiHopGolden) {
    const std::uint64_t actual = multi_hop_digest(entry.kind);
    EXPECT_EQ(actual, entry.digest)
        << "multi-hop " << to_string(entry.kind)
        << " trace digest moved; actual " << hex(actual);
  }
}

TEST(GoldenTrace, HeteroChainRecordStreamsArePinned) {
  // The heterogeneous run_multi_hop overload off the paper's defaults:
  // every hop its own loss and delay, the middle hop Gilbert-Elliott
  // bursty, exponential timers, Pareto delay and a nonzero HS false-signal
  // rate -- the paths the homogeneous pins above never reach.  As there,
  // SS+ER and SS+RTR replay SS and SS+RT with no removal in flight.
  constexpr GoldenEntry kHeteroGolden[] = {
      {ProtocolKind::kSS, 0x1c27d3f881fde3e1ULL},
      {ProtocolKind::kSSER, 0x1c27d3f881fde3e1ULL},
      {ProtocolKind::kSSRT, 0xb2319e19101b8b83ULL},
      {ProtocolKind::kSSRTR, 0xb2319e19101b8b83ULL},
      {ProtocolKind::kHS, 0xb9cbef746e5f3baeULL},
  };
  analytic::HeteroMultiHopParams params;
  params.loss = {0.01, 0.05, 0.02};
  params.delay = {0.02, 0.08, 0.04};
  params.set_hop_bursty(1, 8.0);
  params.false_signal_rate = 0.01;
  for (const GoldenEntry& entry : kHeteroGolden) {
    sim::TraceLog log(1 << 20);
    protocols::MultiHopSimOptions options;
    options.seed = 2024;
    options.duration = 300.0;
    options.timer_dist = sim::Distribution::kExponential;
    options.delay_model = sim::DelayModel::kPareto;
    options.trace = &log;
    (void)protocols::run_multi_hop(entry.kind, params, options);
    EXPECT_LT(log.total_recorded(), log.capacity())
        << "trace overflowed; the digest would silently cover a suffix only";
    const std::uint64_t actual = digest_of(log);
    EXPECT_EQ(actual, entry.digest)
        << "heterogeneous chain " << to_string(entry.kind)
        << " trace digest moved; actual " << hex(actual);
  }
}

TEST(GoldenTrace, DegenerateTreeReproducesChainDigests) {
  // The tree harness on a fan-out-1 spec must replay the chain harness
  // exactly: same RNG substreams, same wiring order, same trace labels --
  // so its digests are the *chain* constants above, not new ones.
  MultiHopParams chain;
  chain.hops = 3;
  const analytic::TreeParams params = analytic::TreeParams::chain(chain);
  for (const GoldenEntry& entry : kMultiHopGolden) {
    const std::uint64_t actual = tree_digest(entry.kind, params);
    EXPECT_EQ(actual, entry.digest)
        << "degenerate tree " << to_string(entry.kind)
        << " diverged from the chain golden trace; actual " << hex(actual);
  }
}

TEST(GoldenTrace, FanOutTreeRecordStreamsArePinned) {
  // A genuinely branching topology: balanced binary tree of depth 2
  // (7 nodes, 4 receivers).  SS/SS+RT/HS pinned in PR 4; SS+ER/SS+RTR
  // pinned in PR 5 (without removals they replay SS/SS+RT bit-for-bit --
  // see kMultiHopGolden).
  constexpr GoldenEntry kTreeGolden[] = {
      {ProtocolKind::kSS, 0x398cd857f28012f5ULL},
      {ProtocolKind::kSSER, 0x398cd857f28012f5ULL},
      {ProtocolKind::kSSRT, 0x16122c3c8a08afebULL},
      {ProtocolKind::kSSRTR, 0x16122c3c8a08afebULL},
      {ProtocolKind::kHS, 0xc5fc6d8b5c262977ULL},
  };
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  for (const GoldenEntry& entry : kTreeGolden) {
    const std::uint64_t actual = tree_digest(entry.kind, params);
    EXPECT_EQ(actual, entry.digest)
        << "fan-out tree " << to_string(entry.kind)
        << " trace digest moved; actual " << hex(actual);
  }
}

TEST(GoldenTrace, LeafChurnRecordStreamsArePinned) {
  // The membership machinery under a pinned seed: a fanout-2 depth-2 tree
  // whose leaves join and leave IGMP-style.  Here the five protocols all
  // genuinely differ (prunes exercise each one's removal semantics), so
  // five distinct digests.  Pinned in PR 5.
  constexpr GoldenEntry kChurnGolden[] = {
      {ProtocolKind::kSS, 0x32f2444f130b1f46ULL},
      {ProtocolKind::kSSER, 0x7c8a56c25b35a20aULL},
      {ProtocolKind::kSSRT, 0x97302a018c6111daULL},
      {ProtocolKind::kSSRTR, 0xd822b1ee59d1e9f2ULL},
      {ProtocolKind::kHS, 0xc44152476a608295ULL},
  };
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  for (const GoldenEntry& entry : kChurnGolden) {
    sim::TraceLog log(1 << 20);
    protocols::TreeSimOptions options;
    options.seed = 2024;
    options.duration = 300.0;
    options.trace = &log;
    options.churn.leaf_lifetime = 30.0;
    options.churn.rejoin_rate = 1.0 / 15.0;
    const protocols::TreeSimResult result =
        protocols::run_tree(entry.kind, params, options);
    EXPECT_GT(result.churn.leaves, 0u) << to_string(entry.kind);
    EXPECT_LT(log.total_recorded(), log.capacity())
        << "trace overflowed; the digest would silently cover a suffix only";
    const std::uint64_t actual = digest_of(log);
    EXPECT_EQ(actual, entry.digest)
        << "leaf-churn " << to_string(entry.kind)
        << " trace digest moved; actual " << hex(actual);
  }
}

TEST(GoldenTrace, TreeRunMetricsArePinned) {
  // Trace digests see only the channels, not the harness's monitors, so
  // this pins the result bits instead: every per-node and per-leaf-path
  // inconsistency plus the counters, on a binary depth-3 tree under leaf
  // churn and interior-relay crashes.
  constexpr GoldenEntry kTreeMetricGolden[] = {
      {ProtocolKind::kSS, 0x392bcf07e322be9bULL},
      {ProtocolKind::kSSER, 0xe81341c3f4bde6feULL},
      {ProtocolKind::kSSRT, 0x68df806de4e7a83aULL},
      {ProtocolKind::kSSRTR, 0x7d23fe383d0a9fd1ULL},
      {ProtocolKind::kHS, 0x5025549271aae875ULL},
  };
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 3);
  for (const GoldenEntry& entry : kTreeMetricGolden) {
    protocols::TreeSimOptions options;
    options.seed = 2024;
    options.duration = 600.0;
    options.churn.leaf_lifetime = 30.0;
    options.churn.rejoin_rate = 1.0 / 15.0;
    options.scenario.failure =
        protocols::FailureConfig::relay_crash(1.0 / 40.0, 10.0, 5.0);
    const protocols::TreeSimResult result =
        protocols::run_tree(entry.kind, params, options);
    EXPECT_GT(result.churn.leaves, 0u) << to_string(entry.kind);
    EXPECT_GT(result.relay_crashes, 0u) << to_string(entry.kind);
    TraceDigest digest;
    const auto add = [&digest](auto value) {
      const auto bits = std::bit_cast<std::uint64_t>(value);
      digest.add_bytes(&bits, sizeof(bits));
    };
    add(result.metrics.inconsistency);
    for (const double v : result.node_inconsistency) add(v);
    for (const double v : result.leaf_path_inconsistency) add(v);
    add(result.messages);
    add(result.relay_timeouts);
    const std::uint64_t actual = digest.value();
    EXPECT_EQ(actual, entry.digest)
        << "tree " << to_string(entry.kind)
        << " metric digest moved; actual " << hex(actual);
  }
}

// ------------------------------------------------- farm metric digests --

/// FNV-1a over the farm's per-session metrics stream, every double as
/// IEEE-754 bits in global session order.  The farm analogue of the trace
/// digests above: any change in per-session RNG keying, event ordering,
/// shard reduction order or metric arithmetic moves it.
std::uint64_t farm_digest_of(const std::vector<Metrics>& sessions) {
  TraceDigest digest;
  for (const Metrics& m : sessions) {
    for (const double v :
         {m.inconsistency, m.message_rate, m.raw_message_rate,
          m.session_length, m.breakdown.trigger, m.breakdown.refresh,
          m.breakdown.explicit_removal, m.breakdown.reliable_trigger,
          m.breakdown.reliable_removal}) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      digest.add_bytes(&bits, sizeof(bits));
    }
  }
  return digest.value();
}

/// Pin conditions: 60 sessions, multi-shard (16) so the digest also locks
/// the shard decomposition and reduce order, single worker thread (the
/// farm is bit-identical at any thread count -- locked elsewhere).
exp::SessionFarmOptions farm_pin_options() {
  exp::SessionFarmOptions options;
  options.seed = 2024;
  options.sessions = 60;
  options.arrival_rate = 6.0;
  options.session_lifetime = 15.0;
  options.threads = 1;
  options.shard_size = 16;
  options.keep_per_session = true;
  return options;
}

TEST(GoldenTrace, SingleHopFarmMetricStreamIsPinned) {
  const exp::SessionFarmResult result = exp::run_session_farm(
      ProtocolKind::kSS, SingleHopParams::kazaa_defaults(), farm_pin_options());
  const std::uint64_t actual = farm_digest_of(result.per_session);
  EXPECT_EQ(actual, 0xaad070c3903a7241ULL)
      << "single-hop farm metric digest moved; actual " << hex(actual);
}

TEST(GoldenTrace, ChainFarmMetricStreamIsPinned) {
  MultiHopParams params;
  params.hops = 3;
  const exp::SessionFarmResult result =
      exp::run_session_farm(ProtocolKind::kSSRT, params, farm_pin_options());
  const std::uint64_t actual = farm_digest_of(result.per_session);
  EXPECT_EQ(actual, 0xfe1367601978d13cULL)
      << "chain farm metric digest moved; actual " << hex(actual);
}

TEST(GoldenTrace, TreeFarmMetricStreamIsPinned) {
  MultiHopParams base;
  base.hops = 2;
  const analytic::TreeParams tree = analytic::TreeParams::balanced(base, 2, 2);
  const exp::SessionFarmResult result =
      exp::run_session_farm(ProtocolKind::kHS, tree, farm_pin_options());
  const std::uint64_t actual = farm_digest_of(result.per_session);
  EXPECT_EQ(actual, 0x4b3eace907484c39ULL)
      << "tree farm metric digest moved; actual " << hex(actual);
}

TEST(GoldenTrace, SharedRelayFarmMetricStreamIsPinned) {
  // The lockstep-epoch schedule pinned end to end: besides the per-session
  // metrics, the event count and horizon lock the epoch timeline and the
  // fabric counters lock routing, delivery and the relay hubs.
  exp::SessionFarmOptions options = farm_pin_options();
  options.shared_relays = 2;
  options.subscribers_per_relay = 8;
  const exp::SessionFarmResult result = exp::run_session_farm(
      ProtocolKind::kSSRT, SingleHopParams::kazaa_defaults(), options);
  const std::uint64_t actual = farm_digest_of(result.per_session);
  EXPECT_EQ(actual, 0xbedd14ff0ffba92eULL)
      << "shared-relay farm metric digest moved; actual " << hex(actual);
  EXPECT_EQ(result.events_executed, 1205u);
  const auto horizon_bits = std::bit_cast<std::uint64_t>(result.horizon);
  EXPECT_EQ(horizon_bits, 0x405487c2402e5d6cULL)
      << "shared-relay farm horizon moved; actual " << hex(horizon_bits);
  EXPECT_EQ(result.fabric_messages, 234u);
  EXPECT_EQ(result.fabric_dropped, 2u);
  EXPECT_EQ(result.fabric_epochs, 69u);
  EXPECT_EQ(result.fabric_rings, 2u);
  EXPECT_EQ(result.relay_installs, 16u);
  EXPECT_EQ(result.relay_refreshes, 93u);
  EXPECT_EQ(result.relay_soft_timeouts, 0u);
}

TEST(GoldenTrace, DigestIsReproducibleWithinProcess) {
  // The digest itself must be a pure function of the run.
  EXPECT_EQ(single_hop_digest(ProtocolKind::kSS),
            single_hop_digest(ProtocolKind::kSS));
  EXPECT_EQ(multi_hop_digest(ProtocolKind::kSSRT),
            multi_hop_digest(ProtocolKind::kSSRT));
}

TEST(GoldenTrace, DigestIsSensitiveToEveryField) {
  sim::TraceRecord a{1.0, sim::TraceCategory::kSend, "fwd TRIGGER"};
  TraceDigest base;
  base.add_record(a);

  TraceDigest time_moved;
  time_moved.add_record({1.0000000001, a.category, a.detail});
  EXPECT_NE(base.value(), time_moved.value());

  TraceDigest category_moved;
  category_moved.add_record({a.time, sim::TraceCategory::kDeliver, a.detail});
  EXPECT_NE(base.value(), category_moved.value());

  TraceDigest detail_moved;
  detail_moved.add_record({a.time, a.category, "fwd REFRESH"});
  EXPECT_NE(base.value(), detail_moved.value());
}

}  // namespace
}  // namespace sigcomp

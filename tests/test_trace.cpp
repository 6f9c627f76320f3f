#include "sim/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/params.hpp"
#include "protocols/multi_hop_run.hpp"
#include "protocols/single_hop_run.hpp"
#include "protocols/topology.hpp"
#include "sim/channel.hpp"
#include "sim/simulator.hpp"

namespace sigcomp::sim {
namespace {

TEST(TraceLog, RecordsInOrder) {
  TraceLog log;
  log.record(1.0, TraceCategory::kSend, "a");
  log.record(2.0, TraceCategory::kDeliver, "b");
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[0], (TraceRecord{1.0, TraceCategory::kSend, "a"}));
  EXPECT_EQ(log.records()[1], (TraceRecord{2.0, TraceCategory::kDeliver, "b"}));
}

TEST(TraceLog, BoundedCapacityEvictsOldest) {
  TraceLog log(3);
  for (int i = 0; i < 5; ++i) {
    log.record(double(i), TraceCategory::kState, std::to_string(i));
  }
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total_recorded(), 5u);
  EXPECT_EQ(log.records().front().detail, "2");
  EXPECT_EQ(log.records().back().detail, "4");
}

TEST(TraceLog, ZeroCapacityRejected) {
  EXPECT_THROW(TraceLog(0), std::invalid_argument);
}

TEST(TraceLog, FilterAndCount) {
  TraceLog log;
  log.record(1.0, TraceCategory::kSend, "x");
  log.record(2.0, TraceCategory::kDrop, "y");
  log.record(3.0, TraceCategory::kSend, "z");
  EXPECT_EQ(log.count(TraceCategory::kSend), 2u);
  EXPECT_EQ(log.count(TraceCategory::kDrop), 1u);
  EXPECT_EQ(log.count(TraceCategory::kTimer), 0u);
  const auto sends = log.filter(TraceCategory::kSend);
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[1].detail, "z");
}

TEST(TraceLog, ClearKeepsTotal) {
  TraceLog log;
  log.record(1.0, TraceCategory::kState, "a");
  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.total_recorded(), 1u);
}

TEST(TraceLog, DumpFormat) {
  TraceLog log;
  log.record(1.5, TraceCategory::kDeliver, "fwd TRIGGER");
  std::ostringstream os;
  log.dump(os);
  EXPECT_EQ(os.str(), "1.5 deliver fwd TRIGGER\n");
}

TEST(TraceLog, CategoryNamesDistinct) {
  EXPECT_EQ(to_string(TraceCategory::kSend), "send");
  EXPECT_EQ(to_string(TraceCategory::kDrop), "drop");
  EXPECT_EQ(to_string(TraceCategory::kSession), "session");
}

TEST(ChannelTrace, RecordsSendDropDeliver) {
  Simulator sim;
  Rng rng(1);
  TraceLog log;
  Channel<int> ch(sim, rng, 0.0, 0.1, Distribution::kDeterministic,
                  [](const int&) {});
  const ChannelTrace<int> binding{
      &log, "link", [](const int& v) { return std::to_string(v); }};
  ch.set_trace(&binding);
  ch.send(7);
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log.records()[0].category, TraceCategory::kSend);
  EXPECT_EQ(log.records()[0].detail, "link 7");
  EXPECT_EQ(log.records()[1].category, TraceCategory::kDeliver);
  EXPECT_DOUBLE_EQ(log.records()[1].time, 0.1);

  ch.set_loss(1.0);
  ch.send(8);
  sim.run();
  EXPECT_EQ(log.count(TraceCategory::kDrop), 1u);
}

TEST(HarnessTrace, SingleHopRunEmitsSessionAndMessageEvents) {
  TraceLog log(1 << 20);
  protocols::SimOptions options;
  options.sessions = 5;
  options.seed = 3;
  options.trace = &log;
  SingleHopParams params = SingleHopParams::kazaa_defaults();
  params.removal_rate = 1.0 / 30.0;  // short sessions keep the trace small
  (void)protocols::run_single_hop(ProtocolKind::kSSER, params, options);

  // 5 starts, 5 removals, 5 absorptions.
  const auto sessions = log.filter(TraceCategory::kSession);
  std::size_t starts = 0, removes = 0, absorbed = 0;
  for (const auto& r : sessions) {
    starts += r.detail.starts_with("start");
    removes += r.detail.starts_with("remove");
    absorbed += r.detail.starts_with("absorbed");
  }
  EXPECT_EQ(starts, 5u);
  EXPECT_EQ(removes, 5u);
  EXPECT_EQ(absorbed, 5u);
  // Triggers and refreshes were recorded with channel labels.
  EXPECT_GT(log.count(TraceCategory::kSend), 5u);
  bool saw_trigger = false;
  for (const auto& r : log.records()) {
    if (r.category == TraceCategory::kSend && r.detail == "fwd TRIGGER") {
      saw_trigger = true;
      break;
    }
  }
  EXPECT_TRUE(saw_trigger);
}

TEST(ChannelTrace, DetachedTracingIsZeroCost) {
  // With no log attached, tracing must not record anything AND must not
  // evaluate the describe formatter -- formatting a detail string per
  // message would make tracing pay even when off.
  Simulator sim;
  Rng rng(1);
  int describe_calls = 0;
  const auto counting_describe = [&describe_calls](const int& v) {
    ++describe_calls;
    return std::to_string(v);
  };

  Channel<int> detached(sim, rng, 0.0, 0.1, Distribution::kDeterministic,
                        [](const int&) {});
  // A describe formatter bound with a null log must never run.
  ChannelTrace<int> binding{nullptr, "link", counting_describe};
  detached.set_trace(&binding);
  for (int i = 0; i < 100; ++i) detached.send(i);
  sim.run();
  EXPECT_EQ(describe_calls, 0);

  // Attaching the log turns both recording and formatting on; detaching
  // turns both off again -- by nulling the binding's log, or by unbinding.
  TraceLog log;
  binding.log = &log;
  detached.send(1);
  sim.run();
  EXPECT_EQ(describe_calls, 2);  // send + deliver
  EXPECT_EQ(log.size(), 2u);
  binding.log = nullptr;
  detached.send(2);
  sim.run();
  EXPECT_EQ(describe_calls, 2);
  EXPECT_EQ(log.size(), 2u);
  binding.log = &log;
  detached.set_trace(nullptr);
  detached.send(3);
  sim.run();
  EXPECT_EQ(describe_calls, 2);
  EXPECT_EQ(log.size(), 2u);
}

TEST(HarnessTrace, DetachedSingleHopRunRecordsNothing) {
  protocols::SimOptions options;
  options.sessions = 5;
  options.seed = 3;
  options.trace = nullptr;  // detached: the default
  SingleHopParams params = SingleHopParams::kazaa_defaults();
  params.removal_rate = 1.0 / 30.0;
  const auto result =
      protocols::run_single_hop(ProtocolKind::kSSER, params, options);
  EXPECT_EQ(result.sessions, 5u);
}

TEST(HarnessTrace, MultiHopRunEmitsPerHopChannelEvents) {
  TraceLog log(1 << 20);
  protocols::MultiHopSimOptions options;
  options.duration = 200.0;
  options.seed = 3;
  options.trace = &log;
  MultiHopParams params;
  params.hops = 3;
  (void)protocols::run_multi_hop(ProtocolKind::kSSRT, params, options);

  EXPECT_GT(log.count(TraceCategory::kSend), 0u);
  EXPECT_GT(log.count(TraceCategory::kDeliver), 0u);
  bool saw_first_hop = false, saw_last_hop = false;
  for (const auto& r : log.records()) {
    if (r.category != TraceCategory::kSend) continue;
    saw_first_hop = saw_first_hop || r.detail.starts_with("dn0 ");
    saw_last_hop = saw_last_hop || r.detail.starts_with("dn2 ");
  }
  EXPECT_TRUE(saw_first_hop);
  EXPECT_TRUE(saw_last_hop);
}

/// The (category, detail) pairs of a log's channel records, in order.
std::vector<std::pair<TraceCategory, std::string>> channel_records(
    const TraceLog& log) {
  std::vector<std::pair<TraceCategory, std::string>> out;
  for (const auto& r : log.records()) {
    if (r.category == TraceCategory::kSession) continue;
    out.emplace_back(r.category, r.detail);
  }
  return out;
}

TEST(HarnessTrace, SingleHopChannelDetailsKeepTheirExactFormat) {
  // Lossless, deterministic delays: the first session's HS handshake is a
  // fixed record sequence.  The channels render "<label> <wire name>" from
  // the harness-owned bindings, exactly as the per-channel strings did.
  TraceLog log(1 << 20);
  protocols::SimOptions options;
  options.sessions = 1;
  options.seed = 3;
  options.delay_model = DelayModel::kDeterministic;
  options.trace = &log;
  SingleHopParams params = SingleHopParams::kazaa_defaults();
  params.loss = 0.0;
  (void)protocols::run_single_hop(ProtocolKind::kHS, params, options);
  const auto records = channel_records(log);
  using C = TraceCategory;
  const std::vector<std::pair<TraceCategory, std::string>> handshake = {
      {C::kSend, "fwd TRIGGER"},        {C::kDeliver, "fwd TRIGGER"},
      {C::kSend, "rev ACK-TRIGGER"},    {C::kDeliver, "rev ACK-TRIGGER"},
  };
  ASSERT_GE(records.size(), handshake.size());
  EXPECT_EQ(std::vector(records.begin(), records.begin() + 4), handshake);
  // ... and it ends with the removal: the receiver acknowledges it and the
  // session is absorbed right there, so the run stops before the ACK lands.
  const std::vector<std::pair<TraceCategory, std::string>> teardown = {
      {C::kSend, "fwd REMOVE"},
      {C::kDeliver, "fwd REMOVE"},
      {C::kSend, "rev ACK-REMOVE"},
  };
  EXPECT_EQ(std::vector(records.end() - 3, records.end()), teardown);
}

TEST(HarnessTrace, TopologyChannelDetailsKeepTheirExactFormat) {
  // A two-edge HS chain: the install walks dn0, dn1 and is acknowledged
  // per hop on up0, up1, with the records in exact event order.
  Simulator sim;
  Rng channel_rng(1, 1);
  Rng node_rng(1, 2);
  TraceLog log;
  protocols::TimerSettings timers;
  timers.retrans = 10.0;  // no retransmission before the ACKs land
  protocols::Topology topology(
      sim, channel_rng, node_rng, mechanisms(ProtocolKind::kHS), timers,
      TreeSpec::chain(2), {LossConfig::iid(0.0), LossConfig::iid(0.0)},
      {DelayConfig::deterministic(0.01), DelayConfig::deterministic(0.01)},
      nullptr, &log);
  topology.sender().start(1);
  sim.run_until(1.0);
  using C = TraceCategory;
  const std::vector<std::pair<TraceCategory, std::string>> expected = {
      {C::kSend, "dn0 TRIGGER"},      {C::kDeliver, "dn0 TRIGGER"},
      {C::kSend, "up0 ACK-TRIGGER"},  {C::kSend, "dn1 TRIGGER"},
      {C::kDeliver, "up0 ACK-TRIGGER"}, {C::kDeliver, "dn1 TRIGGER"},
      {C::kSend, "up1 ACK-TRIGGER"},  {C::kDeliver, "up1 ACK-TRIGGER"},
  };
  EXPECT_EQ(channel_records(log), expected);
}

}  // namespace
}  // namespace sigcomp::sim

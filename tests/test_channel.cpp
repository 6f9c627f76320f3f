#include "sim/channel.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace sigcomp::sim {
namespace {

struct Packet {
  int id = 0;
};

TEST(Channel, DeliversWithDeterministicDelay) {
  Simulator sim;
  Rng rng(1);
  std::vector<double> arrivals;
  Channel<Packet> ch(sim, rng, 0.0, 0.25, Distribution::kDeterministic,
                     [&](const Packet&) { arrivals.push_back(sim.now()); });
  ch.send({1});
  sim.run();
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(arrivals[0], 0.25);
  EXPECT_EQ(ch.counters().sent, 1u);
  EXPECT_EQ(ch.counters().delivered, 1u);
  EXPECT_EQ(ch.counters().lost, 0u);
}

TEST(Channel, PayloadContentSurvives) {
  Simulator sim;
  Rng rng(1);
  int received = 0;
  Channel<Packet> ch(sim, rng, 0.0, 0.1, Distribution::kDeterministic,
                     [&](const Packet& p) { received = p.id; });
  ch.send({42});
  sim.run();
  EXPECT_EQ(received, 42);
}

TEST(Channel, FullLossDropsEverything) {
  Simulator sim;
  Rng rng(2);
  int delivered = 0;
  Channel<Packet> ch(sim, rng, 1.0, 0.1, Distribution::kDeterministic,
                     [&](const Packet&) { ++delivered; });
  for (int i = 0; i < 50; ++i) ch.send({i});
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(ch.counters().sent, 50u);
  EXPECT_EQ(ch.counters().lost, 50u);
}

TEST(Channel, LossRateIsRespectedStatistically) {
  Simulator sim;
  Rng rng(3);
  int delivered = 0;
  Channel<Packet> ch(sim, rng, 0.2, 0.001, Distribution::kDeterministic,
                     [&](const Packet&) { ++delivered; });
  constexpr int kSent = 20000;
  for (int i = 0; i < kSent; ++i) ch.send({i});
  sim.run();
  EXPECT_NEAR(delivered / double(kSent), 0.8, 0.01);
  EXPECT_EQ(ch.counters().sent, static_cast<std::uint64_t>(kSent));
  EXPECT_EQ(ch.counters().delivered + ch.counters().lost,
            static_cast<std::uint64_t>(kSent));
}

TEST(Channel, NeverReordersEvenWithRandomDelays) {
  Simulator sim;
  Rng rng(4);
  std::vector<int> received;
  Channel<Packet> ch(sim, rng, 0.0, 0.5, Distribution::kExponential,
                     [&](const Packet& p) { received.push_back(p.id); });
  for (int i = 0; i < 500; ++i) {
    // Interleave sends with time advancement to vary send instants.
    sim.schedule_at(0.01 * i, [&ch, i] { ch.send({i}); });
  }
  sim.run();
  ASSERT_EQ(received.size(), 500u);
  for (int i = 0; i < 500; ++i) EXPECT_EQ(received[i], i) << "position " << i;
}

TEST(Channel, ExponentialDelayHasRequestedMean) {
  Simulator sim;
  Rng rng(5);
  double total_delay = 0.0;
  int count = 0;
  Channel<Packet> ch(sim, rng, 0.0, 0.2, Distribution::kExponential,
                     [&](const Packet&) {
                       total_delay += sim.now();
                       ++count;
                     });
  // All sent at t=0 -- note FIFO pushes arrivals up, so compare against the
  // max-so-far-corrected expectation loosely.
  constexpr int kSent = 5000;
  for (int i = 0; i < kSent; ++i) ch.send({i});
  sim.run();
  ASSERT_EQ(count, kSent);
  // The running maximum of exponentials grows like ln(n); just check the
  // mean observed delay is at least the distribution mean and bounded.
  EXPECT_GT(total_delay / count, 0.2);
  EXPECT_LT(total_delay / count, 0.2 * (std::log(double(kSent)) + 2.0));
}

TEST(Channel, SetLossMidRunChangesBehaviour) {
  Simulator sim;
  Rng rng(6);
  int delivered = 0;
  Channel<Packet> ch(sim, rng, 1.0, 0.01, Distribution::kDeterministic,
                     [&](const Packet&) { ++delivered; });
  ch.send({1});  // lost
  ch.set_loss(0.0);
  ch.send({2});  // delivered
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(ch.counters().lost, 1u);
}

TEST(Channel, SetSinkRewiresDelivery) {
  Simulator sim;
  Rng rng(7);
  int a = 0, b = 0;
  Channel<Packet> ch(sim, rng, 0.0, 0.01, Distribution::kDeterministic,
                     [&](const Packet&) { ++a; });
  ch.send({1});
  sim.run();
  ch.set_sink([&](const Packet&) { ++b; });
  ch.send({2});
  sim.run();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

TEST(Channel, AccessorsReportConfiguration) {
  Simulator sim;
  Rng rng(8);
  Channel<Packet> ch(sim, rng, 0.1, 0.3, Distribution::kDeterministic,
                     [](const Packet&) {});
  EXPECT_DOUBLE_EQ(ch.loss(), 0.1);
  EXPECT_DOUBLE_EQ(ch.mean_delay(), 0.3);
  EXPECT_EQ(ch.loss_config().model, LossModel::kIid);
  EXPECT_EQ(ch.delay_config().model, DelayModel::kDeterministic);
}

TEST(Channel, ConstructorAndSetLossValidateProbability) {
  Simulator sim;
  Rng rng(9);
  const auto sink = [](const Packet&) {};
  EXPECT_THROW((Channel<Packet>(sim, rng, -0.1, 0.1,
                                Distribution::kDeterministic, sink)),
               std::invalid_argument);
  EXPECT_THROW((Channel<Packet>(sim, rng, 1.5, 0.1,
                                Distribution::kDeterministic, sink)),
               std::invalid_argument);
  EXPECT_THROW((Channel<Packet>(sim, rng, std::nan(""), 0.1,
                                Distribution::kDeterministic, sink)),
               std::invalid_argument);
  Channel<Packet> ch(sim, rng, 0.5, 0.1, Distribution::kDeterministic, sink);
  EXPECT_THROW(ch.set_loss(-0.01), std::invalid_argument);
  EXPECT_THROW(ch.set_loss(1.01), std::invalid_argument);
  ch.set_loss(1.0);  // blackhole is legal
  EXPECT_DOUBLE_EQ(ch.loss(), 1.0);
}

TEST(Channel, GilbertElliottChannelDropsInBursts) {
  Simulator sim;
  Rng rng(10);
  int delivered = 0;
  // Mean loss 0.2 but concentrated in bursts of mean length 5.
  Channel<Packet> ch(sim, rng,
                     LossConfig::gilbert_elliott_matched(0.2, 5.0),
                     DelayConfig::deterministic(0.001),
                     [&](const Packet&) { ++delivered; });
  constexpr int kSent = 50000;
  for (int i = 0; i < kSent; ++i) ch.send({i});
  sim.run();
  EXPECT_EQ(ch.counters().sent, static_cast<std::uint64_t>(kSent));
  EXPECT_NEAR(static_cast<double>(ch.counters().lost) / kSent, 0.2, 0.02);
  EXPECT_NEAR(ch.loss(), 0.2, 1e-12);
}

/// A delivery target for compact channels (owner dispatch).
struct Counter {
  int received = 0;
  int last_id = -1;
  void on(const Packet& p) {
    ++received;
    last_id = p.id;
  }
};

TEST(Channel, CompactChannelsDispatchToTheirOwnersMember) {
  Simulator sim;
  Rng rng(11);
  const ChannelConfig shared(sim, LossConfig::iid(0.0),
                             DelayConfig::deterministic(0.2));
  Counter a;
  Counter b;
  Channel<Packet> to_a(shared, rng,
                       Channel<Packet>::Delivery::bind<&Counter::on>(&a));
  Channel<Packet> to_b(shared, rng);
  to_b.set_sink(Channel<Packet>::Delivery::bind<&Counter::on>(&b));
  to_a.send({5});
  to_b.send({6});
  to_b.send({7});
  sim.run();
  EXPECT_EQ(a.received, 1);
  EXPECT_EQ(a.last_id, 5);
  EXPECT_EQ(b.received, 2);
  EXPECT_EQ(b.last_id, 7);
  EXPECT_DOUBLE_EQ(sim.now(), 0.2);
  EXPECT_EQ(&to_a.delay_config(), &shared.delay);  // shared, not copied
}

TEST(Channel, SetLossOnOneChannelLeavesItsSiblingsOnTheSharedConfig) {
  // Fault injection on one channel must not leak into the channels that
  // share its configuration (every session of a farm shard shares one).
  Simulator sim;
  Rng rng(12);
  const ChannelConfig shared(sim, LossConfig::iid(0.0),
                             DelayConfig::deterministic(0.01));
  Counter a;
  Counter b;
  Channel<Packet> blackholed(shared, rng,
                             Channel<Packet>::Delivery::bind<&Counter::on>(&a));
  Channel<Packet> sibling(shared, rng,
                          Channel<Packet>::Delivery::bind<&Counter::on>(&b));
  blackholed.set_loss(1.0);
  for (int i = 0; i < 20; ++i) {
    blackholed.send({i});
    sibling.send({i});
  }
  sim.run();
  EXPECT_EQ(a.received, 0);
  EXPECT_EQ(blackholed.counters().lost, 20u);
  EXPECT_DOUBLE_EQ(blackholed.loss(), 1.0);
  EXPECT_EQ(b.received, 20);
  EXPECT_EQ(sibling.counters().lost, 0u);
  EXPECT_DOUBLE_EQ(sibling.loss(), 0.0);
  EXPECT_EQ(&sibling.loss_config(), &shared.loss);
  EXPECT_EQ(shared.loss, LossConfig::iid(0.0));
  // Healing the faulty link restores delivery; the sibling never changed.
  blackholed.set_loss(0.0);
  blackholed.send({99});
  sim.run();
  EXPECT_EQ(a.received, 1);
  EXPECT_EQ(a.last_id, 99);
}

TEST(Channel, CompactGilbertElliottChannelMatchesTheLossProcess) {
  // The GE chain's state is one bit in the channel next to a shared
  // config; its drop sequence must equal the stateful LossProcess's.
  Simulator sim;
  const LossConfig ge = LossConfig::gilbert_elliott_matched(0.3, 4.0);
  const ChannelConfig shared(sim, ge, DelayConfig::deterministic(0.001));
  Rng channel_rng(13);
  Rng process_rng(13);
  Channel<Packet> ch(shared, channel_rng);
  LossProcess process(ge);
  std::uint64_t lost = 0;
  for (int i = 0; i < 2000; ++i) {
    ch.send({i});
    lost += process.drop(process_rng) ? 1 : 0;
    // Deterministic delay consumes no draw, so the streams stay aligned.
    ASSERT_EQ(ch.counters().lost, lost) << "message " << i;
  }
  EXPECT_GT(lost, 0u);
}

TEST(Channel, SharedConfigValidatesOnce) {
  Simulator sim;
  EXPECT_THROW(ChannelConfig(sim, LossConfig::iid(1.5),
                             DelayConfig::deterministic(0.1)),
               std::invalid_argument);
  EXPECT_THROW(ChannelConfig(sim, LossConfig::gilbert_elliott(0.1, -0.2),
                             DelayConfig::deterministic(0.1)),
               std::invalid_argument);
  EXPECT_THROW(ChannelConfig(sim, LossConfig::iid(0.1),
                             DelayConfig::pareto(0.1, 0.5)),
               std::invalid_argument);
  EXPECT_THROW(ChannelConfig(sim, LossConfig::iid(0.1),
                             DelayConfig::lognormal(0.1, -1.0)),
               std::invalid_argument);
  EXPECT_NO_THROW(ChannelConfig(sim, LossConfig::iid(0.1),
                                DelayConfig::pareto(0.1, 1.5)));
}

}  // namespace
}  // namespace sigcomp::sim

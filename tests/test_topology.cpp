// Tests of the tree signaling topology subsystem: TreeSpec geometry, the
// per-path analytic composition (analytic/tree_paths.hpp), the wired
// protocols::Topology, chain degeneracy (fan-out 1 == the multi-hop chain,
// bit for bit), teardown hygiene (stop() leaves no dangling events and the
// event pool stays flat), and tree sessions in the session farm.
#include "protocols/topology.hpp"

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "analytic/hetero_multi_hop.hpp"
#include "analytic/tree_paths.hpp"
#include "core/params.hpp"
#include "core/protocol.hpp"
#include "core/topology.hpp"
#include "exp/session_farm.hpp"
#include "protocols/multi_hop_run.hpp"
#include "protocols/tree_run.hpp"
#include "sim/channel_process.hpp"
#include "sim/simulator.hpp"

namespace sigcomp {
namespace {

// ---------------------------------------------------------------- TreeSpec --

TEST(TreeSpec, ChainGeometry) {
  const TreeSpec spec = TreeSpec::chain(3);
  EXPECT_EQ(spec.parent, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(spec.nodes(), 4u);
  EXPECT_EQ(spec.edges(), 3u);
  EXPECT_EQ(spec.depth(), 3u);
  EXPECT_EQ(spec.max_fanout(), 1u);
  EXPECT_EQ(spec.leaves(), (std::vector<std::size_t>{3}));
  EXPECT_EQ(spec.path_edges(3), (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(spec.node_depth(3), 3u);
  EXPECT_THROW((void)TreeSpec::chain(0), std::invalid_argument);
}

TEST(TreeSpec, BalancedBinaryDepthTwo) {
  // Breadth-first ids: 0; 1 2; 3 4 5 6.
  const TreeSpec spec = TreeSpec::balanced(2, 2);
  EXPECT_EQ(spec.parent, (std::vector<std::size_t>{0, 0, 1, 1, 2, 2}));
  EXPECT_EQ(spec.nodes(), 7u);
  EXPECT_EQ(spec.depth(), 2u);
  EXPECT_EQ(spec.max_fanout(), 2u);
  EXPECT_EQ(spec.leaf_count(), 4u);
  EXPECT_EQ(spec.leaves(), (std::vector<std::size_t>{3, 4, 5, 6}));
  EXPECT_EQ(spec.path_edges(6), (std::vector<std::size_t>{1, 5}));
  EXPECT_EQ(spec.children(0), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(spec.children(2), (std::vector<std::size_t>{4, 5}));
  EXPECT_TRUE(spec.is_leaf(3));
  EXPECT_FALSE(spec.is_leaf(1));
}

TEST(TreeSpec, BalancedPrunedToReceiverCount) {
  // Keep 3 of the 4 depth-2 leaves: nodes {0,1,2,3,4,5} renumbered.
  const TreeSpec spec = TreeSpec::balanced(2, 2, 3);
  EXPECT_EQ(spec.nodes(), 6u);
  EXPECT_EQ(spec.leaf_count(), 3u);
  EXPECT_EQ(spec.depth(), 2u);
  for (const std::size_t leaf : spec.leaves()) {
    EXPECT_EQ(spec.node_depth(leaf), 2u) << "receiver not at full depth";
  }
  // receivers == fanout^depth is a no-op prune.
  EXPECT_EQ(TreeSpec::balanced(2, 2, 4), TreeSpec::balanced(2, 2));
  EXPECT_THROW((void)TreeSpec::balanced(2, 2, 5), std::invalid_argument);
  EXPECT_THROW((void)TreeSpec::balanced(0, 2), std::invalid_argument);
  EXPECT_THROW((void)TreeSpec::balanced(2, 0), std::invalid_argument);
}

TEST(TreeSpec, ValidateRejectsForwardParents) {
  TreeSpec bad;
  bad.parent = {0, 2};  // node 2's parent would be node 3
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

// -------------------------------------------------------------- TreeParams --

TEST(TreeParams, ChainPathParamsMatchHomogeneousChain) {
  MultiHopParams base;
  base.hops = 4;
  base.loss = 0.03;
  const analytic::TreeParams tree = analytic::TreeParams::chain(base);
  const analytic::HeteroMultiHopParams path = tree.path_params(4);
  const analytic::HeteroMultiHopParams expected =
      analytic::HeteroMultiHopParams::from_homogeneous(base);
  EXPECT_EQ(path.loss, expected.loss);
  EXPECT_EQ(path.delay, expected.delay);
  EXPECT_EQ(path.update_rate, expected.update_rate);
  EXPECT_EQ(path.refresh_timer, expected.refresh_timer);
  EXPECT_EQ(path.timeout_timer, expected.timeout_timer);
  EXPECT_EQ(path.retrans_timer, expected.retrans_timer);
  EXPECT_EQ(path.false_signal_rate, expected.false_signal_rate);
}

TEST(TreeParams, FromPathInvertsPathParams) {
  analytic::HeteroMultiHopParams hops;
  hops.loss = {0.01, 0.05, 0.02};
  hops.delay = {0.02, 0.08, 0.04};
  hops.set_hop_bursty(1, 8.0);
  hops.update_rate = 0.1;
  hops.false_signal_rate = 0.01;
  const analytic::TreeParams tree = analytic::TreeParams::from_path(hops);
  EXPECT_EQ(tree.tree, TreeSpec::chain(3));
  tree.validate();
  const analytic::HeteroMultiHopParams back = tree.path_params(3);
  EXPECT_EQ(back.loss, hops.loss);
  EXPECT_EQ(back.delay, hops.delay);
  ASSERT_EQ(back.loss_process.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(back.loss_process[i], hops.loss_process[i]) << i;
  }
  EXPECT_EQ(back.update_rate, hops.update_rate);
  EXPECT_EQ(back.refresh_timer, hops.refresh_timer);
  EXPECT_EQ(back.timeout_timer, hops.timeout_timer);
  EXPECT_EQ(back.retrans_timer, hops.retrans_timer);
  EXPECT_EQ(back.false_signal_rate, hops.false_signal_rate);
}

TEST(TreeParams, PathModelEqualsChainModelOnDegenerateTree) {
  MultiHopParams base;
  base.hops = 3;
  const analytic::TreeParams tree = analytic::TreeParams::chain(base);
  const auto paths = analytic::evaluate_tree_paths(ProtocolKind::kSSRT, tree);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].hops, 3u);
  const analytic::HeteroMultiHopModel chain_model(
      ProtocolKind::kSSRT,
      analytic::HeteroMultiHopParams::from_homogeneous(base));
  EXPECT_EQ(paths[0].metrics.inconsistency, chain_model.inconsistency());
}

TEST(TreeParams, WorstPathFollowsTheLossySubtree) {
  MultiHopParams base;
  base.hops = 2;  // ignored by balanced()
  analytic::TreeParams tree = analytic::TreeParams::balanced(base, 2, 2);
  // Make the edge into node 2 (edge 1) much lossier: both leaves under
  // node 2 (nodes 5 and 6) now sit on the worst paths.
  tree.loss[1] = 0.2;
  const analytic::TreePathMetrics worst =
      analytic::worst_tree_path(ProtocolKind::kSS, tree);
  EXPECT_TRUE(worst.leaf == 5 || worst.leaf == 6) << "worst leaf " << worst.leaf;
  // And the per-leaf evaluation orders leaves ascending.
  const auto paths = analytic::evaluate_tree_paths(ProtocolKind::kSS, tree);
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_LT(paths[0].metrics.inconsistency, worst.metrics.inconsistency);
}

TEST(TreeParams, BurstyEdgeKeepsAnalyticAverages) {
  analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  tree.set_edge_bursty(1, 8.0);
  EXPECT_NEAR(tree.edge_loss_config(1).mean_loss(), tree.loss[1], 1e-12);
  EXPECT_EQ(tree.edge_loss_config(0).mean_loss(), tree.loss[0]);
  tree.validate();
}

TEST(TreeParams, ValidateRejectsMismatchedVectors) {
  analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 1);
  tree.loss.pop_back();
  EXPECT_THROW(tree.validate(), std::invalid_argument);
  // A loss_process of the wrong size is rejected before any path is built:
  // path_params would read a short one out of bounds.
  for (const std::size_t size : {std::size_t{1}, std::size_t{3}}) {
    analytic::TreeParams sized =
        analytic::TreeParams::balanced(MultiHopParams{}, 2, 1);
    sized.loss_process.assign(size, sim::LossConfig::iid(0.02));
    EXPECT_THROW(sized.validate(), std::invalid_argument) << size;
  }
}

// ---------------------------------------------------------------- run_tree --

TEST(TreeRun, DegenerateTreeIsBitIdenticalToMultiHopChain) {
  // Fan-out 1, depth 3 == the 3-hop chain harness, to the last bit.
  MultiHopParams base;
  base.hops = 3;
  protocols::MultiHopSimOptions chain_options;
  chain_options.seed = 77;
  chain_options.duration = 2000.0;
  const protocols::MultiHopSimResult chain =
      protocols::run_multi_hop(ProtocolKind::kSSRT, base, chain_options);

  protocols::TreeSimOptions tree_options;
  tree_options.seed = 77;
  tree_options.duration = 2000.0;
  const protocols::TreeSimResult tree = protocols::run_tree(
      ProtocolKind::kSSRT, analytic::TreeParams::chain(base), tree_options);

  EXPECT_EQ(tree.metrics.inconsistency, chain.metrics.inconsistency);
  EXPECT_EQ(tree.metrics.raw_message_rate, chain.metrics.raw_message_rate);
  EXPECT_EQ(tree.messages, chain.messages);
  EXPECT_EQ(tree.relay_timeouts, chain.relay_timeouts);
  ASSERT_EQ(tree.node_inconsistency.size(), chain.hop_inconsistency.size());
  for (std::size_t i = 0; i < tree.node_inconsistency.size(); ++i) {
    EXPECT_EQ(tree.node_inconsistency[i], chain.hop_inconsistency[i]);
  }
  // The chain's one leaf path covers every node.
  ASSERT_EQ(tree.leaf_path_inconsistency.size(), 1u);
  EXPECT_EQ(tree.leaf_path_inconsistency[0], tree.metrics.inconsistency);
}

TEST(TreeRun, DepthOneFanoutOneIsBitIdenticalToSingleHopPath) {
  // The smallest tree -- one sender, one receiver -- must reproduce the
  // existing single-hop path (the 1-hop chain) exactly.
  MultiHopParams base;
  base.hops = 1;
  protocols::MultiHopSimOptions chain_options;
  chain_options.seed = 9;
  chain_options.duration = 2000.0;
  protocols::TreeSimOptions tree_options;
  tree_options.seed = 9;
  tree_options.duration = 2000.0;
  const analytic::TreeParams tiny =
      analytic::TreeParams::balanced(base, 1, 1);
  EXPECT_EQ(tiny.tree, TreeSpec::chain(1));
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const protocols::MultiHopSimResult chain =
        protocols::run_multi_hop(kind, base, chain_options);
    const protocols::TreeSimResult tree =
        protocols::run_tree(kind, tiny, tree_options);
    EXPECT_EQ(tree.metrics.inconsistency, chain.metrics.inconsistency)
        << to_string(kind);
    EXPECT_EQ(tree.messages, chain.messages) << to_string(kind);
    EXPECT_EQ(tree.relay_timeouts, chain.relay_timeouts) << to_string(kind);
  }
}

TEST(TreeRun, LosslessTreeInstallsEveryReceiver) {
  MultiHopParams base;
  base.loss = 0.0;
  const analytic::TreeParams tree = analytic::TreeParams::balanced(base, 3, 2);
  protocols::TreeSimOptions options;
  options.duration = 1000.0;
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const protocols::TreeSimResult result =
        protocols::run_tree(kind, tree, options);
    // Lossless channels: only propagation delay after each update keeps
    // nodes briefly inconsistent.
    EXPECT_LT(result.metrics.inconsistency, 0.01) << to_string(kind);
    EXPECT_GT(result.messages, 0u) << to_string(kind);
    EXPECT_EQ(result.relay_timeouts, 0u) << to_string(kind);
  }
}

TEST(TreeRun, DeeperPathsAreWorseInModelAndSim) {
  MultiHopParams base;
  base.loss = 0.05;
  const analytic::TreeParams shallow =
      analytic::TreeParams::balanced(base, 2, 1);
  const analytic::TreeParams deep = analytic::TreeParams::balanced(base, 2, 3);
  EXPECT_LT(analytic::worst_tree_path(ProtocolKind::kSS, shallow)
                .metrics.inconsistency,
            analytic::worst_tree_path(ProtocolKind::kSS, deep)
                .metrics.inconsistency);
  protocols::TreeSimOptions options;
  options.duration = 5000.0;
  const protocols::TreeSimResult sim_shallow =
      protocols::run_tree(ProtocolKind::kSS, shallow, options);
  const protocols::TreeSimResult sim_deep =
      protocols::run_tree(ProtocolKind::kSS, deep, options);
  EXPECT_LT(sim_shallow.metrics.inconsistency, sim_deep.metrics.inconsistency);
}

TEST(TreeRun, AcceptsAllFiveProtocolsAndRejectsBadOptions) {
  const analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 1);
  protocols::TreeSimOptions options;
  options.duration = 200.0;
  for (const ProtocolKind kind : kAllProtocols) {
    const protocols::TreeSimResult result =
        protocols::run_tree(kind, tree, options);
    EXPECT_GT(result.messages, 0u) << to_string(kind);
  }
  for (const double duration : {0.0, std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity()}) {
    options.duration = duration;
    EXPECT_THROW((void)protocols::run_tree(ProtocolKind::kSS, tree, options),
                 std::invalid_argument)
        << duration;
  }
  EXPECT_THROW((void)protocols::run_tree_replicated(ProtocolKind::kSS, tree,
                                                    protocols::TreeSimOptions{},
                                                    0),
               std::invalid_argument);
}

TEST(TreeRun, ReplicatedEstimatesCoverTheMean) {
  const analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  protocols::TreeSimOptions options;
  options.duration = 2000.0;
  const protocols::TreeReplicatedResult result =
      protocols::run_tree_replicated(ProtocolKind::kSS, tree, options, 4);
  EXPECT_EQ(result.replications, 4u);
  EXPECT_GT(result.message_rate.mean, 0.0);
  EXPECT_GE(result.worst_leaf_inconsistency.mean,
            result.inconsistency.mean * 0.0);  // defined and non-negative
}

// ------------------------------------------------------ TreePlan / layout --

/// A spec whose nodes' child edges are not contiguous in edge order: node
/// 1's children are edges 2 and 4, so child slots differ from edge ids.
TreeSpec interleaved_spec() {
  TreeSpec spec;
  spec.parent = {0, 0, 1, 2, 1};
  return spec;
}

/// A lossless deterministic plan over `spec` for protocol `kind`.
std::unique_ptr<protocols::TreePlan> lossless_plan(sim::Simulator& sim,
                                                   ProtocolKind kind,
                                                   const TreeSpec& spec) {
  return std::make_unique<protocols::TreePlan>(
      sim, mechanisms(kind), protocols::TimerSettings{}, spec,
      std::vector<sim::LossConfig>(spec.edges(), sim::LossConfig::iid(0.0)),
      std::vector<sim::DelayConfig>(
          spec.edges(),
          sim::DelayConfig{sim::DelayModel::kDeterministic, 0.01, 1.5}));
}

TEST(TreePlan, DerivesChildSlotsLeavesAndRootPathsFromTheSpec) {
  for (const TreeSpec& spec :
       {interleaved_spec(), TreeSpec::chain(4), TreeSpec::balanced(3, 2, 5),
        TreeSpec::balanced(4, 2)}) {
    sim::Simulator sim;
    const auto plan = lossless_plan(sim, ProtocolKind::kSS, spec);
    for (std::size_t n = 0; n < spec.nodes(); ++n) {
      const std::vector<std::size_t> kids = spec.children(n);
      ASSERT_EQ(plan->fanout(n), kids.size()) << "node " << n;
      for (std::size_t c = 0; c < kids.size(); ++c) {
        EXPECT_EQ(plan->child_index(kids[c]), c);
        EXPECT_EQ(plan->child_slot(kids[c]), plan->child_begin(n) + c);
      }
      EXPECT_EQ(plan->is_leaf(n), n != 0 && spec.is_leaf(n)) << "node " << n;
    }
    EXPECT_FALSE(plan->is_leaf(spec.nodes()));
    const std::vector<std::size_t> leaves = spec.leaves();
    EXPECT_EQ(std::vector<std::size_t>(plan->leaves().begin(),
                                       plan->leaves().end()),
              leaves);
    for (const std::size_t leaf : leaves) {
      const std::span<const std::size_t> path = plan->leaf_path(leaf);
      EXPECT_EQ(std::vector<std::size_t>(path.begin(), path.end()),
                spec.path_edges(leaf))
          << "leaf " << leaf;
    }
  }
}

TEST(TreePlan, InterleavedChildSlotsRouteEveryAckToItsOwnEdge) {
  // Reliable triggers on a lossless tree: each edge carries one trigger
  // and one ACK unless an ACK reaches the wrong child's reliable slot,
  // which would leave the right one retransmitting.
  const TreeSpec spec = interleaved_spec();
  for (const ProtocolKind kind : {ProtocolKind::kSSRTR, ProtocolKind::kHS}) {
    sim::Simulator sim;
    sim::Rng channel_rng(5, 0);
    sim::Rng node_rng(5, 1);
    const auto plan = lossless_plan(sim, kind, spec);
    protocols::Topology topology(*plan, channel_rng, node_rng, {});
    topology.sender().start(7);
    sim.run_until(3.0);  // ten retransmission timers, no refresh yet
    for (std::size_t e = 0; e < spec.edges(); ++e) {
      EXPECT_EQ(topology.relay(e).value(), 7) << to_string(kind) << " " << e;
      EXPECT_EQ(topology.edge_messages_sent(e), 2u)
          << to_string(kind) << " edge " << e;
    }
    topology.stop();
  }
}

TEST(TreePlan, InterleavedChildSlotsPruneAndGraftTheRightEdge) {
  // Leaf 5 hangs off node 1 as its second child (edge 4, child slot 3);
  // leaf 4 hangs off node 2 (edge 3, slot 4).  Under timeout-pruned soft
  // state, leaf 5's departure must starve exactly node 5 of refreshes, and
  // its rejoin must re-install it through the same edge.
  sim::Simulator sim;
  sim::Rng channel_rng(6, 0);
  sim::Rng node_rng(6, 1);
  const auto plan = lossless_plan(sim, ProtocolKind::kSS, interleaved_spec());
  protocols::Topology topology(*plan, channel_rng, node_rng, {});
  topology.sender().start(3);
  sim.run_until(1.0);
  (void)topology.leave(5);
  sim.run_until(40.0);  // past the 15 s timeout, refreshes every 5 s
  for (std::size_t e = 0; e < 4; ++e) {
    EXPECT_EQ(topology.relay(e).value(), 3) << "edge " << e;
  }
  EXPECT_FALSE(topology.relay(4).value().has_value());
  (void)topology.join(5);
  sim.run_until(41.0);
  EXPECT_EQ(topology.relay(4).value(), 3);
  topology.stop();
}

TEST(TreeSessionFootprint, HeapBytesPerSessionStayWithinTheFlatLayout) {
  // glibc's mallinfo2 sees only glibc's heap; sanitizer runtimes bring
  // their own allocator, so there is nothing to measure under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators bypass mallinfo2";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer allocators bypass mallinfo2";
#endif
#endif
  // tree_churn's tree and protocol: 21 nodes, 20 edges, 16 leaves, SS+RT
  // with churn.  A session holds its own object plus one topology block
  // (sender, 20 relays, 20 child edges, 40 channels, per-node counters)
  // and the membership controller's three fixed-capacity arrays: 10,128 B
  // when this bound was set, with about 10% slack.  The layout with a copy
  // of the plan, a heap object per node and channel and per-node child
  // vectors took 16,850 B.
  const analytic::TreeParams params =
      analytic::TreeParams::balanced(MultiHopParams{}, 4, 2);
  sim::Simulator sim;
  const protocols::TreePlan plan(sim, ProtocolKind::kSSRT, params,
                                 sim::Distribution::kDeterministic,
                                 sim::DelayModel::kExponential, 1.5);
  protocols::ChurnOptions churn;
  churn.leaf_lifetime = 30.0;
  churn.rejoin_rate = 1.0 / 30.0;
  const protocols::ScenarioOptions scenario;
  constexpr std::size_t kSessions = 64;
  std::vector<std::unique_ptr<protocols::TreeSession>> sessions;
  sessions.reserve(kSessions);
  const std::size_t before = mallinfo2().uordblks;
  for (std::size_t i = 0; i < kSessions; ++i) {
    sessions.push_back(std::make_unique<protocols::TreeSession>(
        plan, params, churn, scenario,
        protocols::TreeStreams{sim::Rng(i, 0), sim::Rng(i, 1), sim::Rng(i, 2),
                               sim::Rng(i, 3), sim::Rng(i, 4), sim::Rng(i, 5),
                               sim::Rng(i, 6)}));
  }
  const std::size_t after = mallinfo2().uordblks;
  const double per_session =
      static_cast<double>(after - before) / static_cast<double>(kSessions);
  EXPECT_GT(per_session, static_cast<double>(sizeof(protocols::TreeSession)));
  EXPECT_LE(per_session, 11264.0);
}

// ---------------------------------------------------- teardown / pool churn --

/// Builds a topology, runs it mid-refresh, stops an interior relay's whole
/// session, drains, and verifies no event leaks and no pool growth across
/// many cycles -- the satellite teardown contract.
void run_stop_churn(ProtocolKind kind) {
  sim::Simulator sim;
  sim::Rng channel_rng(33, 0);
  sim::Rng node_rng(33, 1);
  const MechanismSet mech = mechanisms(kind);
  protocols::TimerSettings timers;  // deterministic: cycles are identical
  const TreeSpec spec = TreeSpec::balanced(2, 2);
  const std::vector<sim::LossConfig> loss(spec.edges(),
                                          sim::LossConfig::iid(0.0));
  const std::vector<sim::DelayConfig> delay(
      spec.edges(),
      sim::DelayConfig{sim::DelayModel::kDeterministic, 0.03, 1.5});

  std::size_t flat_capacity = 0;
  for (int cycle = 0; cycle < 25; ++cycle) {
    auto topology = std::make_unique<protocols::Topology>(
        sim, channel_rng, node_rng, mech, timers, spec, loss, delay, nullptr);
    topology->sender().start(cycle + 1);
    // Mid-refresh, mid-timeout: refresh timers (R = 5) armed for t+5,
    // soft-state timeouts (T = 15) pending, and for HS a teardown flood in
    // flight from an interior relay.
    sim.run_until(sim.now() + 7.3);
    if (mech.external_failure_detector) {
      topology->relay(0).external_removal_signal();  // interior node 1
      sim.run_until(sim.now() + 0.01);               // flood partly in flight
    }
    topology->stop();
    // stop() cancelled every timer; only already-scheduled channel
    // deliveries may remain, and they must drain without resurrecting any
    // timer loop (the sender is stopped, so nothing refreshes).
    sim.run();
    EXPECT_TRUE(sim.idle()) << to_string(kind) << " cycle " << cycle;
    EXPECT_EQ(sim.pending_events(), 0u);
    topology.reset();
    if (cycle == 0) {
      flat_capacity = sim.slot_capacity();
    } else {
      EXPECT_EQ(sim.slot_capacity(), flat_capacity)
          << to_string(kind) << ": event pool grew at cycle " << cycle;
    }
  }
}

TEST(TopologyTeardown, StopMidRefreshLeavesNoDanglingEvents) {
  for (const ProtocolKind kind : kMultiHopProtocols) {
    run_stop_churn(kind);
  }
}

// ------------------------------------------------------- tree session farm --

exp::SessionFarmOptions small_tree_farm(std::size_t sessions) {
  exp::SessionFarmOptions options;
  options.seed = 21;
  options.sessions = sessions;
  options.arrival_rate = static_cast<double>(sessions) / 15.0;
  options.session_lifetime = 25.0;
  options.threads = 1;
  return options;
}

TEST(TreeSessionFarm, RunsAndTearsDownEveryProtocol) {
  const analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  for (const ProtocolKind kind : kMultiHopProtocols) {
    const exp::SessionFarmResult result =
        exp::run_session_farm(kind, tree, small_tree_farm(60));
    EXPECT_EQ(result.sessions, 60u) << to_string(kind);
    EXPECT_GT(result.messages, 0u) << to_string(kind);
    EXPECT_GE(result.summary.mean.inconsistency, 0.0) << to_string(kind);
    EXPECT_LT(result.summary.mean.inconsistency, 0.5) << to_string(kind);
  }
}

TEST(TreeSessionFarm, BitIdenticalAcrossShardSizesAndThreads) {
  const analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 2);
  exp::SessionFarmOptions base = small_tree_farm(90);
  base.shard_size = 90;
  const exp::SessionFarmResult one_shard =
      exp::run_session_farm(ProtocolKind::kSSRT, tree, base);
  exp::SessionFarmOptions sharded = base;
  sharded.shard_size = 11;
  sharded.threads = 4;
  const exp::SessionFarmResult many_shards =
      exp::run_session_farm(ProtocolKind::kSSRT, tree, sharded);
  EXPECT_EQ(one_shard.summary.mean.inconsistency,
            many_shards.summary.mean.inconsistency);
  EXPECT_EQ(one_shard.summary.inconsistency.half_width,
            many_shards.summary.inconsistency.half_width);
  EXPECT_EQ(one_shard.summary.mean.message_rate,
            many_shards.summary.mean.message_rate);
  EXPECT_EQ(one_shard.messages, many_shards.messages);
  EXPECT_EQ(one_shard.receiver_timeouts, many_shards.receiver_timeouts);
}

TEST(TreeSessionFarm, AcceptsAllFiveProtocols) {
  const analytic::TreeParams tree =
      analytic::TreeParams::balanced(MultiHopParams{}, 2, 1);
  for (const ProtocolKind kind : kAllProtocols) {
    const exp::SessionFarmResult result =
        exp::run_session_farm(kind, tree, small_tree_farm(6));
    EXPECT_EQ(result.sessions, 6u) << to_string(kind);
    EXPECT_GT(result.messages, 0u) << to_string(kind);
  }
}

}  // namespace
}  // namespace sigcomp

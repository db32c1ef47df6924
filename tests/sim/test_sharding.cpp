// Deterministic intra-run sharding: SPSC boundary-ring mechanics (wrap,
// full-ring spill backpressure, FIFO ordering), the auto-partitioner's
// cut selection and serial fallbacks, the scenario engine's sharded-mode
// gating, and the headline determinism contract — multi-seed random
// churn must produce byte-identical ScenarioMetrics at shard counts
// 1, 2 and 4 on both dumbbell and parking-lot topologies.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "phi/scenario.hpp"
#include "sim/network.hpp"
#include "sim/sharding.hpp"
#include "sim/topology.hpp"
#include "phi/fault_injection.hpp"
#include "tcp/cc.hpp"

namespace phi::sim {
namespace {

BoundaryMessage msg(util::Time arrival, std::uint64_t seq) {
  BoundaryMessage m;
  m.arrival = arrival;
  m.seq = seq;
  m.src_shard = 0;
  m.link = nullptr;
  m.pkt = Packet{};
  return m;
}

TEST(BoundaryRing, PopsInPushOrderAcrossWraps) {
  BoundaryRing ring(4);
  ASSERT_EQ(ring.capacity(), 4u);
  // Push/pop far more entries than the capacity so the cursors wrap the
  // power-of-two buffer (and, eventually, exercise index masking well
  // past one lap).
  std::uint64_t next_push = 0, next_pop = 0;
  for (int round = 0; round < 64; ++round) {
    const int burst = 1 + (round % 4);
    for (int i = 0; i < burst; ++i) {
      ASSERT_TRUE(ring.try_push(msg(util::Time(next_push), next_push)))
          << "push " << next_push;
      ++next_push;
    }
    BoundaryMessage out;
    for (int i = 0; i < burst; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out.seq, next_pop) << "FIFO order violated";
      ++next_pop;
    }
  }
  BoundaryMessage out;
  EXPECT_FALSE(ring.try_pop(out)) << "ring should be empty";
}

TEST(BoundaryRing, RejectsPushWhenFull) {
  BoundaryRing ring(4);
  for (std::uint64_t i = 0; i < 4; ++i)
    ASSERT_TRUE(ring.try_push(msg(0, i)));
  EXPECT_EQ(ring.visible(), 4u);
  EXPECT_FALSE(ring.try_push(msg(0, 99)));
  BoundaryMessage out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out.seq, 0u);
  // One slot freed: exactly one more push fits.
  EXPECT_TRUE(ring.try_push(msg(0, 4)));
  EXPECT_FALSE(ring.try_push(msg(0, 5)));
}

TEST(BoundaryChannel, OverflowSpillsWithoutLosingOrder) {
  // Capacity 4: pushes 5..9 overflow into the spill vector. The drain
  // must return every message (ring first, then spill — the consumer
  // re-sorts by (arrival, src_shard, seq) anyway, so the split is
  // invisible to results, but nothing may be lost or duplicated).
  BoundaryChannel ch(/*src_shard=*/0, /*dst_shard=*/1, /*capacity=*/4);
  for (std::uint64_t i = 0; i < 10; ++i) ch.push(msg(util::Time(i), i));
  EXPECT_EQ(ch.pushed(), 10u);
  EXPECT_EQ(ch.spills(), 6u);

  std::vector<BoundaryMessage> out;
  ch.drain(out);
  ASSERT_EQ(out.size(), 10u);
  std::vector<bool> seen(10, false);
  for (const auto& m : out) {
    ASSERT_LT(m.seq, 10u);
    EXPECT_FALSE(seen[static_cast<std::size_t>(m.seq)]) << "duplicate";
    seen[static_cast<std::size_t>(m.seq)] = true;
  }
  // Ring entries drain in FIFO order before the spill.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].seq, i);

  // Drained channel keeps working (and an empty drain appends nothing).
  out.clear();
  ch.drain(out);
  EXPECT_TRUE(out.empty());
  ch.push(msg(7, 42));
  ch.drain(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].seq, 42u);
}

TEST(ShardPlanner, DumbbellTwoWayCutIsTheBottleneck) {
  // rtt=150ms, edge_delay=1ms per hop each way -> bottleneck one-way
  // propagation is 150/2 - 2*1 = 73ms. The two-shard cut must be the
  // duplex bottleneck pair (the highest-latency links), giving the
  // widest possible lookahead window.
  GraphTopology d(dumbbell_graph(DumbbellConfig{.pairs = 4}));
  const ShardPlan plan = plan_shards(d.net(), 2);
  ASSERT_EQ(plan.shards, 2);
  EXPECT_EQ(plan.window, util::milliseconds(73));
  EXPECT_EQ(plan.cut_links, 2u);  // bottleneck forward + reverse
  const auto& links = d.net().links();
  ASSERT_EQ(plan.link_cut.size(), links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (plan.link_cut[i])
      EXPECT_EQ(links[i]->propagation_delay(), util::milliseconds(73));
  }
  // Every sender lands with its router; every receiver with the other.
  ASSERT_EQ(plan.node_shard.size(), d.net().node_count());
  for (std::size_t i = 0; i < d.endpoint_count(); ++i) {
    EXPECT_EQ(plan.node_shard[d.endpoint(i).tx->id()],
              plan.node_shard[d.endpoint(0).tx->id()]);
    EXPECT_EQ(plan.node_shard[d.endpoint(i).rx->id()],
              plan.node_shard[d.endpoint(0).rx->id()]);
    EXPECT_NE(plan.node_shard[d.endpoint(i).tx->id()],
              plan.node_shard[d.endpoint(i).rx->id()]);
  }
}

TEST(ShardPlanner, RequestAboveFeasibleComponentsIsClamped) {
  // Two nodes connected by a duplex pair can split at most two ways.
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.add_duplex(a, b, util::kMbps, util::milliseconds(5), 64000);
  const ShardPlan plan = plan_shards(net, 8);
  EXPECT_EQ(plan.shards, 2);
  EXPECT_EQ(plan.window, util::milliseconds(5));
  EXPECT_NE(plan.node_shard[a.id()], plan.node_shard[b.id()]);
}

TEST(ShardPlanner, ZeroDelayCutFallsBackToSerial) {
  // Every possible cut crosses a zero-propagation link: zero lookahead
  // admits no conservative parallelism, so the plan degrades to serial.
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  net.add_duplex(a, b, util::kMbps, 0, 64000);
  const ShardPlan plan = plan_shards(net, 2);
  EXPECT_EQ(plan.shards, 1);
  EXPECT_EQ(plan.cut_links, 0u);
}

TEST(ShardPlanner, SingleNodeIsSerial) {
  Network net;
  net.add_node("only");
  EXPECT_EQ(plan_shards(net, 4).shards, 1);
}

// ---------------------------------------------------------------------------
// Scenario-engine integration: gating and the determinism contract.

core::ScenarioSpec churn_spec(std::uint64_t seed, int shards) {
  core::ScenarioSpec spec;
  spec.topology = DumbbellConfig{.pairs = 4};
  spec.workload.mean_on_bytes = 150e3;
  spec.workload.mean_off_s = 0.5;
  spec.duration = util::seconds(12);
  spec.warmup = util::seconds(2);
  spec.seed = seed;
  spec.sharding.shards = shards;
  return spec;
}

TEST(ShardedScenario, RejectsFeaturesThatObserveCrossShardState) {
  core::ScenarioSpec spec = churn_spec(1, 2);
  spec.telemetry.trace_one_in = 64;
  EXPECT_THROW(run_cubic_scenario(spec, tcp::CubicParams{}),
               std::invalid_argument);

  spec = churn_spec(1, 2);
  spec.telemetry.timeseries_dt = util::milliseconds(100);
  EXPECT_THROW(run_cubic_scenario(spec, tcp::CubicParams{}),
               std::invalid_argument);

  spec = churn_spec(1, 2);
  spec.faults = core::FaultConfig{};
  EXPECT_THROW(run_cubic_scenario(spec, tcp::CubicParams{}),
               std::invalid_argument);

  spec = churn_spec(1, 2);
  EXPECT_THROW(
      core::run_scenario(
          spec,
          [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
          [](std::size_t) -> std::unique_ptr<tcp::ConnectionAdvisor> {
            return nullptr;
          }),
      std::invalid_argument);
}

void expect_identical(const core::ScenarioMetrics& a,
                      const core::ScenarioMetrics& b, int shards) {
  // Bit-exact double comparison on purpose: the determinism contract is
  // byte identity with the serial run, not approximate agreement.
  EXPECT_EQ(a.throughput_bps, b.throughput_bps) << shards << " shards";
  EXPECT_EQ(a.mean_queue_delay_s, b.mean_queue_delay_s);
  EXPECT_EQ(a.loss_rate, b.loss_rate);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.mean_rtt_s, b.mean_rtt_s);
  EXPECT_EQ(a.min_rtt_s, b.min_rtt_s);
  EXPECT_EQ(a.connections, b.connections);
  EXPECT_EQ(a.timeouts, b.timeouts);
  // A sharded run executes exactly the serial event count: every
  // delivery, tx-complete and timer fires once, whichever shard.
  EXPECT_EQ(a.events_executed, b.events_executed);
  ASSERT_EQ(a.per_sender.size(), b.per_sender.size());
  for (std::size_t i = 0; i < a.per_sender.size(); ++i) {
    const auto& x = a.per_sender[i];
    const auto& y = b.per_sender[i];
    EXPECT_EQ(x.bits, y.bits) << "sender " << i << ", " << shards
                              << " shards";
    EXPECT_EQ(x.on_time_s, y.on_time_s);
    EXPECT_EQ(x.connections, y.connections);
    EXPECT_EQ(x.rtt_mean_s, y.rtt_mean_s);
    EXPECT_EQ(x.rtt_min_s, y.rtt_min_s);
    EXPECT_EQ(x.retransmits, y.retransmits);
    EXPECT_EQ(x.packets_sent, y.packets_sent);
    EXPECT_EQ(x.timeouts, y.timeouts);
    EXPECT_EQ(x.live_bits, y.live_bits);
    EXPECT_EQ(x.srtt_s, y.srtt_s);
  }
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    EXPECT_EQ(a.paths[i].mean_queue_delay_s, b.paths[i].mean_queue_delay_s);
    EXPECT_EQ(a.paths[i].loss_rate, b.paths[i].loss_rate);
    EXPECT_EQ(a.paths[i].utilization, b.paths[i].utilization);
    EXPECT_EQ(a.paths[i].bytes_transmitted, b.paths[i].bytes_transmitted);
  }
}

TEST(ShardedScenario, DumbbellChurnIsByteIdenticalAcrossShardCounts) {
  for (const std::uint64_t seed : {1ull, 42ull, 977ull}) {
    const core::ScenarioMetrics serial =
        run_cubic_scenario(churn_spec(seed, 1), tcp::CubicParams{});
    EXPECT_EQ(serial.shards_used, 1);
    EXPECT_EQ(serial.boundary_messages, 0u);
    for (const int shards : {2, 4}) {
      const core::ScenarioMetrics sharded =
          run_cubic_scenario(churn_spec(seed, shards), tcp::CubicParams{});
      EXPECT_EQ(sharded.shards_used, shards) << "seed " << seed;
      EXPECT_GT(sharded.boundary_messages, 0u);
      expect_identical(serial, sharded, shards);
    }
  }
}

TEST(ShardedScenario, ParkingLotChurnIsByteIdenticalAcrossShardCounts) {
  for (const std::uint64_t seed : {3ull, 1009ull}) {
    core::ScenarioSpec spec;
    spec.topology =
        ParkingLotConfig{.hops = 3, .cross_per_hop = 2, .long_flows = 1};
    spec.workload.mean_on_bytes = 200e3;
    spec.workload.mean_off_s = 0.5;
    spec.duration = util::seconds(10);
    spec.seed = seed;

    const core::ScenarioMetrics serial =
        run_cubic_scenario(spec, tcp::CubicParams{});
    for (const int shards : {2, 4}) {
      spec.sharding.shards = shards;
      const core::ScenarioMetrics sharded =
          run_cubic_scenario(spec, tcp::CubicParams{});
      EXPECT_GT(sharded.shards_used, 1) << "seed " << seed;
      expect_identical(serial, sharded, shards);
    }
  }
}

TEST(ShardedScenario, EcnRedDumbbellStaysDeterministic) {
  // RED+ECN exercises marking decisions that depend on queue state —
  // the most timing-sensitive datapath the dumbbell offers.
  core::ScenarioSpec spec = churn_spec(11, 1);
  auto& cfg = std::get<DumbbellConfig>(spec.topology);
  cfg.queue = DumbbellConfig::Queue::kRedEcn;
  spec.ecn = true;
  const core::ScenarioMetrics serial =
      run_cubic_scenario(spec, tcp::CubicParams{});
  spec.sharding.shards = 2;
  const core::ScenarioMetrics sharded =
      run_cubic_scenario(spec, tcp::CubicParams{});
  EXPECT_EQ(sharded.shards_used, 2);
  expect_identical(serial, sharded, 2);
}

TEST(ShardedScenario, TinyRingCapacityStillDeterministic) {
  // Force heavy spill traffic: correctness must not depend on the ring
  // being big enough for a window's worth of packets.
  const core::ScenarioMetrics serial =
      run_cubic_scenario(churn_spec(5, 1), tcp::CubicParams{});
  core::ScenarioSpec spec = churn_spec(5, 4);
  spec.sharding.ring_capacity = 2;
  const core::ScenarioMetrics sharded =
      run_cubic_scenario(spec, tcp::CubicParams{});
  expect_identical(serial, sharded, 4);
}

TEST(ShardedScenario, InfeasiblePlanFallsBackToSerialResults) {
  // A request the partitioner cannot honor must run serially and still
  // produce the serial numbers (shards_used reports the fallback).
  core::ScenarioSpec spec = churn_spec(9, 1);
  const core::ScenarioMetrics serial =
      run_cubic_scenario(spec, tcp::CubicParams{});
  // pairs=4 dumbbell has 10 nodes; ask for more shards than feasible
  // components once only zero-delay edge links could be cut further.
  spec.sharding.shards = 64;
  const core::ScenarioMetrics sharded =
      run_cubic_scenario(spec, tcp::CubicParams{});
  expect_identical(serial, sharded, sharded.shards_used);
}

}  // namespace
}  // namespace phi::sim

#include <gtest/gtest.h>

#include "sim/topology.hpp"
#include "util/rng.hpp"

namespace phi::sim {
namespace {

struct Probe : Agent {
  util::Time arrived = -1;
  std::uint64_t count = 0;
  Scheduler* sched = nullptr;
  void on_packet(const Packet&) override {
    arrived = sched->now();
    ++count;
  }
};

TEST(Dumbbell, BufferIsFiveTimesBdp) {
  DumbbellConfig cfg;
  cfg.bottleneck_rate = 15.0 * util::kMbps;
  cfg.rtt = util::milliseconds(150);
  cfg.buffer_bdp_multiple = 5.0;
  GraphTopology d(dumbbell_graph(cfg));
  // BDP = 281250 bytes; x5 = 1406250.
  EXPECT_EQ(d.path_link(0).queue().capacity_bytes(), 1406250);
  // Edge links get 10x the bottleneck buffer plus 1 MB.
  EXPECT_EQ(d.net().links()[2]->queue().capacity_bytes(), 15062500);
}

TEST(Dumbbell, OneWayDeliveryMatchesConfiguredRtt) {
  DumbbellConfig cfg;
  cfg.pairs = 2;
  cfg.rtt = util::milliseconds(150);
  GraphTopology d(dumbbell_graph(cfg));
  const Topology::Endpoint ep = d.endpoint(1);

  Probe probe;
  probe.sched = &d.scheduler();
  ep.rx->attach(5, &probe);

  Packet p;
  p.src = ep.tx->id();
  p.dst = ep.rx->id();
  p.flow = 5;
  p.size_bytes = kSegmentBytes;
  ep.tx->send(p);
  d.net().run_until(util::seconds(1));

  ASSERT_GT(probe.count, 0u);
  // One-way propagation is rtt/2; serialization adds a little.
  EXPECT_GE(probe.arrived, util::milliseconds(75));
  EXPECT_LE(probe.arrived, util::milliseconds(78));
  ep.rx->detach(5);
}

TEST(Dumbbell, ReversePathWorks) {
  DumbbellConfig cfg;
  cfg.pairs = 3;
  GraphTopology d(dumbbell_graph(cfg));
  const Topology::Endpoint ep = d.endpoint(2);
  Probe probe;
  probe.sched = &d.scheduler();
  ep.tx->attach(9, &probe);

  Packet p;
  p.src = ep.rx->id();
  p.dst = ep.tx->id();
  p.flow = 9;
  p.size_bytes = kAckBytes;
  ep.rx->send(p);
  d.net().run_until(util::seconds(1));
  EXPECT_EQ(probe.count, 1u);
  ep.tx->detach(9);
}

TEST(Dumbbell, CrossPairIsolation) {
  // Packets for pair 0 must not arrive at receiver 1's agents.
  DumbbellConfig cfg;
  cfg.pairs = 2;
  GraphTopology d(dumbbell_graph(cfg));
  const Topology::Endpoint ep0 = d.endpoint(0);
  const Topology::Endpoint ep1 = d.endpoint(1);
  Probe right, wrong;
  right.sched = wrong.sched = &d.scheduler();
  ep0.rx->attach(1, &right);
  ep1.rx->attach(1, &wrong);

  Packet p;
  p.src = ep0.tx->id();
  p.dst = ep0.rx->id();
  p.flow = 1;
  ep0.tx->send(p);
  d.net().run_until(util::seconds(1));
  EXPECT_EQ(right.count, 1u);
  EXPECT_EQ(wrong.count, 0u);
  ep0.rx->detach(1);
  ep1.rx->detach(1);
}

TEST(Dumbbell, RejectsZeroPairs) {
  DumbbellConfig cfg;
  cfg.pairs = 0;
  EXPECT_THROW(dumbbell_graph(cfg), std::invalid_argument);
}

TEST(Dumbbell, RejectsRttSmallerThanEdgeDelays) {
  DumbbellConfig cfg;
  cfg.rtt = util::milliseconds(2);
  cfg.edge_delay = util::milliseconds(1);
  EXPECT_THROW(dumbbell_graph(cfg), std::invalid_argument);
}

// Conservation property: everything injected is delivered, dropped, or
// still queued/in flight when the horizon hits.
class Conservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Conservation, PacketsAreConserved) {
  DumbbellConfig cfg;
  cfg.pairs = 4;
  GraphTopology d(dumbbell_graph(cfg));
  util::Rng rng(GetParam());

  std::vector<Probe> probes(4);
  std::uint64_t injected = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    probes[i].sched = &d.scheduler();
    d.endpoint(i).rx->attach(100 + i, &probes[i]);
  }
  for (int burst = 0; burst < 50; ++burst) {
    const std::size_t i = rng.below(4);
    const Topology::Endpoint ep = d.endpoint(i);
    Packet p;
    p.src = ep.tx->id();
    p.dst = ep.rx->id();
    p.flow = 100 + i;
    ep.tx->send(p);
    ++injected;
  }
  d.net().run_until(util::seconds(5));

  std::uint64_t delivered = 0;
  for (const auto& pr : probes) delivered += pr.count;
  const std::uint64_t dropped = d.path_link(0).queue().stats().dropped;
  EXPECT_EQ(delivered + dropped, injected);
  for (std::size_t i = 0; i < 4; ++i) d.endpoint(i).rx->detach(100 + i);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Conservation,
                         ::testing::Values(1, 7, 42, 1337));

}  // namespace
}  // namespace phi::sim

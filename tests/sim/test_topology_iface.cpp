// The Topology interface contract: every TopologySpec variant builds one
// GraphTopology through its generator, with the same endpoint/path
// addressing, and the generators keep the node, link and endpoint layout
// (names, order, buffers, queues) that the run artifacts depend on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fq.hpp"
#include "sim/topology.hpp"

namespace phi::sim {
namespace {

std::vector<std::string> node_names(GraphTopology& t) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < t.net().node_count(); ++i)
    out.push_back(t.net().node(static_cast<NodeId>(i)).name());
  return out;
}

std::vector<std::string> link_names(GraphTopology& t) {
  std::vector<std::string> out;
  for (const auto& l : t.net().links()) out.push_back(l->name());
  return out;
}

TEST(TopologyIface, DumbbellEndpointsMirrorPairs) {
  DumbbellConfig cfg;
  cfg.pairs = 3;
  GraphTopology d(dumbbell_graph(cfg));
  Topology& t = d;

  ASSERT_EQ(t.endpoint_count(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const Topology::Endpoint ep = t.endpoint(i);
    EXPECT_EQ(ep.tx->name(), "sender" + std::to_string(i));
    EXPECT_EQ(ep.rx->name(), "receiver" + std::to_string(i));
    EXPECT_EQ(t.endpoint_path(i), 0u);
    EXPECT_EQ(d.endpoint_hops(i), 3u);
  }
  ASSERT_EQ(t.path_count(), 1u);
  EXPECT_EQ(t.path_link(0).name(), "bottleneck");
  EXPECT_EQ(&t.path_link(0), d.net().links()[0].get());
  EXPECT_EQ(&t.scheduler(), &d.net().scheduler());
}

TEST(TopologyIface, DumbbellRangeChecks) {
  GraphTopology d(dumbbell_graph(DumbbellConfig{.pairs = 2}));
  Topology& t = d;
  EXPECT_THROW(t.endpoint(2), std::out_of_range);
  EXPECT_THROW(t.path_link(1), std::out_of_range);
  EXPECT_THROW(t.path_monitor(1), std::out_of_range);
  EXPECT_THROW((void)t.endpoint_path(2), std::out_of_range);
}

TEST(TopologyIface, ParkingLotEndpointsAreHopMajor) {
  ParkingLotConfig cfg;
  cfg.hops = 3;
  cfg.cross_per_hop = 2;
  cfg.long_flows = 2;
  GraphTopology pl(parking_lot_graph(cfg));
  Topology& t = pl;

  ASSERT_EQ(t.endpoint_count(), 3u * 2u + 2u);
  ASSERT_EQ(t.path_count(), 3u);
  for (std::size_t h = 0; h < 3; ++h) {
    EXPECT_EQ(t.path_link(h).name(), "hop" + std::to_string(h));
    const std::string x = "x" + std::to_string(h);
    for (std::size_t k = 0; k < 2; ++k) {
      const std::size_t i = h * 2 + k;
      const Topology::Endpoint ep = t.endpoint(i);
      EXPECT_EQ(ep.tx->name(), x + "-tx" + std::to_string(k));
      EXPECT_EQ(ep.rx->name(), x + "-rx" + std::to_string(k));
      EXPECT_EQ(t.endpoint_path(i), h);
    }
  }
  // Long flows follow the crosses and cross every hop; all hops share a
  // rate, so the graph rule (first smallest-rate monitored link) names
  // hop 0 as their bottleneck path.
  for (std::size_t j = 0; j < 2; ++j) {
    const std::size_t i = 6 + j;
    const Topology::Endpoint ep = t.endpoint(i);
    EXPECT_EQ(ep.tx->name(), "long-tx" + std::to_string(j));
    EXPECT_EQ(ep.rx->name(), "long-rx" + std::to_string(j));
    EXPECT_EQ(t.endpoint_path(i), 0u);
    EXPECT_EQ(pl.endpoint_hops(i), 5u);
  }
  EXPECT_THROW(t.endpoint(8), std::out_of_range);
  EXPECT_THROW((void)t.endpoint_path(8), std::out_of_range);
}

TEST(TopologyIface, MakeTopologyBuildsEitherVariant) {
  TopologySpec dumb = DumbbellConfig{.pairs = 5};
  TopologySpec lot = ParkingLotConfig{.hops = 2, .cross_per_hop = 3,
                                      .long_flows = 1};

  EXPECT_STREQ(topology_shape(dumb).klass, "dumbbell");
  EXPECT_STREQ(topology_shape(lot).klass, "parking-lot");
  EXPECT_EQ(endpoint_count(dumb), 5u);
  EXPECT_EQ(topology_shape(dumb).paths, 1u);
  EXPECT_EQ(endpoint_count(lot), 7u);
  EXPECT_EQ(topology_shape(lot).paths, 2u);

  // The built instances agree with the spec-level counts.
  auto td = make_topology(dumb);
  auto tl = make_topology(lot);
  ASSERT_NE(td, nullptr);
  ASSERT_NE(tl, nullptr);
  EXPECT_EQ(td->endpoint_count(), 5u);
  EXPECT_EQ(td->path_count(), 1u);
  EXPECT_EQ(tl->endpoint_count(), 7u);
  EXPECT_EQ(tl->path_count(), 2u);
  EXPECT_NE(dynamic_cast<GraphTopology*>(td.get()), nullptr);
  EXPECT_NE(dynamic_cast<GraphTopology*>(tl.get()), nullptr);
}

TEST(TopologyIface, ShapeMatchesTheBuiltTopologyForEveryGenerator) {
  DumbbellConfig red;
  red.queue = DumbbellConfig::Queue::kRedEcn;
  const std::vector<TopologySpec> specs = {
      DumbbellConfig{},
      DumbbellConfig{.pairs = 1},
      red,
      ParkingLotConfig{},
      ParkingLotConfig{.hops = 8, .cross_per_hop = 4, .long_flows = 4},
      ParkingLotConfig{.hops = 3, .cross_per_hop = 0, .long_flows = 2},
      FatTreeConfig{},
      WanGraphConfig{},
  };
  for (std::size_t s = 0; s < specs.size(); ++s) {
    const TopologyShape shape = topology_shape(specs[s]);
    auto t = make_topology(specs[s]);
    EXPECT_EQ(shape.nodes, t->net().node_count()) << "spec " << s;
    EXPECT_EQ(shape.links, t->net().links().size()) << "spec " << s;
    EXPECT_EQ(shape.endpoints, t->endpoint_count()) << "spec " << s;
    EXPECT_EQ(shape.paths, t->path_count()) << "spec " << s;
    EXPECT_EQ(endpoint_count(specs[s]), t->endpoint_count()) << "spec " << s;
  }
}

TEST(TopologyIface, DumbbellGeneratorKeepsNamesQueuesAndJitter) {
  DumbbellConfig cfg;
  cfg.pairs = 2;
  cfg.queue = DumbbellConfig::Queue::kRedEcn;
  cfg.bottleneck_jitter = util::milliseconds(5);
  GraphTopology d(dumbbell_graph(cfg));

  EXPECT_EQ(node_names(d),
            (std::vector<std::string>{"left-router", "right-router",
                                      "sender0", "receiver0", "sender1",
                                      "receiver1"}));
  EXPECT_EQ(link_names(d),
            (std::vector<std::string>{
                "bottleneck", "bottleneck-rev", "sender0->left-router",
                "left-router->sender0", "right-router->receiver0",
                "receiver0->right-router", "sender1->left-router",
                "left-router->sender1", "right-router->receiver1",
                "receiver1->right-router"}));
  const auto& links = d.net().links();
  const std::int64_t buffer = links[0]->queue().capacity_bytes();
  for (std::size_t i = 0; i < links.size(); ++i) {
    const bool bottleneck = i < 2;
    EXPECT_EQ(dynamic_cast<const RedQueue*>(&links[i]->queue()) != nullptr,
              bottleneck)
        << links[i]->name();
    EXPECT_EQ(links[i]->jitter(), bottleneck ? cfg.bottleneck_jitter : 0)
        << links[i]->name();
    if (!bottleneck) {
      EXPECT_EQ(links[i]->queue().capacity_bytes(), 10 * buffer + 1'000'000);
    }
  }

  cfg.queue = DumbbellConfig::Queue::kFq;
  GraphTopology fq(dumbbell_graph(cfg));
  EXPECT_NE(dynamic_cast<const DrrQueue*>(&fq.path_link(0).queue()), nullptr);
  EXPECT_NE(dynamic_cast<const DrrQueue*>(&fq.net().links()[1]->queue()),
            nullptr);
}

TEST(TopologyIface, ParkingLotGeneratorKeepsNamesAndBuffers) {
  GraphTopology pl(parking_lot_graph(
      ParkingLotConfig{.hops = 2, .cross_per_hop = 1, .long_flows = 1}));
  EXPECT_EQ(node_names(pl),
            (std::vector<std::string>{"router0", "router1", "router2",
                                      "long-tx0", "long-rx0", "x0-tx0",
                                      "x0-rx0", "x1-tx0", "x1-rx0"}));
  EXPECT_EQ(link_names(pl),
            (std::vector<std::string>{
                "hop0", "hop0-rev", "hop1", "hop1-rev", "long-tx0->router0",
                "router0->long-tx0", "long-rx0->router2",
                "router2->long-rx0", "x0-tx0->router0", "router0->x0-tx0",
                "x0-rx0->router1", "router1->x0-rx0", "x1-tx0->router1",
                "router1->x1-tx0", "x1-rx0->router2", "router2->x1-rx0"}));
  const auto& links = pl.net().links();
  for (std::size_t i = 4; i < links.size(); ++i)
    EXPECT_EQ(links[i]->queue().capacity_bytes(), 10'000'000);
}

TEST(TopologyIface, GeneratedGraphsNameLinksAfterBothNodes) {
  GraphTopology ft(fat_tree_graph(FatTreeConfig{}));
  EXPECT_EQ(ft.net().links()[0]->name(), "host0<->edge0-0");
  EXPECT_EQ(ft.net().links()[1]->name(), "host0<->edge0-0-rev");
  GraphTopology wan(wan_graph(WanGraphConfig{}));
  EXPECT_EQ(wan.net().links()[0]->name(), "site0<->site1");
  EXPECT_EQ(wan.net().links()[1]->name(), "site0<->site1-rev");
}

}  // namespace
}  // namespace phi::sim

// Generated topologies (sim/graph_topology.hpp): fat-tree and WAN shape
// counts, deterministic ECMP routing, region assignment, bottleneck path
// mapping, and the TopologySpec variant dispatch that feeds the
// self-describing run artifacts.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "sim/graph_topology.hpp"
#include "sim/topology.hpp"

namespace phi::sim {
namespace {

TEST(GraphTopology, FatTreeShapeCountsMatchTheFormulae) {
  const FatTreeConfig cfg{};  // k = 4
  const GraphSpec g = fat_tree_graph(cfg);
  const TopologyShape shape = graph_shape(g);
  // k=4: 16 hosts + 8 edge + 8 agg + 4 core = 36 nodes; 16 host links +
  // 16 edge-agg + 16 agg-core = 48 duplex edges = 96 directed links;
  // the monitored agg<->core tier gives 16 edges -> 32 paths.
  EXPECT_STREQ(shape.klass, "fat-tree");
  EXPECT_EQ(shape.nodes, 36u);
  EXPECT_EQ(shape.links, 96u);
  EXPECT_EQ(shape.endpoints, 16u);
  EXPECT_EQ(shape.paths, 32u);

  GraphTopology t(g);
  EXPECT_EQ(t.endpoint_count(), shape.endpoints);
  EXPECT_EQ(t.path_count(), shape.paths);
  EXPECT_EQ(t.net().node_count(), shape.nodes);
}

TEST(GraphTopology, FatTreeRegionsArePods) {
  GraphTopology t(fat_tree_graph(FatTreeConfig{}));
  EXPECT_EQ(t.regions(), 4);
  for (std::size_t i = 0; i < t.endpoint_count(); ++i) {
    EXPECT_EQ(t.endpoint_region(i), static_cast<int>(i / 4));
  }
}

TEST(GraphTopology, RoutesAreDeterministicAcrossRebuilds) {
  const GraphSpec g = fat_tree_graph(FatTreeConfig{});
  GraphTopology a(g);
  GraphTopology b(g);
  for (std::size_t i = 0; i < a.endpoint_count(); ++i) {
    EXPECT_EQ(a.endpoint_path(i), b.endpoint_path(i));
    EXPECT_EQ(a.endpoint_hops(i), b.endpoint_hops(i));
  }
}

TEST(GraphTopology, DestinationSpreadEcmpUsesMultipleCorePaths) {
  GraphTopology t(fat_tree_graph(FatTreeConfig{}));
  std::set<std::size_t> used;
  for (std::size_t i = 0; i < t.endpoint_count(); ++i) {
    const std::size_t p = t.endpoint_path(i);
    ASSERT_NE(p, Topology::kAllPaths);
    used.insert(p);
  }
  // With destination-spread ECMP the 16 cross-pod routes must not all
  // collapse onto one core link.
  EXPECT_GT(used.size(), 1u);
}

TEST(GraphTopology, FatTreeEndpointPathIsTheCoreBottleneck) {
  const FatTreeConfig cfg{};
  GraphTopology t(fat_tree_graph(cfg));
  for (std::size_t i = 0; i < t.endpoint_count(); ++i) {
    // Every pair is cross-pod for k=4 (host i -> host i+8 mod 16):
    // host-edge-agg-core-agg-edge-host = 6 links, bottlenecked at core.
    EXPECT_EQ(t.endpoint_hops(i), 6u);
    EXPECT_DOUBLE_EQ(t.path_link(t.endpoint_path(i)).rate(), cfg.core_rate);
  }
}

TEST(GraphTopology, WanGraphIsAPureFunctionOfItsSeed) {
  WanGraphConfig cfg{};
  cfg.seed = 5;
  const GraphSpec a = wan_graph(cfg);
  const GraphSpec b = wan_graph(cfg);
  ASSERT_EQ(a.edges.size(), b.edges.size());
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].a, b.edges[i].a);
    EXPECT_EQ(a.edges[i].b, b.edges[i].b);
    EXPECT_DOUBLE_EQ(a.edges[i].rate, b.edges[i].rate);
    EXPECT_EQ(a.edges[i].delay, b.edges[i].delay);
  }

  cfg.seed = 6;
  const GraphSpec c = wan_graph(cfg);
  bool differs = c.edges.size() != a.edges.size();
  for (std::size_t i = 0; !differs && i < a.edges.size(); ++i) {
    differs = a.edges[i].a != c.edges[i].a || a.edges[i].b != c.edges[i].b ||
              a.edges[i].rate != c.edges[i].rate ||
              a.edges[i].delay != c.edges[i].delay;
  }
  EXPECT_TRUE(differs);
}

TEST(GraphTopology, WanRegionsAreSites) {
  WanGraphConfig cfg{};  // 6 sites x 3 hosts
  GraphTopology t(wan_graph(cfg));
  EXPECT_EQ(t.regions(), 6);
  EXPECT_EQ(t.endpoint_count(), 18u);
  for (std::size_t i = 0; i < t.endpoint_count(); ++i) {
    EXPECT_EQ(t.endpoint_region(i), static_cast<int>(i / cfg.hosts_per_site));
  }
}

TEST(GraphTopology, TopologySpecVariantDispatchesToGenerators) {
  const TopologySpec ft = FatTreeConfig{};
  const TopologyShape shape = topology_shape(ft);
  EXPECT_STREQ(shape.klass, "fat-tree");
  EXPECT_EQ(shape.nodes, 36u);
  EXPECT_EQ(shape.paths, 32u);
  EXPECT_EQ(endpoint_count(ft), 16u);

  std::unique_ptr<Topology> t = make_topology(ft);
  ASSERT_NE(dynamic_cast<GraphTopology*>(t.get()), nullptr);
  EXPECT_EQ(t->endpoint_count(), 16u);

  const TopologySpec wan = WanGraphConfig{};
  EXPECT_STREQ(topology_shape(wan).klass, "wan");
  EXPECT_EQ(topology_shape(wan).endpoints, 18u);
}

}  // namespace
}  // namespace phi::sim

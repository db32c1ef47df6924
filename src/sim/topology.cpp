#include "sim/topology.hpp"

namespace phi::sim {

namespace {

GraphSpec topology_graph(const TopologySpec& spec) {
  return std::visit(
      [](const auto& cfg) -> GraphSpec {
        using T = std::decay_t<decltype(cfg)>;
        if constexpr (std::is_same_v<T, DumbbellConfig>) {
          return dumbbell_graph(cfg);
        } else if constexpr (std::is_same_v<T, ParkingLotConfig>) {
          return parking_lot_graph(cfg);
        } else if constexpr (std::is_same_v<T, FatTreeConfig>) {
          return fat_tree_graph(cfg);
        } else {
          return wan_graph(cfg);
        }
      },
      spec);
}

}  // namespace

std::unique_ptr<Topology> make_topology(const TopologySpec& spec) {
  return std::make_unique<GraphTopology>(topology_graph(spec));
}

TopologyShape topology_shape(const TopologySpec& spec) {
  return graph_shape(topology_graph(spec));
}

std::size_t endpoint_count(const TopologySpec& spec) noexcept {
  return std::visit(
      [](const auto& cfg) -> std::size_t {
        using T = std::decay_t<decltype(cfg)>;
        if constexpr (std::is_same_v<T, DumbbellConfig>) {
          return cfg.pairs;
        } else if constexpr (std::is_same_v<T, ParkingLotConfig>) {
          return cfg.hops * cfg.cross_per_hop + cfg.long_flows;
        } else if constexpr (std::is_same_v<T, FatTreeConfig>) {
          return cfg.k * cfg.k * cfg.k / 4;  // k pods x (k/2)^2 hosts
        } else {
          return cfg.sites * cfg.hosts_per_site;
        }
      },
      spec);
}

}  // namespace phi::sim

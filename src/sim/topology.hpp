// topology.hpp — declarative topology choice. A TopologySpec variant
// names one of the four GraphSpec generators (sim/graph_topology.hpp) by
// its config; make_topology builds every variant as a GraphTopology, so
// the scenario engine is topology-generic (see docs/SCENARIOS.md). The
// paper's experiments run on the Figure-1 dumbbell; the parking lot
// exposes per-path contexts (§2.2.2).
#pragma once

#include <cstddef>
#include <memory>
#include <variant>

#include "sim/graph_topology.hpp"
#include "sim/topology_iface.hpp"

namespace phi::sim {

/// Scenario specs carry this instead of a concrete topology.
using TopologySpec = std::variant<DumbbellConfig, ParkingLotConfig,
                                  FatTreeConfig, WanGraphConfig>;

/// Build the topology a spec describes.
std::unique_ptr<Topology> make_topology(const TopologySpec& spec);

/// Endpoint count implied by a spec, without generating it.
std::size_t endpoint_count(const TopologySpec& spec) noexcept;

/// Class ("dumbbell", "parking-lot", "fat-tree" or "wan") and
/// node/link/endpoint/path counts of a spec, without building a Network
/// (and without registering any telemetry) — what run drivers record in
/// their provenance sidecars.
TopologyShape topology_shape(const TopologySpec& spec);

}  // namespace phi::sim

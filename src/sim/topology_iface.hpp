// topology_iface.hpp — the abstraction the scenario engine runs against.
// A Topology owns a fully-routed Network plus the measurement substrate:
// numbered sender/receiver endpoint pairs (flows are addressed tx -> rx,
// routing already installed) and numbered bottleneck *paths*, each with a
// Link and an attached LinkMonitor. GraphTopology is the one
// implementation: the Figure-1 dumbbell is its one-path instance, and
// the parking lot's path per hop makes per-path contexts observable.
#pragma once

#include <cstddef>

#include "sim/monitor.hpp"
#include "sim/network.hpp"

namespace phi::sim {

class Topology {
 public:
  /// One sender/receiver endpoint pair. Attach agents to `tx`/`rx` and
  /// address packets tx -> rx; every topology guarantees routes exist in
  /// both directions.
  struct Endpoint {
    Node* tx = nullptr;
    Node* rx = nullptr;
  };

  /// endpoint_path() result for a flow whose route crosses no path (e.g.
  /// a fat tree's intra-rack pair).
  static constexpr std::size_t kAllPaths = static_cast<std::size_t>(-1);

  virtual ~Topology() = default;

  virtual Network& net() noexcept = 0;
  Scheduler& scheduler() noexcept { return net().scheduler(); }

  /// Number of addressable sender/receiver pairs.
  virtual std::size_t endpoint_count() const noexcept = 0;
  /// Endpoint `i` (throws std::out_of_range past endpoint_count()).
  virtual Endpoint endpoint(std::size_t i) = 0;

  /// Number of distinct bottleneck paths.
  virtual std::size_t path_count() const noexcept = 0;
  /// Forward bottleneck link of path `p` (throws std::out_of_range).
  virtual Link& path_link(std::size_t p) = 0;
  /// Monitor attached to path `p`'s bottleneck (throws std::out_of_range).
  virtual LinkMonitor& path_monitor(std::size_t p) = 0;
  /// Which path endpoint `i`'s flow is bottlenecked on, or kAllPaths
  /// when it crosses none.
  virtual std::size_t endpoint_path(std::size_t i) const = 0;
};

}  // namespace phi::sim

// graph_topology.hpp — the one topology implementation. A GraphSpec is a
// plain adjacency description (nodes, duplex edges with their queue,
// jitter and monitored directions, sender/receiver endpoint pairs);
// GraphTopology builds the Network from it, installs deterministic
// shortest-path routes with destination-spread ECMP, and exposes every
// monitored link direction as a sim::Topology path with its own
// LinkMonitor. Four generators produce GraphSpecs:
//
//   * dumbbell_graph — the paper's Figure-1 dumbbell; its one path is the
//     forward bottleneck.
//   * parking_lot_graph — the multi-bottleneck chain; each forward hop is
//     a path, which makes per-path contexts observable (§2.2.2).
//   * fat_tree_graph — the k-ary datacenter fat tree (k pods of k/2 edge
//     and k/2 agg switches, (k/2)^2 cores, k^3/4 hosts). Core links get
//     the largest propagation delay, so the shard partitioner's
//     delay-tier cut maps pods onto shards (docs/PARALLELISM.md).
//   * wan_graph — a heterogeneous WAN: site routers on a ring plus
//     seeded random chords, per-edge rates and delays drawn from
//     configured ranges, a few hosts per site.
//
// Everything is a pure function of the config (and an explicit topology
// seed for the WAN), so equal specs reproduce identical networks, paths
// and routes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/monitor.hpp"
#include "sim/network.hpp"
#include "sim/topology_iface.hpp"

namespace phi::sim {

/// Queueing discipline of an edge (both directions): drop-tail FIFO,
/// RED+ECN for the AQM ablation, or per-flow DRR fair queueing for the
/// §3.1 incentive-compatibility counterfactual.
enum class QueueKind { kDropTail, kRedEcn, kFq };

/// Adjacency description a GraphTopology is built from.
struct GraphSpec {
  /// Which directions of an edge become Topology paths: none, a->b, or
  /// a->b then b->a (the value counts them).
  enum class Monitored { kNo = 0, kForward = 1, kBoth = 2 };
  struct Edge {
    std::size_t a = 0;  ///< node index
    std::size_t b = 0;  ///< node index
    util::Rate rate = 100.0 * util::kMbps;
    util::Duration delay = util::milliseconds(1);  ///< one way, each direction
    std::int64_t buffer_bytes = 256 * 1024;
    Monitored monitored = Monitored::kNo;
    QueueKind queue = QueueKind::kDropTail;
    /// Random extra one-way delay in [0, jitter], each direction; edge i
    /// draws from seeds 0xB0B + 32i (a->b) and 0xB1B + 32i (b->a).
    util::Duration jitter = 0;
    /// Name of the a->b link ("-rev" appended for b->a); empty keeps the
    /// Network's "a->b" default for both directions.
    std::string name{};
  };
  struct EndpointSpec {
    std::size_t tx = 0;  ///< node index (host)
    std::size_t rx = 0;  ///< node index (host)
    int region = 0;      ///< aggregation-tree region (pod / site)
  };

  std::vector<std::string> nodes;
  std::vector<Edge> edges;
  std::vector<EndpointSpec> endpoints;
  util::Duration monitor_interval = util::milliseconds(100);
  const char* klass = "graph";  ///< generator kind ("fat-tree", "wan", ...)
  int regions = 1;

  /// Number of monitored link directions (= Topology paths).
  std::size_t monitored_paths() const noexcept {
    std::size_t n = 0;
    for (const Edge& e : edges) n += static_cast<std::size_t>(e.monitored);
    return n;
  }
};

/// Node/link/endpoint/path counts implied by a GraphSpec without
/// building it: links counts both directions of every duplex edge; paths
/// counts every monitored direction, exactly GraphTopology::path_count().
struct TopologyShape {
  const char* klass = "graph";
  std::size_t nodes = 0;
  std::size_t links = 0;
  std::size_t endpoints = 0;
  std::size_t paths = 0;
};

TopologyShape graph_shape(const GraphSpec& spec) noexcept;

/// A fully-routed network built from a GraphSpec. Routing is hop-count
/// shortest path weighted by propagation delay; among equal-cost next
/// hops the choice is spread by destination node id (classic
/// destination-based ECMP — in the fat tree this reproduces the
/// Al-Fares suffix routing), so it is a pure function of the graph.
class GraphTopology : public Topology {
 public:
  explicit GraphTopology(GraphSpec spec);

  Network& net() noexcept override { return net_; }

  std::size_t endpoint_count() const noexcept override {
    return spec_.endpoints.size();
  }
  Endpoint endpoint(std::size_t i) override;

  // Paths: monitored link directions in edge order, a->b before b->a.
  std::size_t path_count() const noexcept override { return paths_.size(); }
  Link& path_link(std::size_t p) override { return *paths_.at(p); }
  LinkMonitor& path_monitor(std::size_t p) override {
    return *monitors_.at(p);
  }
  /// The *bottleneck* monitored link endpoint `i`'s route crosses (the
  /// smallest-rate one; first traversed on ties, so a parking lot's long
  /// pair reads hop 0), or kAllPaths when the route crosses no monitored
  /// link (an intra-rack pair).
  std::size_t endpoint_path(std::size_t i) const override {
    if (i >= endpoint_paths_.size())
      throw std::out_of_range("endpoint index");
    return endpoint_paths_[i];
  }

  /// Aggregation-tree region of endpoint `i` (fat-tree pod, WAN site).
  int endpoint_region(std::size_t i) const {
    return spec_.endpoints.at(i).region;
  }
  int regions() const noexcept { return spec_.regions; }
  /// Number of links endpoint `i`'s forward route traverses.
  std::size_t endpoint_hops(std::size_t i) const {
    return hop_counts_.at(i);
  }

 private:
  /// Creates paths and monitors; returns each link's path or kAllPaths.
  std::vector<std::size_t> enumerate_paths();
  void install_routes(const std::vector<std::size_t>& path_of);

  GraphSpec spec_;
  Network net_;
  std::vector<Link*> paths_;
  std::vector<std::unique_ptr<LinkMonitor>> monitors_;
  std::vector<std::size_t> endpoint_paths_;
  std::vector<std::size_t> hop_counts_;
};

/// The Figure-1 dumbbell: pair i (sender i -> receiver i) is endpoint i;
/// the bottleneck carries the queue and jitter and a buffer of
/// buffer_bdp_multiple x its BDP; edge links get 10x that plus 1 MB.
struct DumbbellConfig {
  std::size_t pairs = 8;
  util::Rate bottleneck_rate = 15.0 * util::kMbps;
  util::Duration rtt = util::milliseconds(150);  ///< end-to-end round trip
  util::Rate edge_rate = 1000.0 * util::kMbps;
  util::Duration edge_delay = util::milliseconds(1);  ///< per edge hop, one way
  double buffer_bdp_multiple = 5.0;                   ///< Figure 1
  util::Duration monitor_interval = util::milliseconds(100);

  /// Bottleneck queueing discipline.
  using Queue = QueueKind;
  Queue queue = Queue::kDropTail;
  /// Random extra one-way delay on the bottleneck (reorders packets).
  util::Duration bottleneck_jitter = 0;
};

GraphSpec dumbbell_graph(const DumbbellConfig& cfg);

/// The parking lot: routers R0..RH, hop h (path h) from Rh to Rh+1,
/// long pairs R0 -> RH and cross pairs Rh -> Rh+1. Endpoints are
/// hop-major: cross pair (h, i) is h * cross_per_hop + i, then the longs.
struct ParkingLotConfig {
  std::size_t hops = 2;            ///< bottleneck links (routers = hops+1)
  std::size_t cross_per_hop = 4;   ///< cross-traffic pairs loading each hop
  std::size_t long_flows = 2;      ///< end-to-end pairs across all hops
  util::Rate hop_rate = 15.0 * util::kMbps;
  util::Duration hop_delay = util::milliseconds(20);  ///< one way per hop
  util::Rate edge_rate = 1000.0 * util::kMbps;
  util::Duration edge_delay = util::milliseconds(1);
  double buffer_bdp_multiple = 5.0;
  util::Duration monitor_interval = util::milliseconds(100);
};

GraphSpec parking_lot_graph(const ParkingLotConfig& cfg);

/// k-ary fat tree (k even, >= 2): k pods x (k/2 edge + k/2 agg)
/// switches, (k/2)^2 cores, k/2 hosts per edge switch. Endpoint i sends
/// from host i to host (i + H/2) mod H — always a different pod for
/// k >= 4 — and its region is the sending pod. The agg<->core tier is
/// monitored (it is the congested tier with the default rates) and
/// carries the largest delay so pods map onto shards.
struct FatTreeConfig {
  std::size_t k = 4;
  util::Rate host_rate = 400.0 * util::kMbps;    ///< host <-> edge switch
  util::Rate fabric_rate = 200.0 * util::kMbps;  ///< edge <-> agg
  util::Rate core_rate = 100.0 * util::kMbps;    ///< agg <-> core
  util::Duration host_delay = util::microseconds(20);
  util::Duration fabric_delay = util::microseconds(50);
  /// Core-link propagation delay; also the sharded lookahead window.
  util::Duration core_delay = util::milliseconds(1);
  double buffer_bdp_multiple = 2.0;
  util::Duration monitor_interval = util::milliseconds(100);
};

GraphSpec fat_tree_graph(const FatTreeConfig& cfg);

/// Heterogeneous WAN: `sites` routers on a ring plus `extra_chords`
/// seeded random chords; every inter-site edge draws its rate and delay
/// uniformly from the configured ranges (all monitored). Each site hosts
/// `hosts_per_site` endpoints on fast access links; endpoint i sends
/// host i -> host (i + H/2) mod H and its region is the sending site.
struct WanGraphConfig {
  std::size_t sites = 6;
  std::size_t hosts_per_site = 3;
  std::size_t extra_chords = 2;
  util::Rate min_rate = 40.0 * util::kMbps;
  util::Rate max_rate = 160.0 * util::kMbps;
  util::Duration min_delay = util::milliseconds(4);
  util::Duration max_delay = util::milliseconds(30);
  util::Rate access_rate = 1000.0 * util::kMbps;
  util::Duration access_delay = util::milliseconds(1);
  double buffer_bdp_multiple = 2.0;
  /// Topology-shape seed (chords + per-edge draws); independent of the
  /// scenario run seed, so overriding `seed` re-runs the same graph.
  std::uint64_t seed = 1;
  util::Duration monitor_interval = util::milliseconds(100);
};

GraphSpec wan_graph(const WanGraphConfig& cfg);

}  // namespace phi::sim

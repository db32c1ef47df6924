#include "sim/graph_topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>
#include <tuple>

#include "sim/fq.hpp"
#include "util/rng.hpp"

namespace phi::sim {

TopologyShape graph_shape(const GraphSpec& spec) noexcept {
  TopologyShape s;
  s.klass = spec.klass;
  s.nodes = spec.nodes.size();
  s.links = 2 * spec.edges.size();
  s.endpoints = spec.endpoints.size();
  s.paths = spec.monitored_paths();
  return s;
}

namespace {

std::unique_ptr<QueueDisc> make_queue(const GraphSpec::Edge& e) {
  if (e.queue == QueueKind::kRedEcn) {
    RedQueue::Config red;
    red.capacity_bytes = e.buffer_bytes;
    return std::make_unique<RedQueue>(red);
  }
  if (e.queue == QueueKind::kFq) {
    DrrQueue::Config fq;
    fq.capacity_bytes = e.buffer_bytes;
    return std::make_unique<DrrQueue>(fq);
  }
  return std::make_unique<DropTailDisc>(e.buffer_bytes);
}

/// Name every edge "a<->b" after its nodes (the generated-topology links).
void name_edges_by_nodes(GraphSpec& g) {
  for (GraphSpec::Edge& e : g.edges)
    e.name = g.nodes[e.a] + "<->" + g.nodes[e.b];
}

}  // namespace

GraphTopology::GraphTopology(GraphSpec spec) : spec_(std::move(spec)) {
  const std::size_t n = spec_.nodes.size();
  if (n == 0) throw std::invalid_argument("graph topology needs nodes");
  for (const GraphSpec::Edge& e : spec_.edges)
    if (e.a >= n || e.b >= n || e.a == e.b)
      throw std::invalid_argument("graph edge endpoints out of range");
  for (const GraphSpec::EndpointSpec& ep : spec_.endpoints)
    if (ep.tx >= n || ep.rx >= n)
      throw std::invalid_argument("graph endpoint node out of range");

  // Node i is net().node(i); edge i's a->b link is links()[2i] and its
  // b->a link links()[2i + 1].
  for (const std::string& name : spec_.nodes) net_.add_node(name);
  for (std::size_t i = 0; i < spec_.edges.size(); ++i) {
    const GraphSpec::Edge& e = spec_.edges[i];
    Node& a = net_.node(e.a);
    Node& b = net_.node(e.b);
    Link& fwd = net_.add_link(a, b, e.rate, e.delay, make_queue(e), e.name);
    Link& rev = net_.add_link(b, a, e.rate, e.delay, make_queue(e),
                              e.name.empty() ? std::string{} : e.name + "-rev");
    if (e.jitter > 0) {
      fwd.set_jitter(e.jitter, 0xB0B + 32 * i);
      rev.set_jitter(e.jitter, 0xB1B + 32 * i);
    }
  }
  install_routes(enumerate_paths());
}

Topology::Endpoint GraphTopology::endpoint(std::size_t i) {
  const GraphSpec::EndpointSpec& ep = spec_.endpoints.at(i);
  return Endpoint{&net_.node(ep.tx), &net_.node(ep.rx)};
}

std::vector<std::size_t> GraphTopology::enumerate_paths() {
  std::vector<std::size_t> path_of(net_.links().size(), kAllPaths);
  for (std::size_t e = 0; e < spec_.edges.size(); ++e) {
    const auto dirs = static_cast<std::size_t>(spec_.edges[e].monitored);
    for (std::size_t dir = 0; dir < dirs; ++dir) {
      path_of[2 * e + dir] = paths_.size();
      paths_.push_back(net_.links()[2 * e + dir].get());
    }
  }
  monitors_.reserve(paths_.size());
  for (Link* l : paths_)
    monitors_.push_back(std::make_unique<LinkMonitor>(
        net_.scheduler(), *l, spec_.monitor_interval));
  return path_of;
}

void GraphTopology::install_routes(const std::vector<std::size_t>& path_of) {
  const std::size_t n = spec_.nodes.size();
  constexpr util::Duration kInf =
      std::numeric_limits<util::Duration>::max();
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  // Adjacency (undirected view; the duplex edges are symmetric).
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(n);
  for (std::size_t e = 0; e < spec_.edges.size(); ++e) {
    adj[spec_.edges[e].a].emplace_back(spec_.edges[e].b, e);
    adj[spec_.edges[e].b].emplace_back(spec_.edges[e].a, e);
  }
  // Directional link index of edge e leaving node u.
  const auto out = [&](std::size_t u, std::size_t e) {
    return 2 * e + (spec_.edges[e].a == u ? 0 : 1);
  };

  std::vector<char> is_dest(n, 0);
  for (const GraphSpec::EndpointSpec& ep : spec_.endpoints) {
    is_dest[ep.tx] = 1;  // ACKs route back to the sender
    is_dest[ep.rx] = 1;
  }
  endpoint_paths_.assign(spec_.endpoints.size(), kAllPaths);
  hop_counts_.assign(spec_.endpoints.size(), 0);

  // A node with exactly one link (every host) sends everything over it:
  // a default route, no per-destination entries. Only the others route.
  std::vector<std::size_t> next_edge(n, kNone);  ///< chosen edge toward dest
  std::vector<std::size_t> routers;
  for (std::size_t u = 0; u < n; ++u) {
    if (adj[u].size() == 1) {
      next_edge[u] = adj[u][0].second;
      net_.node(u).set_default_route(net_.links()[out(u, next_edge[u])].get());
    } else {
      routers.push_back(u);
    }
  }

  // Shortest-path trees toward a root, cached per root: Dijkstra
  // (delay-weighted, hop-count tiebreak; the heap pops in (delay, hops,
  // node) order, so settling is deterministic), then each router's
  // equal-cost next-hop edges toward the root, sorted by (neighbor,
  // edge). A single-link node other than the root is labelled but never
  // expanded: its one neighbor is already settled closer.
  struct Tree {
    std::vector<std::size_t> begin;  ///< per node into `next`, n + 1 long
    std::vector<std::size_t> next;   ///< candidate edges; none: unreachable
  };
  std::vector<std::size_t> tree_of(n, kNone);
  std::vector<Tree> trees;
  std::vector<util::Duration> dist(n);
  std::vector<std::size_t> hops(n);
  using Item = std::tuple<util::Duration, std::size_t, std::size_t>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  std::vector<std::pair<std::size_t, std::size_t>> cands;
  const auto tree = [&](std::size_t root) -> const Tree& {
    if (tree_of[root] != kNone) return trees[tree_of[root]];
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(hops.begin(), hops.end(), kNone);
    dist[root] = 0;
    hops[root] = 0;
    pq.emplace(0, 0, root);
    while (!pq.empty()) {
      const auto [du, hu, u] = pq.top();
      pq.pop();
      if (du != dist[u] || hu != hops[u]) continue;
      for (const auto& [v, e] : adj[u]) {
        const util::Duration dv = du + spec_.edges[e].delay;
        if (dv < dist[v] || (dv == dist[v] && hu + 1 < hops[v])) {
          dist[v] = dv;
          hops[v] = hu + 1;
          if (adj[v].size() != 1) pq.emplace(dv, hu + 1, v);
        }
      }
    }
    tree_of[root] = trees.size();
    Tree& t = trees.emplace_back();
    t.begin.resize(n + 1);
    for (std::size_t u = 0; u < n; ++u) {
      t.begin[u] = t.next.size();
      if (u == root || adj[u].size() == 1 || dist[u] == kInf) continue;
      cands.clear();
      for (const auto& [v, e] : adj[u])
        if (dist[v] != kInf && dist[v] + spec_.edges[e].delay == dist[u] &&
            hops[v] + 1 == hops[u])
          cands.emplace_back(v, e);
      if (cands.empty())
        throw std::logic_error("graph routing: no next hop");
      std::sort(cands.begin(), cands.end());
      for (const auto& c : cands) t.next.push_back(c.second);
    }
    t.begin[n] = t.next.size();
    return t;
  };

  for (std::size_t d = 0; d < n; ++d) {
    if (is_dest[d] == 0) continue;

    // Every route toward a single-link destination passes its attachment
    // router, so that router's tree gives every other router the same
    // equal-cost candidates (all distances shift by the last link).
    const bool leaf = adj[d].size() == 1;
    const std::size_t root = leaf ? adj[d][0].first : d;
    const Tree& t = tree(root);

    // Next hop per router: among the equal-cost candidates, spread by
    // destination id — a pure function of the graph, and exactly the fat
    // tree's suffix-based ECMP.
    for (const std::size_t u : routers) {
      next_edge[u] = kNone;
      const std::size_t k = t.begin[u + 1] - t.begin[u];
      if (u == d) continue;
      if (leaf && u == root)
        next_edge[u] = adj[d][0].second;
      else if (k > 0)
        next_edge[u] = t.next[t.begin[u] + d % k];
      else
        continue;  // unreachable
      net_.node(u).add_route(d, net_.links()[out(u, next_edge[u])].get());
    }

    // Endpoint bottleneck paths: walk each endpoint whose receiver is
    // `d` along the just-installed routes and pick the smallest-rate
    // monitored link it crosses (first on ties).
    for (std::size_t i = 0; i < spec_.endpoints.size(); ++i) {
      if (spec_.endpoints[i].rx != d) continue;
      std::size_t u = spec_.endpoints[i].tx;
      util::Rate best_rate = 0;
      std::size_t count = 0;
      while (u != d) {
        const std::size_t e = next_edge[u];
        if (e == kNone)
          throw std::logic_error("graph routing: endpoint unreachable");
        const std::size_t p = path_of[out(u, e)];
        if (p != kAllPaths && (endpoint_paths_[i] == kAllPaths ||
                               spec_.edges[e].rate < best_rate)) {
          endpoint_paths_[i] = p;
          best_rate = spec_.edges[e].rate;
        }
        u = spec_.edges[e].a == u ? spec_.edges[e].b : spec_.edges[e].a;
        if (++count > n) throw std::logic_error("graph routing: loop");
      }
      hop_counts_[i] = count;
    }
  }
}

GraphSpec dumbbell_graph(const DumbbellConfig& cfg) {
  if (cfg.pairs == 0) throw std::invalid_argument("dumbbell needs >= 1 pair");
  // Two edge hops plus the bottleneck hop, each direction.
  const util::Duration bottleneck_delay = cfg.rtt / 2 - 2 * cfg.edge_delay;
  if (bottleneck_delay <= 0)
    throw std::invalid_argument("rtt too small for the edge delays");
  const auto buffer = static_cast<std::int64_t>(
      cfg.buffer_bdp_multiple *
      static_cast<double>(util::bdp_bytes(cfg.bottleneck_rate, cfg.rtt)));
  // Edge links get generous buffers; they are never the constraint.
  const std::int64_t edge_buf = 10 * buffer + 1'000'000;

  GraphSpec g;
  g.klass = "dumbbell";
  g.monitor_interval = cfg.monitor_interval;
  g.nodes = {"left-router", "right-router"};
  g.edges.push_back({0, 1, cfg.bottleneck_rate, bottleneck_delay, buffer,
                     GraphSpec::Monitored::kForward, cfg.queue,
                     cfg.bottleneck_jitter, "bottleneck"});
  for (std::size_t i = 0; i < cfg.pairs; ++i) {
    const std::size_t s = g.nodes.size();
    g.nodes.push_back("sender" + std::to_string(i));
    g.nodes.push_back("receiver" + std::to_string(i));
    g.edges.push_back({s, 0, cfg.edge_rate, cfg.edge_delay, edge_buf});
    g.edges.push_back({1, s + 1, cfg.edge_rate, cfg.edge_delay, edge_buf});
    g.endpoints.push_back({s, s + 1});
  }
  return g;
}

GraphSpec parking_lot_graph(const ParkingLotConfig& cfg) {
  if (cfg.hops == 0) throw std::invalid_argument("need >= 1 hop");
  // Per-hop RTT for buffer sizing: a long flow's RTT spans all hops, but
  // cross traffic (the heavier load) sees one hop; size per-hop buffers
  // for the single-hop round trip like the dumbbell does.
  const util::Duration hop_rtt = 2 * (cfg.hop_delay + 2 * cfg.edge_delay);
  const auto buffer = static_cast<std::int64_t>(
      cfg.buffer_bdp_multiple *
      static_cast<double>(util::bdp_bytes(cfg.hop_rate, hop_rtt)));

  GraphSpec g;
  g.klass = "parking-lot";
  g.monitor_interval = cfg.monitor_interval;
  const std::size_t hosts = 2 * (cfg.hops * cfg.cross_per_hop + cfg.long_flows);
  g.nodes.reserve(cfg.hops + 1 + hosts);
  g.edges.reserve(cfg.hops + hosts);
  for (std::size_t r = 0; r <= cfg.hops; ++r)
    g.nodes.push_back("router" + std::to_string(r));
  for (std::size_t h = 0; h < cfg.hops; ++h)
    g.edges.push_back({h, h + 1, cfg.hop_rate, cfg.hop_delay, buffer,
                       GraphSpec::Monitored::kForward, QueueKind::kDropTail, 0,
                       "hop" + std::to_string(h)});

  // A host cabled to `router`; hosts are created long pairs first, then
  // hop by hop, while endpoints are numbered hop-major.
  const auto host = [&](std::size_t router, std::string name) {
    g.nodes.push_back(std::move(name));
    g.edges.push_back({g.nodes.size() - 1, router, cfg.edge_rate,
                       cfg.edge_delay, 10'000'000});
    return g.nodes.size() - 1;
  };
  std::vector<GraphSpec::EndpointSpec> longs;
  for (std::size_t i = 0; i < cfg.long_flows; ++i) {
    const std::size_t tx = host(0, "long-tx" + std::to_string(i));
    longs.push_back({tx, host(cfg.hops, "long-rx" + std::to_string(i))});
  }
  for (std::size_t h = 0; h < cfg.hops; ++h) {
    const std::string x = "x" + std::to_string(h);
    for (std::size_t i = 0; i < cfg.cross_per_hop; ++i) {
      const std::size_t tx = host(h, x + "-tx" + std::to_string(i));
      g.endpoints.push_back({tx, host(h + 1, x + "-rx" + std::to_string(i))});
    }
  }
  g.endpoints.insert(g.endpoints.end(), longs.begin(), longs.end());
  return g;
}

GraphSpec fat_tree_graph(const FatTreeConfig& cfg) {
  if (cfg.k < 2 || cfg.k % 2 != 0)
    throw std::invalid_argument("fat tree wants an even k >= 2");
  const std::size_t half = cfg.k / 2;
  const std::size_t pods = cfg.k;
  const std::size_t hosts_per_pod = half * half;
  const std::size_t hosts = pods * hosts_per_pod;
  const std::size_t cores = half * half;

  GraphSpec g;
  g.klass = "fat-tree";
  g.regions = static_cast<int>(pods);
  g.monitor_interval = cfg.monitor_interval;

  // Node order: hosts, then edge switches, aggs, cores (pod-major).
  for (std::size_t h = 0; h < hosts; ++h)
    g.nodes.push_back("host" + std::to_string(h));
  const std::size_t edge_base = hosts;
  for (std::size_t p = 0; p < pods; ++p)
    for (std::size_t j = 0; j < half; ++j)
      g.nodes.push_back("edge" + std::to_string(p) + "-" + std::to_string(j));
  const std::size_t agg_base = edge_base + pods * half;
  for (std::size_t p = 0; p < pods; ++p)
    for (std::size_t j = 0; j < half; ++j)
      g.nodes.push_back("agg" + std::to_string(p) + "-" + std::to_string(j));
  const std::size_t core_base = agg_base + pods * half;
  for (std::size_t c = 0; c < cores; ++c)
    g.nodes.push_back("core" + std::to_string(c));

  // Worst-case RTT for buffer sizing: both directions of
  // host->edge->agg->core->agg->edge->host.
  const util::Duration rtt_est =
      4 * (cfg.host_delay + cfg.fabric_delay + cfg.core_delay);
  const auto buf = [&](util::Rate r) {
    return static_cast<std::int64_t>(cfg.buffer_bdp_multiple *
                                     static_cast<double>(
                                         util::bdp_bytes(r, rtt_est)));
  };

  for (std::size_t h = 0; h < hosts; ++h) {
    const std::size_t pod = h / hosts_per_pod;
    const std::size_t rack = (h % hosts_per_pod) / half;
    g.edges.push_back({h, edge_base + pod * half + rack, cfg.host_rate,
                       cfg.host_delay, buf(cfg.host_rate)});
  }
  for (std::size_t p = 0; p < pods; ++p)
    for (std::size_t j = 0; j < half; ++j)
      for (std::size_t m = 0; m < half; ++m)
        g.edges.push_back({edge_base + p * half + j, agg_base + p * half + m,
                           cfg.fabric_rate, cfg.fabric_delay,
                           buf(cfg.fabric_rate)});
  // Agg m of every pod connects to cores [m*half, (m+1)*half).
  for (std::size_t p = 0; p < pods; ++p)
    for (std::size_t m = 0; m < half; ++m)
      for (std::size_t c = 0; c < half; ++c)
        g.edges.push_back({agg_base + p * half + m,
                           core_base + m * half + c, cfg.core_rate,
                           cfg.core_delay, buf(cfg.core_rate),
                           GraphSpec::Monitored::kBoth});

  for (std::size_t i = 0; i < hosts; ++i) {
    GraphSpec::EndpointSpec ep;
    ep.tx = i;
    ep.rx = (i + hosts / 2) % hosts;
    ep.region = static_cast<int>(i / hosts_per_pod);
    g.endpoints.push_back(ep);
  }
  name_edges_by_nodes(g);
  return g;
}

GraphSpec wan_graph(const WanGraphConfig& cfg) {
  if (cfg.sites < 3)
    throw std::invalid_argument("wan graph wants >= 3 sites");
  if (cfg.hosts_per_site == 0)
    throw std::invalid_argument("wan graph wants >= 1 host per site");
  const std::size_t sites = cfg.sites;
  const std::size_t hosts = sites * cfg.hosts_per_site;

  GraphSpec g;
  g.klass = "wan";
  g.regions = static_cast<int>(sites);
  g.monitor_interval = cfg.monitor_interval;

  for (std::size_t s = 0; s < sites; ++s)
    g.nodes.push_back("site" + std::to_string(s));
  const std::size_t host_base = sites;
  for (std::size_t h = 0; h < hosts; ++h)
    g.nodes.push_back("whost" + std::to_string(h));

  // Every inter-site edge draws rate and delay from the configured
  // ranges; the draws are a pure function of the topology seed.
  util::Rng rng(cfg.seed);
  const auto draw_edge = [&](std::size_t a, std::size_t b) {
    const util::Rate rate = rng.uniform(cfg.min_rate, cfg.max_rate);
    const double frac = rng.uniform();
    const util::Duration delay =
        cfg.min_delay + static_cast<util::Duration>(
                            frac * static_cast<double>(cfg.max_delay -
                                                       cfg.min_delay));
    const util::Duration rtt_est = 2 * (delay + 2 * cfg.access_delay);
    const auto buffer = static_cast<std::int64_t>(
        cfg.buffer_bdp_multiple *
        static_cast<double>(util::bdp_bytes(rate, rtt_est)));
    g.edges.push_back({a, b, rate, delay, buffer, GraphSpec::Monitored::kBoth});
  };

  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (std::size_t s = 0; s < sites; ++s) {
    const std::size_t t = (s + 1) % sites;
    seen.insert({std::min(s, t), std::max(s, t)});
    draw_edge(s, t);
  }
  for (std::size_t c = 0; c < cfg.extra_chords; ++c) {
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto a = static_cast<std::size_t>(rng.below(sites));
      const auto b = static_cast<std::size_t>(rng.below(sites));
      if (a == b) continue;
      if (!seen.insert({std::min(a, b), std::max(a, b)}).second) continue;
      draw_edge(a, b);
      break;
    }
  }

  const std::int64_t access_buf = static_cast<std::int64_t>(
      cfg.buffer_bdp_multiple *
      static_cast<double>(
          util::bdp_bytes(cfg.access_rate, 2 * cfg.max_delay)));
  for (std::size_t h = 0; h < hosts; ++h)
    g.edges.push_back({host_base + h, h / cfg.hosts_per_site,
                       cfg.access_rate, cfg.access_delay, access_buf});

  for (std::size_t i = 0; i < hosts; ++i) {
    GraphSpec::EndpointSpec ep;
    ep.tx = host_base + i;
    ep.rx = host_base + (i + hosts / 2) % hosts;
    ep.region = static_cast<int>(i / cfg.hosts_per_site);
    g.endpoints.push_back(ep);
  }
  name_edges_by_nodes(g);
  return g;
}

}  // namespace phi::sim

// path_census — the §2.1 measurement pipeline as an operator would run
// it: which flows actually share a bottleneck, and which destinations
// dominate the traffic mix?
//
// 1. Run mixed traffic over a two-hop parking lot.
// 2. Cluster the fleet's flows by delay correlation (passive shared-
//    bottleneck detection) and compare against the true topology.
// 3. In parallel, feed a synthetic egress trace through IPFIX sampling and
//    Space-Saving heavy hitters to rank the /24s worth a context server.
//
// Build & run:  ./build/examples/path_census
#include <cstdio>
#include <functional>
#include <memory>

#include "flow/bottleneck.hpp"
#include "flow/heavy_hitters.hpp"
#include "flow/tracegen.hpp"
#include "sim/graph_topology.hpp"
#include "tcp/app.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"

using namespace phi;

int main() {
  std::printf("== step 1: who shares a bottleneck? ==\n");
  sim::ParkingLotConfig cfg;
  cfg.hops = 2;
  cfg.cross_per_hop = 5;
  sim::GraphTopology lot(sim::parking_lot_graph(cfg));
  flow::SharedBottleneckDetector det;

  std::vector<std::unique_ptr<tcp::TcpSender>> senders;
  std::vector<std::unique_ptr<tcp::TcpSink>> sinks;
  std::vector<std::unique_ptr<tcp::OnOffApp>> apps;
  std::vector<std::pair<std::uint64_t, int>> probes;  // flow id, true hop
  std::vector<tcp::TcpSender*> probe_senders;
  util::Rng seeder(17);
  for (std::size_t h = 0; h < 2; ++h) {
    for (std::size_t i = 0; i < cfg.cross_per_hop; ++i) {
      const sim::FlowId flow = 100 * (h + 1) + i;
      const sim::Topology::Endpoint ep =
          lot.endpoint(h * cfg.cross_per_hop + i);
      senders.push_back(std::make_unique<tcp::TcpSender>(
          lot.scheduler(), *ep.tx, ep.rx->id(), flow,
          std::make_unique<tcp::Cubic>(tcp::CubicParams{64, 8, 0.2})));
      sinks.push_back(std::make_unique<tcp::TcpSink>(
          lot.scheduler(), *ep.rx, flow));
      if (i < 2) {
        senders.back()->start_connection(10'000'000,
                                         [](const tcp::ConnStats&) {});
        probes.emplace_back(flow, static_cast<int>(h));
        probe_senders.push_back(senders.back().get());
      } else {
        tcp::OnOffConfig oc;
        oc.mean_on_bytes = 500e3;
        oc.mean_off_s = 1.0;
        apps.push_back(std::make_unique<tcp::OnOffApp>(
            lot.scheduler(), *senders.back(), oc, seeder()));
        apps.back()->start();
      }
    }
  }
  std::function<void()> sample = [&] {
    for (std::size_t k = 0; k < probe_senders.size(); ++k) {
      const auto& rtt = probe_senders[k]->rtt();
      if (rtt.has_sample())
        det.record(probes[k].first, lot.scheduler().now(),
                   util::to_seconds(rtt.srtt() - rtt.min_rtt()));
    }
    if (lot.scheduler().now() < util::seconds(50))
      lot.scheduler().schedule_in(util::milliseconds(100), sample);
  };
  lot.scheduler().schedule_in(util::milliseconds(100), sample);
  lot.net().run_until(util::seconds(50));

  for (const auto& cluster : det.cluster()) {
    std::printf("  shared-bottleneck group:");
    for (const auto id : cluster) {
      int hop = -1;
      for (const auto& [fid, h] : probes)
        if (fid == id) hop = h;
      std::printf("  flow%llu(hop%d)", static_cast<unsigned long long>(id),
                  hop);
    }
    std::printf("\n");
  }

  std::printf("\n== step 2: which destinations dominate? ==\n");
  util::Rng rng(23);
  const util::ZipfSampler zipf(5000, 1.1);
  flow::SpaceSaving<std::size_t> hh(256);
  for (int i = 0; i < 400000; ++i) hh.add(zipf(rng));
  std::printf("  top destinations by flow count (Space-Saving, 256 "
              "counters over 400k flows):\n");
  int rank = 1;
  for (const auto& e : hh.top(5)) {
    std::printf("   #%d  /24 id %-5zu  ~%llu flows (err <= %llu)\n", rank++,
                e.key, static_cast<unsigned long long>(e.count),
                static_cast<unsigned long long>(e.error));
  }
  std::printf("  top-5 carry >= %.1f%% of all flows -> the context servers\n"
              "  for these paths cover a disproportionate traffic share,\n"
              "  which is the economics behind the whole Phi design.\n",
              hh.top_share(5) * 100.0);
  return 0;
}

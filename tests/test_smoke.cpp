// Early end-to-end sanity checks for the sim+tcp substrate.
#include <gtest/gtest.h>

#include <memory>

#include "sim/topology.hpp"
#include "tcp/app.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"

namespace phi {
namespace {

TEST(Smoke, SingleCubicFlowFillsBottleneck) {
  sim::DumbbellConfig cfg;
  cfg.pairs = 1;
  cfg.bottleneck_rate = 15.0 * util::kMbps;
  cfg.rtt = util::milliseconds(150);
  sim::GraphTopology d(sim::dumbbell_graph(cfg));

  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(),
                        /*flow=*/1, std::make_unique<tcp::Cubic>());
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, /*flow=*/1);

  bool done = false;
  tcp::ConnStats stats;
  // Long enough that steady-state dominates the initial slow-start
  // overshoot (which is real: 65K-segment default ssthresh).
  sender.start_connection(12000, [&](const tcp::ConnStats& s) {
    done = true;
    stats = s;
  });
  d.net().run_until(util::seconds(60));

  ASSERT_TRUE(done) << "connection never completed";
  const double tput = stats.throughput_bps();
  // Default Cubic (65K-segment ssthresh) pays a heavy slow-start
  // overshoot on this path — that's the paper's premise — but steady
  // state still dominates a long transfer.
  EXPECT_GT(tput, 0.40 * cfg.bottleneck_rate);
  EXPECT_LT(tput, 1.01 * cfg.bottleneck_rate);
  EXPECT_GT(stats.rtt_samples, 100u);
  EXPECT_GE(stats.min_rtt_s, 0.149);
  EXPECT_LT(stats.min_rtt_s, 0.30);
}

TEST(Smoke, EightOnOffSendersProduceTraffic) {
  sim::DumbbellConfig cfg;
  cfg.pairs = 8;
  sim::GraphTopology d(sim::dumbbell_graph(cfg));

  std::vector<std::unique_ptr<tcp::TcpSender>> senders;
  std::vector<std::unique_ptr<tcp::TcpSink>> sinks;
  std::vector<std::unique_ptr<tcp::OnOffApp>> apps;
  for (std::size_t i = 0; i < cfg.pairs; ++i) {
    const sim::FlowId flow = 100 + i;
    senders.push_back(std::make_unique<tcp::TcpSender>(
        d.scheduler(), *d.endpoint(i).tx, d.endpoint(i).rx->id(), flow,
        std::make_unique<tcp::Cubic>()));
    sinks.push_back(std::make_unique<tcp::TcpSink>(d.scheduler(),
                                                   *d.endpoint(i).rx, flow));
    tcp::OnOffConfig oc;
    oc.mean_on_bytes = 100e3;
    oc.mean_off_s = 0.5;
    apps.push_back(std::make_unique<tcp::OnOffApp>(d.scheduler(),
                                                   *senders.back(), oc,
                                                   /*seed=*/1234 + i));
    apps.back()->start();
  }
  d.net().run_until(util::seconds(60));

  std::int64_t total_conns = 0;
  for (const auto& a : apps) {
    EXPECT_GT(a->connections_completed(), 5);
    total_conns += a->connections_completed();
    EXPECT_GT(a->throughput_bps(), 0.0);
    EXPECT_LT(a->throughput_bps(), cfg.bottleneck_rate * 1.01);
  }
  EXPECT_GT(total_conns, 100);
  EXPECT_GT(d.path_monitor(0).utilization_series().mean(), 0.05);
}

}  // namespace
}  // namespace phi

#include <gtest/gtest.h>

#include <memory>

#include "sim/topology.hpp"
#include "tcp/app.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"

namespace phi::tcp {
namespace {

struct AppHarness {
  AppHarness(OnOffConfig cfg, std::uint64_t seed = 7)
      : d(sim::dumbbell_graph(net_cfg())) {
    sender = std::make_unique<TcpSender>(d.scheduler(), *d.endpoint(0).tx,
                                         d.endpoint(0).rx->id(), 1,
                                         std::make_unique<Cubic>());
    sink = std::make_unique<TcpSink>(d.scheduler(), *d.endpoint(0).rx, 1);
    app = std::make_unique<OnOffApp>(d.scheduler(), *sender, cfg, seed);
  }
  static sim::DumbbellConfig net_cfg() {
    sim::DumbbellConfig c;
    c.pairs = 1;
    return c;
  }
  sim::GraphTopology d;
  std::unique_ptr<TcpSender> sender;
  std::unique_ptr<TcpSink> sink;
  std::unique_ptr<OnOffApp> app;
};

TEST(OnOffApp, CyclesConnections) {
  OnOffConfig cfg;
  cfg.mean_on_bytes = 50e3;
  cfg.mean_off_s = 0.2;
  AppHarness h(cfg);
  h.app->start();
  h.d.net().run_until(util::seconds(60));
  EXPECT_GT(h.app->connections_completed(), 10);
  EXPECT_GT(h.app->total_bits(), 0.0);
  EXPECT_GT(h.app->total_on_time_s(), 0.0);
  EXPECT_GT(h.app->throughput_bps(), 0.0);
  EXPECT_GT(h.app->mean_rtt_s(), 0.1);
}

TEST(OnOffApp, MaxConnectionsStopsCycle) {
  OnOffConfig cfg;
  cfg.mean_on_bytes = 10e3;
  cfg.mean_off_s = 0.1;
  cfg.max_connections = 5;
  AppHarness h(cfg);
  h.app->start();
  h.d.net().run_until(util::seconds(120));
  EXPECT_EQ(h.app->connections_completed(), 5);
}

TEST(OnOffApp, StopPreventsNewConnections) {
  OnOffConfig cfg;
  cfg.mean_on_bytes = 10e3;
  cfg.mean_off_s = 0.5;
  AppHarness h(cfg);
  h.app->start();
  h.d.net().run_until(util::seconds(10));
  const auto count = h.app->connections_completed();
  h.app->stop();
  h.d.net().run_until(util::seconds(60));
  EXPECT_LE(h.app->connections_completed(), count + 1);  // in-flight one
}

TEST(OnOffApp, StartIdempotent) {
  OnOffConfig cfg;
  AppHarness h(cfg);
  h.app->start();
  h.app->start();  // no double-scheduling
  h.d.net().run_until(util::seconds(5));
  SUCCEED();
}

TEST(OnOffApp, DeterministicAcrossSeeds) {
  OnOffConfig cfg;
  cfg.mean_on_bytes = 50e3;
  cfg.mean_off_s = 0.2;
  auto run = [&](std::uint64_t seed) {
    AppHarness h(cfg, seed);
    h.app->start();
    h.d.net().run_until(util::seconds(30));
    return std::pair{h.app->connections_completed(), h.app->total_bits()};
  };
  const auto a1 = run(5);
  const auto a2 = run(5);
  const auto b = run(6);
  EXPECT_EQ(a1, a2);
  EXPECT_NE(a1, b);
}

TEST(OnOffApp, AdvisorHooksFire) {
  struct CountingAdvisor : ConnectionAdvisor {
    int before = 0, after = 0;
    void before_connection(TcpSender&) override { ++before; }
    void after_connection(const ConnStats&, const TcpSender&) override {
      ++after;
    }
  } advisor;
  OnOffConfig cfg;
  cfg.mean_on_bytes = 10e3;
  cfg.mean_off_s = 0.2;
  cfg.max_connections = 4;
  AppHarness h(cfg);
  h.app->set_advisor(&advisor);
  h.app->start();
  h.d.net().run_until(util::seconds(60));
  EXPECT_EQ(advisor.after, 4);
  EXPECT_GE(advisor.before, advisor.after);
}

TEST(OnOffApp, AdvisorCanSwapCcPerConnection) {
  struct TuningAdvisor : ConnectionAdvisor {
    void before_connection(TcpSender& s) override {
      s.set_cc(std::make_unique<Cubic>(CubicParams{32, 8, 0.5}));
    }
  } advisor;
  OnOffConfig cfg;
  cfg.mean_on_bytes = 10e3;
  cfg.max_connections = 2;
  AppHarness h(cfg);
  h.app->set_advisor(&advisor);
  h.app->start();
  h.d.net().run_until(util::seconds(30));
  EXPECT_EQ(h.app->connections_completed(), 2);
  EXPECT_EQ(h.sender->cc().ssthresh(), 32.0);
}

TEST(OnOffApp, ResetAggregatesClearsCounters) {
  OnOffConfig cfg;
  cfg.mean_on_bytes = 20e3;
  cfg.mean_off_s = 0.2;
  AppHarness h(cfg);
  h.app->start();
  h.d.net().run_until(util::seconds(20));
  ASSERT_GT(h.app->connections_completed(), 0);
  h.app->reset_aggregates();
  EXPECT_EQ(h.app->connections_completed(), 0);
  EXPECT_EQ(h.app->total_bits(), 0.0);
  // Cycle keeps running.
  h.d.net().run_until(util::seconds(60));
  EXPECT_GT(h.app->connections_completed(), 0);
}

TEST(OnOffApp, ConnStatsThroughputConsistency) {
  // Per-connection throughput samples should average near aggregate.
  OnOffConfig cfg;
  cfg.mean_on_bytes = 100e3;
  cfg.mean_off_s = 0.3;
  AppHarness h(cfg);
  h.app->start();
  h.d.net().run_until(util::seconds(60));
  ASSERT_GT(h.app->per_conn_throughput_bps().count(), 5u);
  EXPECT_GT(h.app->per_conn_throughput_bps().median(), 0.0);
  EXPECT_LT(h.app->per_conn_throughput_bps().max(),
            15.0 * util::kMbps * 1.01);
}

}  // namespace
}  // namespace phi::tcp

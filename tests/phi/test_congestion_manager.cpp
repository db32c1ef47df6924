#include <gtest/gtest.h>

#include <memory>

#include "phi/congestion_manager.hpp"
#include "sim/topology.hpp"
#include "tcp/app.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"

namespace phi::core {
namespace {

TEST(SharedState, WindowSplitsAcrossActiveFlows) {
  SharedCongestionState st(tcp::CubicParams{64, 12, 0.2});
  EXPECT_EQ(st.active_flows(), 0u);
  EXPECT_NEAR(st.per_flow_window(), 12.0, 1e-9);  // divisor floor 1
  st.flow_started(1);
  st.flow_started(2);
  st.flow_started(3);
  EXPECT_EQ(st.active_flows(), 3u);
  EXPECT_NEAR(st.per_flow_window(), 4.0, 1e-9);
  st.flow_finished(2);
  EXPECT_NEAR(st.per_flow_window(), 6.0, 1e-9);
}

TEST(SharedState, DuplicateRegistrationIdempotent) {
  SharedCongestionState st;
  st.flow_started(1);
  st.flow_started(1);
  EXPECT_EQ(st.active_flows(), 1u);
  st.flow_finished(1);
  st.flow_finished(1);
  EXPECT_EQ(st.active_flows(), 0u);
}

TEST(SharedState, OneCutPerRoundTrip) {
  SharedCongestionState st(tcp::CubicParams{8, 8, 0.2});
  util::Time now = util::seconds(1);
  for (int i = 0; i < 500; ++i)
    st.on_ack(1, 0.15, now += util::kMillisecond);
  const double before = st.total_window();
  // Three flows lose packets within the same RTT: one cut.
  st.on_loss_event(now, 10);
  st.on_loss_event(now + util::milliseconds(10), 10);
  st.on_loss_event(now + util::milliseconds(20), 10);
  EXPECT_EQ(st.loss_events(), 1u);
  EXPECT_NEAR(st.total_window(), before * 0.8, 1.0);
  // A round trip later, another cut registers.
  st.on_loss_event(now + util::milliseconds(200), 10);
  EXPECT_EQ(st.loss_events(), 2u);
}

TEST(CmFlowController, RequiresSharedState) {
  EXPECT_THROW(CmFlowController(nullptr, 1), std::invalid_argument);
}

TEST(CmFlowController, JoinsOnResetReleasesExplicitly) {
  auto st = std::make_shared<SharedCongestionState>();
  CmFlowController a(st, 1), b(st, 2);
  a.reset(0);
  EXPECT_EQ(st->active_flows(), 1u);
  b.reset(0);
  EXPECT_EQ(st->active_flows(), 2u);
  a.release();
  EXPECT_EQ(st->active_flows(), 1u);
}

TEST(CmFlowController, DestructorReleases) {
  auto st = std::make_shared<SharedCongestionState>();
  {
    CmFlowController a(st, 1);
    a.reset(0);
    EXPECT_EQ(st->active_flows(), 1u);
  }
  EXPECT_EQ(st->active_flows(), 0u);
}

TEST(CmEndToEnd, SecondConnectionInheritsWindow) {
  // Flow A ramps the ensemble window; a fresh flow B starts with its
  // share of the learned window instead of 2 segments.
  sim::DumbbellConfig cfg;
  cfg.pairs = 2;
  sim::GraphTopology d(sim::dumbbell_graph(cfg));
  // Bounded ramp (ssthresh 256 < path capacity) so the ensemble settles
  // instead of overshooting into recovery before the checkpoint.
  auto st = std::make_shared<SharedCongestionState>(
      tcp::CubicParams{256, 2, 0.2});

  tcp::TcpSender a(d.scheduler(), *d.endpoint(0).tx, d.endpoint(0).rx->id(), 1,
                   std::make_unique<CmFlowController>(st, 1));
  tcp::TcpSink sink_a(d.scheduler(), *d.endpoint(0).rx, 1);
  a.start_connection(100000, [](const tcp::ConnStats&) {});
  d.net().run_until(util::seconds(5));
  const double learned = st->total_window();
  ASSERT_GT(learned, 20.0);

  tcp::TcpSender b(d.scheduler(), *d.endpoint(1).tx, d.endpoint(1).rx->id(), 2,
                   std::make_unique<CmFlowController>(st, 2));
  tcp::TcpSink sink_b(d.scheduler(), *d.endpoint(1).rx, 2);
  bool done = false;
  tcp::ConnStats stats;
  b.start_connection(200, [&](const tcp::ConnStats& s) {
    done = true;
    stats = s;
  });
  // B's first window is the ensemble share, not 2.
  EXPECT_GT(b.cc().window(), 10.0);
  d.net().run_until(util::seconds(15));
  ASSERT_TRUE(done);
  // 200 segments at an inherited window complete in very few RTTs.
  EXPECT_LT(stats.duration_s(), 1.0);
}

}  // namespace
}  // namespace phi::core

// Context-server persistence and link failure injection.
#include <gtest/gtest.h>

#include <memory>

#include "phi/context_server.hpp"
#include "sim/topology.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"

namespace phi::core {
namespace {

Report mk_report(PathKey path, std::uint64_t sender, util::Time s,
                 util::Time e, std::int64_t bytes) {
  Report r;
  r.path = path;
  r.sender_id = sender;
  r.started = s;
  r.ended = e;
  r.bytes = bytes;
  r.min_rtt_s = 0.15;
  r.mean_rtt_s = 0.19;
  r.retransmit_rate = 0.01;
  return r;
}

TEST(Persistence, RoundTripPreservesContext) {
  ContextServer a;
  a.set_path_capacity(1, 15e6);
  a.set_path_capacity(2, 50e6);
  for (int i = 0; i < 10; ++i)
    a.report(mk_report(1, 100 + i, util::seconds(i), util::seconds(i + 1),
                       500'000));
  (void)a.lookup(LookupRequest{1, 999, util::seconds(10)});  // open conn
  a.report(mk_report(2, 7, 0, util::seconds(1), 2'000'000));

  const std::string blob = a.serialize_state();
  ContextServer b;
  ASSERT_TRUE(b.restore_state(blob));

  const auto ctx_a1 = a.context(1);
  const auto ctx_b1 = b.context(1);
  EXPECT_NEAR(ctx_b1.utilization, ctx_a1.utilization, 1e-9);
  EXPECT_NEAR(ctx_b1.queue_delay_s, ctx_a1.queue_delay_s, 1e-9);
  EXPECT_NEAR(ctx_b1.competing_senders, ctx_a1.competing_senders, 1e-9);
  EXPECT_NEAR(ctx_b1.loss_rate, ctx_a1.loss_rate, 1e-9);
  EXPECT_NEAR(b.context(2).utilization, a.context(2).utilization, 1e-9);
  EXPECT_EQ(b.state_version(), a.state_version());
}

TEST(Persistence, RestoredServerKeepsServing) {
  ContextServer a;
  a.set_path_capacity(1, 15e6);
  a.report(mk_report(1, 5, 0, util::seconds(1), 1'000'000));
  ContextServer b;
  ASSERT_TRUE(b.restore_state(a.serialize_state()));
  // New traffic continues to evolve the restored state.
  b.report(mk_report(1, 6, util::seconds(2), util::seconds(3), 1'000'000));
  EXPECT_GT(b.context(1).utilization, 0.0);
  EXPECT_EQ(b.state_version(), a.state_version() + 1);
}

TEST(Persistence, RejectsGarbageWithoutClobbering) {
  ContextServer a;
  a.set_path_capacity(1, 15e6);
  a.report(mk_report(1, 5, 0, util::seconds(1), 1'000'000));
  const double u_before = a.context(1).utilization;
  EXPECT_FALSE(a.restore_state("not a state blob"));
  EXPECT_FALSE(a.restore_state("phi-context-server-state v1\n0 0\npath x"));
  EXPECT_NEAR(a.context(1).utilization, u_before, 1e-12);
}

TEST(Persistence, EmptyServerRoundTrips) {
  ContextServer a;
  ContextServer b;
  EXPECT_TRUE(b.restore_state(a.serialize_state()));
  EXPECT_EQ(b.context(1).utilization, 0.0);
}

TEST(Persistence, RoundTripPreservesFederatedState) {
  // A restarted server must not forget the fleet-wide utilization while
  // its TTL is still running (v1 silently dropped it).
  util::Time now_a = util::seconds(10);
  ContextServer a({}, [&now_a] { return now_a; });
  a.set_path_capacity(1, 15e6);
  a.set_external_utilization(1, 0.8, util::seconds(9), util::seconds(10));
  ASSERT_NEAR(a.context(1).utilization, 0.8, 1e-9);

  util::Time now_b = util::seconds(10);
  ContextServer b({}, [&now_b] { return now_b; });
  ASSERT_TRUE(b.restore_state(a.serialize_state()));
  EXPECT_NEAR(b.context(1).utilization, 0.8, 1e-9);  // mid-TTL survives
  now_b = util::seconds(25);  // ...and still expires on schedule
  EXPECT_EQ(b.context(1).utilization, 0.0);
}

TEST(Persistence, RoundTripPreservesLeaseDeadlines) {
  util::Time now_a = 0;
  ContextServerConfig cfg;
  cfg.lease = util::seconds(20);
  ContextServer a(cfg, [&now_a] { return now_a; });
  a.set_path_capacity(1, 15e6);
  (void)a.lookup(LookupRequest{1, 999, 0});
  const std::string blob = a.serialize_state();

  // Restored before the deadline: the connection is still counted.
  util::Time now_b = util::seconds(10);
  ContextServer b(cfg, [&now_b] { return now_b; });
  ASSERT_TRUE(b.restore_state(blob));
  EXPECT_EQ(b.active_connections(1), 1u);
  // Past the original deadline: the restart did not resurrect the lease.
  now_b = util::seconds(21);
  EXPECT_EQ(b.active_connections(1), 0u);
}

TEST(Persistence, RestoresLegacyV1Format) {
  // A blob exactly as the seed (v1) serializer emitted it: no federated
  // fields, bare ids on the active line.
  const std::string v1 =
      "phi-context-server-state v1\n"
      "5000000000 3\n"
      "path 7 15000000 1 0.14999999999999999 1 0.03 1 0.01 1 2 2 1\n"
      "active 11 12\n"
      "delivery 4000000000 5000000000 1875000\n";
  ContextServer b;
  ASSERT_TRUE(b.restore_state(v1));
  EXPECT_EQ(b.state_version(), 3u);
  // v1 carried no lease deadlines: restored connections get fresh ones.
  EXPECT_EQ(b.active_connections(7), 2u);
  const auto ctx = b.context(7);
  EXPECT_NEAR(ctx.utilization, 0.1, 1e-9);
  EXPECT_NEAR(ctx.queue_delay_s, 0.03, 1e-12);
  EXPECT_NEAR(ctx.loss_rate, 0.01, 1e-12);
  EXPECT_NEAR(ctx.competing_senders, 2.0, 1e-12);
}

TEST(Persistence, RejectsHugeElementCounts) {
  // A hostile blob claiming more active entries than the text could
  // possibly hold must be rejected before any allocation happens.
  const std::string evil =
      "phi-context-server-state v2\n"
      "0 0\n"
      "path 1 0 0 0 0 0 0 0 0 0 -1 0 0 18446744073709551615 0\n"
      "active\n";
  ContextServer s;
  s.set_path_capacity(1, 15e6);
  s.report(mk_report(1, 5, 0, util::seconds(1), 1'000'000));
  const double u_before = s.context(1).utilization;
  EXPECT_FALSE(s.restore_state(evil));
  const std::string evil_window =
      "phi-context-server-state v2\n"
      "0 0\n"
      "path 1 0 0 0 0 0 0 0 0 0 -1 0 0 0 99999999999\n"
      "active\n";
  EXPECT_FALSE(s.restore_state(evil_window));
  const std::string negative =
      "phi-context-server-state v2\n"
      "0 0\n"
      "path 1 0 0 0 0 0 0 0 0 0 -1 0 0 -3 0\n"
      "active\n";
  EXPECT_FALSE(s.restore_state(negative));
  EXPECT_NEAR(s.context(1).utilization, u_before, 1e-12);
}

TEST(Persistence, RejectsNonFiniteDoubles) {
  for (const char* bad : {"nan", "inf", "-inf", "1e99999"}) {
    const std::string blob = std::string("phi-context-server-state v2\n") +
                             "0 0\n" + "path 1 " + bad +
                             " 0 0 0 0 0 0 0 0 -1 0 0 0 0\n" + "active\n";
    ContextServer s;
    EXPECT_FALSE(s.restore_state(blob)) << bad;
  }
}

}  // namespace
}  // namespace phi::core

namespace phi::sim {
namespace {

TEST(LinkOutage, DownedLinkDropsTraffic) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 10.0 * util::kMbps, util::milliseconds(1),
                         1'000'000);
  a.add_route(b.id(), &l);
  l.set_up(false);
  Packet p;
  p.src = a.id();
  p.dst = b.id();
  a.send(p);
  net.run_until(util::seconds(1));
  EXPECT_EQ(l.packets_transmitted(), 0u);
  EXPECT_EQ(l.outage_drops(), 1u);
  l.set_up(true);
  a.send(p);
  net.run_until(util::seconds(2));
  EXPECT_EQ(l.packets_transmitted(), 1u);
}

TEST(LinkOutage, TcpSurvivesMidTransferOutage) {
  DumbbellConfig cfg;
  cfg.pairs = 1;
  GraphTopology d(dumbbell_graph(cfg));
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<tcp::Cubic>(
                            tcp::CubicParams{64, 8, 0.2}));
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  bool done = false;
  tcp::ConnStats stats;
  sender.start_connection(5000, [&](const tcp::ConnStats& s) {
    done = true;
    stats = s;
  });
  // 3-second blackout starting at t=2.
  d.scheduler().schedule_at(util::seconds(2),
                            [&] { d.path_link(0).set_up(false); });
  d.scheduler().schedule_at(util::seconds(5),
                            [&] { d.path_link(0).set_up(true); });
  d.net().run_until(util::seconds(120));
  ASSERT_TRUE(done) << "TCP did not recover from the outage";
  EXPECT_EQ(stats.segments, 5000);
  EXPECT_EQ(sink.next_expected(), 5000);
  EXPECT_GT(stats.timeouts, 0u);  // RTO carried it through
  EXPECT_GT(d.path_link(0).outage_drops(), 0u);
}

TEST(LinkOutage, RtoBackoffSpansLongOutage) {
  // A 20-second outage: exponential backoff must keep the retransmission
  // count modest (no retransmit storm) and still recover.
  DumbbellConfig cfg;
  cfg.pairs = 1;
  GraphTopology d(dumbbell_graph(cfg));
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<tcp::Cubic>(
                            tcp::CubicParams{64, 8, 0.2}));
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  bool done = false;
  tcp::ConnStats stats;
  sender.start_connection(2000, [&](const tcp::ConnStats& s) {
    done = true;
    stats = s;
  });
  d.scheduler().schedule_at(util::seconds(1),
                            [&] { d.path_link(0).set_up(false); });
  d.scheduler().schedule_at(util::seconds(21),
                            [&] { d.path_link(0).set_up(true); });
  d.net().run_until(util::seconds(180));
  ASSERT_TRUE(done);
  // Backoff doubles: ~6-8 probes over 20 s, not hundreds.
  EXPECT_LT(stats.timeouts, 15u);
  EXPECT_GE(stats.timeouts, 3u);
}

}  // namespace
}  // namespace phi::sim

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "phi/client.hpp"
#include "phi/scenario.hpp"
#include "tcp/sink.hpp"

namespace phi::core {
namespace {

constexpr PathKey kPath = 13;

TEST(MidStream, ReporterDeltasSumToAcked) {
  // Direct arithmetic check with a scripted sender on a mini dumbbell.
  sim::DumbbellConfig net;
  net.pairs = 1;
  sim::GraphTopology d(sim::dumbbell_graph(net));
  ContextServer server;
  server.set_path_capacity(kPath, net.bottleneck_rate);

  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<tcp::Cubic>(
                            tcp::CubicParams{64, 8, 0.2}));
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  MidStreamAdvisor advisor(d.scheduler(), server, kPath, 1,
                           util::seconds(1));

  advisor.before_connection(sender);
  tcp::ConnStats stats;
  bool done = false;
  sender.start_connection(3000, [&](const tcp::ConnStats& s) {
    stats = s;
    done = true;
    advisor.after_connection(s, sender);
  });
  d.net().run_until(util::seconds(60));
  ASSERT_TRUE(done);
  EXPECT_GT(advisor.midstream_reports(), 1u);

  // The server heard (midstream + final) reports; its delivery window
  // over the whole run must account for exactly 3000 segments.
  // Validate via serialized state: sum of delivery bytes.
  const std::string blob = server.serialize_state();
  std::int64_t total_bytes = 0;
  std::istringstream in(blob);
  std::string tok;
  while (in >> tok) {
    if (tok == "delivery") {
      long long s, e, b;
      in >> s >> e >> b;
      total_bytes += b;
    }
  }
  EXPECT_EQ(total_bytes, 3000LL * sim::kDefaultMss);
}

TEST(MidStream, ShortConnectionJustFinalReport) {
  sim::DumbbellConfig net;
  net.pairs = 1;
  sim::GraphTopology d(sim::dumbbell_graph(net));
  ContextServer server;
  server.set_path_capacity(kPath, net.bottleneck_rate);
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<tcp::Cubic>());
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  MidStreamAdvisor advisor(d.scheduler(), server, kPath, 1,
                           util::seconds(5));
  advisor.before_connection(sender);
  bool done = false;
  sender.start_connection(10, [&](const tcp::ConnStats& s) {
    done = true;
    advisor.after_connection(s, sender);
  });
  d.net().run_until(util::seconds(30));
  ASSERT_TRUE(done);
  EXPECT_EQ(advisor.midstream_reports(), 0u);
  EXPECT_EQ(server.reports(), 1u);
}

}  // namespace
}  // namespace phi::core

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "sim/queue_disc.hpp"
#include "sim/topology.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"

namespace phi::sim {
namespace {

RedQueue::Config red_config(std::int64_t capacity = 100 * kSegmentBytes) {
  RedQueue::Config cfg;
  cfg.capacity_bytes = capacity;
  return cfg;
}

Packet ect_packet() {
  Packet p;
  p.size_bytes = kSegmentBytes;
  p.ect = true;
  return p;
}

/// Value-style wrappers over the handle API (rejected handles go back to
/// the pool; dequeued ones are copied out and released).
bool enq(RedQueue& q, PacketPool& pool, const Packet& p, util::Time now) {
  const PacketHandle h = pool.acquire(p);
  if (q.enqueue(pool, h, now)) return true;
  pool.release(h);
  return false;
}

std::optional<Packet> deq(RedQueue& q, PacketPool& pool) {
  const Queued d = q.dequeue();
  if (d.handle == kNullPacket) return std::nullopt;
  Packet p = pool.get(d.handle);
  pool.release(d.handle);
  return p;
}

TEST(RedQueue, NoMarkingBelowMinThreshold) {
  PacketPool pool;
  RedQueue q(red_config());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(enq(q, pool, ect_packet(), 0));
  EXPECT_EQ(q.ecn_marks(), 0u);
  EXPECT_EQ(q.stats().dropped, 0u);
}

TEST(RedQueue, MarksEctTrafficUnderLoad) {
  PacketPool pool;
  RedQueue q(red_config());
  // Hold the queue deep so the average climbs past min_th.
  std::uint64_t accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    if (enq(q, pool, ect_packet(), i)) ++accepted;
    if (q.packets() > 60) deq(q, pool);  // drain to ~60% occupancy
  }
  EXPECT_GT(q.ecn_marks(), 10u);
  // ECN-capable traffic is marked, not dropped, in the early-detection
  // band (tail drops can still occur at the hard limit).
  EXPECT_GT(accepted, 4900u);
}

TEST(RedQueue, DropsNonEctTrafficInsteadOfMarking) {
  PacketPool pool;
  RedQueue q(red_config());
  Packet plain;
  plain.size_bytes = kSegmentBytes;
  std::uint64_t drops = 0;
  for (int i = 0; i < 5000; ++i) {
    if (!enq(q, pool, plain, i)) ++drops;
    if (q.packets() > 60) deq(q, pool);
  }
  EXPECT_EQ(q.ecn_marks(), 0u);
  EXPECT_GT(drops, 10u);
  // Every early-dropped handle went back to the pool.
  EXPECT_EQ(pool.in_use(), q.packets());
}

TEST(RedQueue, MarkedPacketsCarryCe) {
  PacketPool pool;
  RedQueue q(red_config(20 * kSegmentBytes));
  // Fill deep; collect dequeued packets and check some carry CE.
  int ce = 0, total = 0;
  for (int i = 0; i < 2000; ++i) {
    enq(q, pool, ect_packet(), i);
    if (q.packets() > 15) {
      auto p = deq(q, pool);
      if (p) {
        ++total;
        if (p->ce) ++ce;
      }
    }
  }
  EXPECT_GT(ce, 0);
  EXPECT_LT(ce, total);
}

TEST(RedQueue, AverageTracksOccupancy) {
  PacketPool pool;
  RedQueue q(red_config());
  for (int i = 0; i < 50; ++i) enq(q, pool, ect_packet(), i);
  const double avg_before = q.average_queue_bytes();
  for (int i = 0; i < 2000; ++i) enq(q, pool, ect_packet(), 100 + i);
  EXPECT_GT(q.average_queue_bytes(), avg_before);
}

TEST(EcnEndToEnd, SenderCutsOnEceWithoutRetransmit) {
  DumbbellConfig cfg;
  cfg.pairs = 1;
  cfg.queue = DumbbellConfig::Queue::kRedEcn;
  GraphTopology d(dumbbell_graph(cfg));
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<tcp::Cubic>());
  sender.set_ecn(true);
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);

  bool done = false;
  tcp::ConnStats stats;
  sender.start_connection(8000, [&](const tcp::ConnStats& s) {
    done = true;
    stats = s;
  });
  d.net().run_until(util::seconds(120));
  ASSERT_TRUE(done);
  // With RED+ECN the default Cubic's overshoot is absorbed by marks:
  // congestion signals happen without (or with far fewer) retransmits.
  EXPECT_GT(stats.ecn_signals, 0u);
  EXPECT_LT(stats.retransmits, 50u);
}

TEST(EcnEndToEnd, NonEcnSenderUnaffectedByRedMarks) {
  DumbbellConfig cfg;
  cfg.pairs = 1;
  cfg.queue = DumbbellConfig::Queue::kRedEcn;
  GraphTopology d(dumbbell_graph(cfg));
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<tcp::Cubic>());
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  bool done = false;
  tcp::ConnStats stats;
  sender.start_connection(2000, [&](const tcp::ConnStats& s) {
    done = true;
    stats = s;
  });
  d.net().run_until(util::seconds(120));
  ASSERT_TRUE(done);
  EXPECT_EQ(stats.ecn_signals, 0u);
}

TEST(Jitter, ReordersPackets) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 100.0 * util::kMbps, util::milliseconds(5),
                         10'000'000);
  l.set_jitter(util::milliseconds(10), 42);
  a.add_route(b.id(), &l);

  struct SeqProbe : Agent {
    std::vector<std::int64_t> seqs;
    void on_packet(const Packet& p) override { seqs.push_back(p.seq); }
  } probe;
  b.attach(1, &probe);
  for (int i = 0; i < 200; ++i) {
    Packet p;
    p.src = a.id();
    p.dst = b.id();
    p.flow = 1;
    p.seq = i;
    p.size_bytes = kAckBytes;  // tiny so serialization gap << jitter
    a.send(p);
  }
  net.run_until(util::seconds(2));
  ASSERT_EQ(probe.seqs.size(), 200u);
  int inversions = 0;
  for (std::size_t i = 1; i < probe.seqs.size(); ++i)
    if (probe.seqs[i] < probe.seqs[i - 1]) ++inversions;
  EXPECT_GT(inversions, 10);
  b.detach(1);
}

TEST(Jitter, ZeroJitterKeepsOrder) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 100.0 * util::kMbps, util::milliseconds(5),
                         10'000'000);
  a.add_route(b.id(), &l);
  struct SeqProbe : Agent {
    std::vector<std::int64_t> seqs;
    void on_packet(const Packet& p) override { seqs.push_back(p.seq); }
  } probe;
  b.attach(1, &probe);
  for (int i = 0; i < 100; ++i) {
    Packet p;
    p.src = a.id();
    p.dst = b.id();
    p.flow = 1;
    p.seq = i;
    a.send(p);
  }
  net.run_until(util::seconds(2));
  for (std::size_t i = 1; i < probe.seqs.size(); ++i)
    ASSERT_GT(probe.seqs[i], probe.seqs[i - 1]);
  b.detach(1);
}

TEST(Jitter, ReorderingCausesSpuriousRetransmits) {
  // A jittery path makes dup-ACK threshold 3 fire on reordering; the
  // receiver sees duplicate segments (the §3.2 motivation).
  DumbbellConfig cfg;
  cfg.pairs = 1;
  cfg.bottleneck_jitter = util::milliseconds(15);
  GraphTopology d(dumbbell_graph(cfg));
  tcp::TcpSender sender(d.scheduler(), *d.endpoint(0).tx,
                        d.endpoint(0).rx->id(), 1,
                        std::make_unique<tcp::Cubic>(
                            tcp::CubicParams{64, 8, 0.2}));
  tcp::TcpSink sink(d.scheduler(), *d.endpoint(0).rx, 1);
  bool done = false;
  sender.start_connection(3000, [&](const tcp::ConnStats&) { done = true; });
  d.net().run_until(util::seconds(120));
  ASSERT_TRUE(done);
  EXPECT_GT(sink.duplicates(), 5u);
}

}  // namespace
}  // namespace phi::sim

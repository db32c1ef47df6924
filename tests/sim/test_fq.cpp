#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "sim/fq.hpp"
#include "sim/topology.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"

namespace phi::sim {
namespace {

Packet flow_packet(FlowId flow, std::int32_t bytes = kSegmentBytes) {
  Packet p;
  p.flow = flow;
  p.size_bytes = bytes;
  return p;
}

DrrQueue::Config cfg(std::int64_t cap = 100 * kSegmentBytes) {
  DrrQueue::Config c;
  c.capacity_bytes = cap;
  return c;
}

/// Value-style wrappers over the handle API, mirroring what Link does:
/// a rejected handle is released by the caller; a dequeued one is copied
/// out and released.
bool enq(DrrQueue& q, PacketPool& pool, const Packet& p, util::Time now) {
  const PacketHandle h = pool.acquire(p);
  if (q.enqueue(pool, h, now)) return true;
  pool.release(h);
  return false;
}

std::optional<Packet> deq(DrrQueue& q, PacketPool& pool) {
  const Queued d = q.dequeue();
  if (d.handle == kNullPacket) return std::nullopt;
  Packet p = pool.get(d.handle);
  pool.release(d.handle);
  return p;
}

TEST(DrrQueue, SingleFlowFifo) {
  PacketPool pool;
  DrrQueue q(cfg());
  for (int i = 0; i < 5; ++i) {
    Packet p = flow_packet(1);
    p.seq = i;
    ASSERT_TRUE(enq(q, pool, p, i));
  }
  for (int i = 0; i < 5; ++i) {
    auto p = deq(q, pool);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->seq, i);
  }
  EXPECT_FALSE(deq(q, pool).has_value());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(DrrQueue, InterleavesFlowsFairly) {
  PacketPool pool;
  DrrQueue q(cfg());
  // Flow 1 floods 20 packets; flow 2 adds 5.
  for (int i = 0; i < 20; ++i) enq(q, pool, flow_packet(1), 0);
  for (int i = 0; i < 5; ++i) enq(q, pool, flow_packet(2), 0);
  // First 10 dequeues must contain all 5 of flow 2's packets (round
  // robin alternates while both are backlogged).
  int flow2 = 0;
  for (int i = 0; i < 10; ++i) {
    auto p = deq(q, pool);
    ASSERT_TRUE(p.has_value());
    if (p->flow == 2) ++flow2;
  }
  EXPECT_EQ(flow2, 5);
}

TEST(DrrQueue, ByteFairWithUnequalPacketSizes) {
  PacketPool pool;
  DrrQueue q(cfg());
  // Flow 1 sends 1500 B packets, flow 2 sends 300 B packets; byte-fair
  // service should give flow 2 ~5 packets per flow-1 packet.
  for (int i = 0; i < 20; ++i) enq(q, pool, flow_packet(1, 1500), 0);
  for (int i = 0; i < 100; ++i) enq(q, pool, flow_packet(2, 300), 0);
  std::int64_t bytes1 = 0, bytes2 = 0;
  for (int i = 0; i < 60; ++i) {
    auto p = deq(q, pool);
    ASSERT_TRUE(p.has_value());
    (p->flow == 1 ? bytes1 : bytes2) += p->size_bytes;
  }
  EXPECT_NEAR(static_cast<double>(bytes1) / static_cast<double>(bytes2),
              1.0, 0.25);
}

TEST(DrrQueue, PushOutPunishesLongestFlow) {
  PacketPool pool;
  DrrQueue q(cfg(10 * kSegmentBytes));
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(enq(q, pool, flow_packet(1), 0));
  // Buffer full of flow 1; flow 2's arrival evicts from flow 1. The
  // evicted packet's handle must come back to the pool.
  EXPECT_TRUE(enq(q, pool, flow_packet(2), 0));
  EXPECT_EQ(q.stats().dropped, 1u);
  EXPECT_EQ(pool.in_use(), 10u);
  // Flow 2's packet is in and will be served promptly.
  bool saw2 = false;
  for (int i = 0; i < 3; ++i) {
    auto p = deq(q, pool);
    ASSERT_TRUE(p.has_value());
    if (p->flow == 2) saw2 = true;
  }
  EXPECT_TRUE(saw2);
}

TEST(DrrQueue, OwnOverflowIsAPlainDrop) {
  PacketPool pool;
  DrrQueue q(cfg(3 * kSegmentBytes));
  ASSERT_TRUE(enq(q, pool, flow_packet(1), 0));
  ASSERT_TRUE(enq(q, pool, flow_packet(1), 0));
  ASSERT_TRUE(enq(q, pool, flow_packet(1), 0));
  EXPECT_FALSE(enq(q, pool, flow_packet(1), 0));
  EXPECT_EQ(q.packets(), 3u);
  EXPECT_EQ(pool.in_use(), 3u);
}

TEST(DrrQueue, ConservesBytesAndCounts) {
  PacketPool pool;
  DrrQueue q(cfg());
  util::Rng rng(4);
  std::int64_t in = 0, out = 0;
  for (int i = 0; i < 500; ++i) {
    const auto flow = static_cast<FlowId>(rng.below(5));
    if (rng.bernoulli(0.6)) {
      Packet p = flow_packet(flow, 100 + static_cast<std::int32_t>(
                                             rng.below(1400)));
      if (enq(q, pool, p, i)) in += p.size_bytes;
    } else if (auto p = deq(q, pool)) {
      out += p->size_bytes;
    }
  }
  while (auto p = deq(q, pool)) out += p->size_bytes;
  EXPECT_EQ(in, out);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.packets(), 0u);
  EXPECT_EQ(pool.in_use(), 0u);
}

TEST(FqEndToEnd, IsolatesPoliteFlowFromAggressor) {
  // The §3.1 counterfactual: under FIFO an unmodified blast hurts a
  // polite flow; under DRR the polite flow keeps ~its fair share.
  auto run = [](DumbbellConfig::Queue queue) {
    DumbbellConfig cfg;
    cfg.pairs = 2;
    cfg.queue = queue;
    GraphTopology d(dumbbell_graph(cfg));
    // Polite: tuned small-ssthresh Cubic. Aggressor: default huge
    // ssthresh slow-start blaster, restarted repeatedly.
    tcp::TcpSender polite(d.scheduler(), *d.endpoint(0).tx,
                          d.endpoint(0).rx->id(),
                          1, std::make_unique<tcp::Cubic>(
                                 tcp::CubicParams{32, 8, 0.5}));
    tcp::TcpSink sink0(d.scheduler(), *d.endpoint(0).rx, 1);
    tcp::TcpSender blast(d.scheduler(), *d.endpoint(1).tx,
                         d.endpoint(1).rx->id(), 2,
                         std::make_unique<tcp::Cubic>());
    tcp::TcpSink sink1(d.scheduler(), *d.endpoint(1).rx, 2);
    polite.start_connection(1'000'000, [](const tcp::ConnStats&) {});
    blast.start_connection(1'000'000, [](const tcp::ConnStats&) {});
    d.net().run_until(util::seconds(30));
    return static_cast<double>(polite.lifetime_acked_segments());
  };
  const double fifo = run(DumbbellConfig::Queue::kDropTail);
  const double fq = run(DumbbellConfig::Queue::kFq);
  // Under DRR the polite flow does at least as well, and meaningfully
  // better than under FIFO where the blaster's queue bursts starve it.
  EXPECT_GT(fq, fifo * 1.1);
}

}  // namespace
}  // namespace phi::sim

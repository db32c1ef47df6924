// test_alloc_free.cpp — proves the PR 5 tentpole claim: once warmed up,
// moving a packet through send -> queue -> serialize -> deliver performs
// ZERO heap allocations. A counting global operator new is the whole
// instrumentation, which is why this test lives in its own executable
// (phi_alloc_test) instead of phi_tests: the hook is process-wide.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string_view>

#include <memory>
#include <vector>

#include "phi/churn.hpp"
#include "sim/network.hpp"
#include "tcp/cc.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"
#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(a), n ? n : 1) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace phi::sim {
namespace {

TEST(ZeroAllocDatapath, SteadyStatePacketTransitDoesNotAllocate) {
  Network net;
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 1.0 * util::kGbps, util::microseconds(10),
                         64 * 1024 * 1024);
  a.add_route(b.id(), &l);
  struct Count : Agent {
    std::uint64_t n = 0;
    void on_packet(const Packet&) override { ++n; }
  } sink;
  b.attach(1, &sink);

  Packet p;
  p.src = a.id();
  p.dst = b.id();
  p.flow = 1;
  constexpr int kBatch = 512;
  auto burst = [&] {
    for (int i = 0; i < kBatch; ++i) {
      p.seq = i;
      a.send(p);
    }
    net.run_until(net.now() + util::milliseconds(10));
  };

  // Warm-up: grows the packet-pool chunk, the queue ring, the scheduler
  // slot slab and heap vector to their steady-state high-water marks.
  for (int round = 0; round < 4; ++round) burst();
  const std::uint64_t delivered_before = sink.n;

  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 8; ++round) burst();
  const std::uint64_t allocs_after =
      g_allocs.load(std::memory_order_relaxed);

  // Every packet crossed the link...
  EXPECT_EQ(sink.n - delivered_before, 8u * kBatch);
  // ...and none of them touched the heap.
  EXPECT_EQ(allocs_after - allocs_before, 0u);
  b.detach(1);
}

TEST(ZeroAllocDatapath, ObservabilityOnStaysAllocationFree) {
  // The PR 7 extension of the proof: the same steady-state transit with
  // the full observability stack live — a traced packet recording spans
  // at every hop, a time series sampling each burst, the flight recorder
  // noting events, and the event loop self-profiling. The log also
  // records every category's untraced events, and the run drives drops
  // and TCP state changes through it. Events are PODs appended into a
  // buffer reserved up front, time-series samples land in reserved
  // columns, and the recorder's rings are preallocated, so none of it
  // may touch the heap once warm.
  telemetry::SpanLog log(/*sample_one_in=*/1, /*seed=*/0,
                         /*capacity=*/1 << 17, telemetry::kAllCategories);
  telemetry::set_spans(&log);
  telemetry::LoopProfile prof;
  auto& ts = telemetry::registry().timeseries("alloc_test.queue_bytes");
  ts.reserve(64);

  Network net;
  net.scheduler().set_profile(&prof);
  Node& a = net.add_node("a");
  Node& b = net.add_node("b");
  Link& l = net.add_link(a, b, 1.0 * util::kGbps, util::microseconds(10),
                         64 * 1024 * 1024);
  a.add_route(b.id(), &l);
  struct Count : Agent {
    std::uint64_t n = 0;
    void on_packet(const Packet&) override { ++n; }
  } sink;
  b.attach(1, &sink);

  // A shallow, slow side link that drops untraced packets every burst.
  Node& c = net.add_node("c");
  Link& lossy = net.add_link(a, c, 10.0 * util::kMbps, util::microseconds(10),
                             3000);
  a.add_route(c.id(), &lossy);
  Packet q;
  q.src = a.id();
  q.dst = c.id();
  q.flow = 3;

  // A TCP connection per burst on its own node pair: conn_start state
  // events and whole-connection spans.
  Node& d = net.add_node("d");
  Node& e = net.add_node("e");
  Link& de = net.add_link(d, e, 1.0 * util::kGbps, util::microseconds(10),
                          1024 * 1024);
  Link& ed = net.add_link(e, d, 1.0 * util::kGbps, util::microseconds(10),
                          1024 * 1024);
  d.add_route(e.id(), &de);
  e.add_route(d.id(), &ed);
  tcp::TcpSink tcp_sink(net.scheduler(), e, /*flow=*/2);
  tcp::TcpSender sender(net.scheduler(), d, e.id(), /*flow=*/2,
                        std::make_unique<tcp::Cubic>());
  int conns_done = 0;

  Packet p;
  p.src = a.id();
  p.dst = b.id();
  p.flow = 1;
  p.trace = log.trace_of(1);  // sampled: every hop records span events
#ifndef PHI_TELEMETRY_OFF
  ASSERT_NE(p.trace, 0u);
#else
  p.trace = 1;  // field survives the off build; hop guards must stay free
#endif
  constexpr int kBatch = 512;
  auto burst = [&] {
    for (int i = 0; i < kBatch; ++i) {
      p.seq = i;
      a.send(p);
    }
    for (int i = 0; i < 8; ++i) a.send(q);
    sender.start_connection(16,
                            [&conns_done](const tcp::ConnStats&) {
                              ++conns_done;
                            });
    net.run_until(net.now() + util::milliseconds(10));
    ts.sample(util::to_seconds(net.now()),
              static_cast<double>(l.queue().bytes()));
    telemetry::instant(telemetry::Category::kBench, 0, "alloc_test.burst",
                       net.now());
  };

  for (int round = 0; round < 4; ++round) burst();  // warm-up
  const std::uint64_t delivered_before = sink.n;
  const std::size_t spans_before = log.events().size();

  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 8; ++round) burst();
  const std::uint64_t allocs_after =
      g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(sink.n - delivered_before, 8u * kBatch);
  EXPECT_EQ(conns_done, 12);
  EXPECT_GT(lossy.queue().stats().dropped, 0u);
  EXPECT_EQ(allocs_after - allocs_before, 0u);
#ifndef PHI_TELEMETRY_OFF
  // The instruments really were live: spans recorded (without dropping),
  // samples landed, events noted.
  EXPECT_GT(log.events().size(), spans_before);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_GE(ts.size(), 12u);
  EXPECT_GE(telemetry::flight().ring_size(telemetry::Category::kBench), 12u);
  EXPECT_GT(prof.events(telemetry::LoopProfile::kDelivery), 0u);
  bool untraced_drop = false, tcp_state = false;
  for (std::size_t i = spans_before; i < log.events().size(); ++i) {
    const telemetry::Event& ev = log.events()[i];
    const std::string_view name = ev.name;
    untraced_drop = untraced_drop || (name == "link.drop" && ev.trace == 0);
    tcp_state = tcp_state || name == "tcp.conn_start";
  }
  EXPECT_TRUE(untraced_drop);
  EXPECT_TRUE(tcp_state);
#else
  (void)spans_before;
#endif
  net.scheduler().set_profile(nullptr);
  telemetry::set_spans(nullptr);
  b.detach(1);
}

TEST(ZeroAllocDatapath, TimerChurnDoesNotAllocate) {
  // The retransmit-timer pattern (schedule + cancel per "ack") must also
  // be allocation-free once the slot slab is warm: SmallFn captures stay
  // inline and cancelled slots are recycled through the free list.
  Scheduler s;
  util::Time now = 0;
  long fired = 0;
  EventId pending = 0;
  auto churn = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      if (pending != 0) s.cancel(pending);
      now += 1000;
      pending = s.schedule_at(now + 250'000'000, [&fired] { ++fired; });
    }
  };
  churn(10000);  // warm-up
  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  churn(10000);
  const std::uint64_t allocs_after =
      g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(allocs_after - allocs_before, 0u);
  s.run_until(now + util::seconds(1));
  EXPECT_EQ(fired, 1);
}

TEST(ZeroAllocDatapath, ChurnSteadyStateIsAllocationFree) {
  // The PR 9 extension: open-loop session churn — a ChurnSlot replaying
  // preloaded arrivals through a real TCP sender — must stop allocating
  // once warm. Sessions are preloaded, the done-callback capture fits
  // DoneCallback's inline buffer, timer closures fit SmallFn, and
  // per-session results land in caller-owned arrays.
  Network net;
  Node& a = net.add_node("tx");
  Node& b = net.add_node("rx");
  Link& fwd = net.add_link(a, b, 1.0 * util::kGbps, util::microseconds(50),
                           1024 * 1024);
  Link& rev = net.add_link(b, a, 1.0 * util::kGbps, util::microseconds(50),
                           1024 * 1024);
  a.add_route(b.id(), &fwd);
  b.add_route(a.id(), &rev);
  tcp::TcpSink sink(net.scheduler(), b, /*flow=*/7);
  tcp::TcpSender sender(net.scheduler(), a, b.id(), /*flow=*/7,
                        std::make_unique<tcp::Cubic>());

  constexpr std::size_t kSessions = 400;
  std::vector<double> fct(kSessions, -1.0);
  std::vector<double> wait(kSessions, -1.0);
  phi::core::ChurnSlot slot;
  for (std::size_t i = 0; i < kSessions; ++i) {
    slot.add({static_cast<util::Time>(i) * util::milliseconds(2),
              /*segments=*/8, i});
  }
  slot.bind(net.scheduler(), sender, fct.data(), wait.data(),
            /*measure_from=*/0);
  slot.start();

  // Warm-up: the first quarter of the trace grows the packet pool, the
  // scheduler slabs and the sender's internal buffers to steady state.
  net.run_until(util::milliseconds(2 * 100));
  const std::size_t completed_before = slot.completed();
  ASSERT_GT(completed_before, 0u);

  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  net.run_until(static_cast<util::Time>(2 * kSessions) *
                    util::milliseconds(1) +
                util::seconds(1));
  const std::uint64_t allocs_after =
      g_allocs.load(std::memory_order_relaxed);

  EXPECT_EQ(slot.completed(), kSessions);
  EXPECT_GT(slot.completed(), completed_before);
  EXPECT_EQ(allocs_after - allocs_before, 0u);
  for (std::size_t i = 0; i < kSessions; ++i) EXPECT_GE(fct[i], 0.0);
}

TEST(ZeroAllocDatapath, SackRecoveryUnderLossDoesNotAllocate) {
  // The PR 10 extension: loss recovery itself. A shallow bottleneck
  // queue makes every slow-start overshoot drop a batch of segments, so
  // each transfer exercises the full SACK path — sink run list building
  // blocks, sender scoreboard absorbing them, hole retransmissions, and
  // the incremental pipe estimate — which used to allocate a red-black
  // node per sacked sequence. Once the interval run lists hit their
  // high-water marks during warm-up, recovery must never touch the heap.
  Network net;
  Node& a = net.add_node("tx");
  Node& b = net.add_node("rx");
  // 48KB ≈ 32 segments of queue: deep enough to carry the transfer,
  // shallow enough that slow start overshoots it every connection.
  Link& fwd = net.add_link(a, b, 1.0 * util::kGbps, util::microseconds(50),
                           48 * 1024);
  Link& rev = net.add_link(b, a, 1.0 * util::kGbps, util::microseconds(50),
                           1024 * 1024);
  a.add_route(b.id(), &fwd);
  b.add_route(a.id(), &rev);
  tcp::TcpSink sink(net.scheduler(), b, /*flow=*/9);
  tcp::TcpSender sender(net.scheduler(), a, b.id(), /*flow=*/9,
                        std::make_unique<tcp::Cubic>());
  sender.set_sack(true);
  sink.set_sack(true);

  // Back-to-back lossy transfers chained through the done callback (the
  // [this] capture fits DoneCallback's inline buffer — that is part of
  // what is being proved).
  struct Chain {
    tcp::TcpSender* sender;
    int remaining;
    std::uint64_t retransmits = 0;
    std::uint64_t loss_events = 0;
    std::uint64_t timeouts = 0;
    void start() {
      sender->start_connection(3000, [this](const tcp::ConnStats& s) {
        retransmits += s.retransmits;
        loss_events += s.loss_events;
        timeouts += s.timeouts;
        if (--remaining > 0) start();
      });
    }
  } chain{&sender, /*remaining=*/8};
  chain.start();

  // Warm-up: three full transfers grow every pool, slab, and run list to
  // its steady-state high-water mark — including whatever the heaviest
  // recovery episode needs. Step in small increments so the snapshot
  // lands between transfers, not after the whole chain drained.
  while (chain.remaining > 5)
    net.run_until(net.now() + util::milliseconds(5));
  const std::uint64_t retransmits_before = chain.retransmits;
  ASSERT_GT(chain.loss_events, 0u) << "workload produced no SACK recovery";

  const std::uint64_t allocs_before =
      g_allocs.load(std::memory_order_relaxed);
  while (chain.remaining > 0) net.run_until(net.now() + util::seconds(1));
  const std::uint64_t allocs_after =
      g_allocs.load(std::memory_order_relaxed);

  // The measured transfers really recovered from loss via the
  // scoreboard (selective retransmits, no timeouts)...
  EXPECT_GT(chain.retransmits, retransmits_before);
  EXPECT_EQ(chain.timeouts, 0u);
  // ...without a single heap allocation.
  EXPECT_EQ(allocs_after - allocs_before, 0u);
}

}  // namespace
}  // namespace phi::sim

// micro_telemetry — cost of the telemetry subsystem, and proof that the
// PHI_TELEMETRY_OFF build compiles it down to nothing.
//
// BM_SchedulerHotPath is the yardstick: build once with telemetry on and
// once with -DPHI_TELEMETRY_OFF=ON, run both, and the OFF number should be
// indistinguishable (±2%) from a pre-telemetry baseline of the same
// scheduler loop — the instrument updates in Scheduler::schedule_at/step
// are empty inline functions in that mode. The remaining benchmarks price
// the ON-mode primitives: a cached-handle counter add is an integer
// increment, a histogram observe is ~a dozen ns (bucket search + three P²
// updates), registry lookups are string-keyed map walks meant for
// construction time only, and an emitted event costs a flight-ring store
// plus, with a log installed, one mask test (and an append if logged).
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "sim/event.hpp"
#include "sim/network.hpp"
#include "tcp/cc.hpp"
#include "tcp/sender.hpp"
#include "tcp/sink.hpp"
#include "telemetry/telemetry.hpp"

using namespace phi;

namespace {

#ifdef PHI_TELEMETRY_OFF
constexpr const char* kMode = "telemetry=off";
#else
constexpr const char* kMode = "telemetry=on";
#endif

// The scheduler hot path (schedule + dispatch), instruments included.
// Identical source to micro_components' BM_SchedulerScheduleRun so the
// two binaries (ON vs OFF builds) are directly comparable.
void BM_SchedulerHotPath(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler s;
    long executed = 0;
    for (int i = 0; i < state.range(0); ++i)
      s.schedule_at(i * 100, [&executed] { ++executed; });
    s.run_until(state.range(0) * 100);
    benchmark::DoNotOptimize(executed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.SetLabel(kMode);
}
BENCHMARK(BM_SchedulerHotPath)->Arg(1000)->Arg(10000);

void BM_CounterAdd(benchmark::State& state) {
  telemetry::Counter& c =
      telemetry::registry().counter("bench.micro.counter");
  for (auto _ : state) {
    c.add();
    benchmark::DoNotOptimize(&c);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(kMode);
}
BENCHMARK(BM_CounterAdd);

void BM_GaugeSet(benchmark::State& state) {
  telemetry::Gauge& g = telemetry::registry().gauge("bench.micro.gauge");
  double v = 0.0;
  for (auto _ : state) {
    g.set(v += 1.0);
    benchmark::DoNotOptimize(&g);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(kMode);
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramObserve(benchmark::State& state) {
  telemetry::Histogram& h =
      telemetry::registry().histogram("bench.micro.hist");
  double v = 1e-6;
  for (auto _ : state) {
    v = v < 1e3 ? v * 1.37 : 1e-6;  // sweep the bucket range
    h.observe(v);
    benchmark::DoNotOptimize(&h);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(kMode);
}
BENCHMARK(BM_HistogramObserve);

// The cold path components pay once at construction: a string-keyed
// registry lookup. Never do this per event.
void BM_RegistryLookup(benchmark::State& state) {
  auto& reg = telemetry::registry();
  (void)reg.counter("bench.micro.lookup", {{"k", "v"}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        &reg.counter("bench.micro.lookup", {{"k", "v"}}));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(kMode);
}
BENCHMARK(BM_RegistryLookup);

// An untraced event whose category the installed log records: a flight
// ring store plus an append.
void BM_EmitInstantLogged(benchmark::State& state) {
  telemetry::SpanLog log(0, 0, /*capacity=*/1 << 20,
                         telemetry::kAllCategories);
  telemetry::set_spans(&log);
  util::Time ts = 0;
  for (auto _ : state) {
    telemetry::instant(telemetry::Category::kBench, 0, "bench.tick",
                       ts += 100, "i", 1.0);
    if (log.events().size() >= (1u << 20) - 1) log.clear();
  }
  telemetry::set_spans(nullptr);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(kMode);
}
BENCHMARK(BM_EmitInstantLogged);

// Causal-span overhead on the end-to-end packet path: the same TCP
// transfer as micro_components' BM_EndToEndPacketTransit, run three
// ways. spans=off has no SpanLog installed (every per-packet tracing
// site is `p.trace != 0` on an untraced packet after one nullptr-guarded
// lookup at connection start). spans=1in64 installs a log at the default
// sampling rate but uses a flow the sampler skips — the realistic
// steady-state cost for 63 of every 64 flows, required to stay within 2%
// of off. spans=all traces every packet: the worst-case recording cost,
// priced honestly by clearing the log between iterations so capacity
// never turns recording into a cheap drop-counter bump.
void BM_EndToEndPacketTransitSpans(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));  // 0 off, 1 1-in-64, 2 all
  telemetry::SpanLog log(mode == 2 ? 1u : 64u, /*seed=*/0,
                         /*capacity=*/1 << 18);
  if (mode != 0) telemetry::set_spans(&log);
  std::uint64_t flow = 1;
  if (mode == 1) {
    while (log.trace_of(flow) != 0) ++flow;  // a typical unsampled flow
  }

  sim::Network net;
  sim::Node& a = net.add_node("a");
  sim::Node& b = net.add_node("b");
  auto [fwd, rev] = net.add_duplex(a, b, 100.0 * util::kMbps,
                                   util::milliseconds(1), 1'000'000, "e2e");
  a.add_route(b.id(), fwd);
  b.add_route(a.id(), rev);
  tcp::TcpSender sender(net.scheduler(), a, b.id(), flow,
                        std::make_unique<tcp::Cubic>());
  tcp::TcpSink sink(net.scheduler(), b, flow);
  std::uint64_t packets = 0;
  constexpr std::int64_t kSegments = 2000;
  for (auto _ : state) {
    if (mode == 2) {
      state.PauseTiming();
      log.clear();
      state.ResumeTiming();
    }
    bool done = false;
    tcp::ConnStats stats;
    sender.start_connection(kSegments, [&](const tcp::ConnStats& s) {
      done = true;
      stats = s;
    });
    while (!done) net.run_until(net.now() + util::seconds(1));
    packets += stats.packets_sent;
  }
  telemetry::set_spans(nullptr);
  packets += sink.acks_sent();
  state.SetItemsProcessed(static_cast<std::int64_t>(packets));
  state.SetLabel(std::string(kMode) + (mode == 0   ? " spans=off"
                                       : mode == 1 ? " spans=1in64"
                                                   : " spans=all"));
}
BENCHMARK(BM_EndToEndPacketTransitSpans)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

// A category the log's mask filters out: the flight ring store plus one
// load and branch.
void BM_EmitInstantMaskedOut(benchmark::State& state) {
  telemetry::SpanLog log(0, 0, /*capacity=*/0,
                         telemetry::mask_of(telemetry::Category::kTcp));
  telemetry::set_spans(&log);
  util::Time ts = 0;
  for (auto _ : state) {
    telemetry::instant(telemetry::Category::kBench, 0, "bench.tick",
                       ts += 100);
    benchmark::DoNotOptimize(ts);
  }
  telemetry::set_spans(nullptr);
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(kMode);
}
BENCHMARK(BM_EmitInstantMaskedOut);

}  // namespace

BENCHMARK_MAIN();

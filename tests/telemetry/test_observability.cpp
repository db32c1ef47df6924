// The observability layer: deterministic span sampling, the event path
// (emit into the flight recorder and the SpanLog) + Chrome JSON shape,
// flight-recorder ring semantics and one-shot arming, event-loop
// self-profiling, time-series merge determinism, and the contract that
// none of it perturbs the simulation — plus the PHI_TELEMETRY_OFF stubs
// compiling to no-ops.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "phi/scenario.hpp"
#include "sim/event.hpp"
#include "telemetry/telemetry.hpp"
#include "util/units.hpp"

namespace phi::telemetry {
namespace {

core::ScenarioSpec tiny_dumbbell() {
  core::ScenarioSpec spec;
  spec.topology = sim::DumbbellConfig{.pairs = 4};
  spec.workload.mean_on_bytes = 100e3;
  spec.workload.mean_off_s = 0.5;
  spec.duration = util::seconds(5);
  spec.seed = 11;
  return spec;
}

#ifndef PHI_TELEMETRY_OFF

/// An untraced instant with one arg, as components emit them.
Event ev(Category c, const char* name, util::Time ts, double a0 = 0.0,
         std::uint32_t trace = 0) {
  return Event{c, 'i', trace, 0, ts, ts, name, "a", a0};
}

// --- Span sampling -----------------------------------------------------

TEST(SpanSampling, PureFunctionOfFlowSeedRate) {
  SpanLog a(8, /*seed=*/42, /*capacity=*/0);
  SpanLog b(8, /*seed=*/42, /*capacity=*/0);
  for (std::uint64_t flow = 0; flow < 4096; ++flow)
    EXPECT_EQ(a.trace_of(flow), b.trace_of(flow)) << flow;
}

TEST(SpanSampling, RateEndpoints) {
  SpanLog none(0, 0, 0), all(1, 0, 0);
  for (std::uint64_t flow = 0; flow < 256; ++flow) {
    EXPECT_EQ(none.trace_of(flow), 0u);
    EXPECT_NE(all.trace_of(flow), 0u);
  }
  // The trace id is the flow id (flow 0 maps to 1 so "sampled" stays
  // synonymous with "nonzero").
  EXPECT_EQ(all.trace_of(7), 7u);
  EXPECT_EQ(all.trace_of(0), 1u);
}

TEST(SpanSampling, OneInNHitsRoughlyOneInN) {
  SpanLog log(64, /*seed=*/3, 0);
  int sampled = 0;
  constexpr int kFlows = 64 * 1024;
  for (std::uint64_t flow = 1; flow <= kFlows; ++flow)
    if (log.trace_of(flow) != 0) ++sampled;
  // Binomial(64k, 1/64): mean 1024, sd ~32. Allow +-6 sd.
  EXPECT_GT(sampled, 1024 - 192);
  EXPECT_LT(sampled, 1024 + 192);
}

TEST(SpanSampling, SeedSelectsDifferentFlows) {
  SpanLog s1(64, 1, 0), s2(64, 2, 0);
  bool differ = false;
  for (std::uint64_t flow = 1; flow < 4096 && !differ; ++flow)
    differ = (s1.trace_of(flow) != 0) != (s2.trace_of(flow) != 0);
  EXPECT_TRUE(differ);
}

// --- SpanLog recording -------------------------------------------------

TEST(SpanLog, RecordsAllPhases) {
  SpanLog log(1, 0, 16);
  set_spans(&log);
  span(Category::kLink, 5, "link.transit", 100, 200, "bytes", 1500.0);
  instant(Category::kTcp, 5, "tcp.conn_start", 150, "cwnd", 2.0);
  const std::uint32_t bind = next_bind();
  flow_out(Category::kContext, 5, "phi.ctx", 200, bind);
  flow_in(Category::kContext, 5, "phi.ctx", 300, bind);
  set_spans(nullptr);
  ASSERT_EQ(log.events().size(), 4u);
  EXPECT_EQ(log.events()[0].phase, 'X');
  EXPECT_EQ(log.events()[0].t1, 200);
  EXPECT_STREQ(log.events()[0].k0, "bytes");
  EXPECT_DOUBLE_EQ(log.events()[0].a0, 1500.0);
  EXPECT_EQ(log.events()[1].phase, 'i');
  EXPECT_EQ(log.events()[2].phase, 's');
  EXPECT_EQ(log.events()[3].phase, 'f');
  EXPECT_EQ(log.events()[2].bind, log.events()[3].bind);
}

TEST(SpanLog, CapacityDropsThenClearRearms) {
  SpanLog log(1, 0, /*capacity=*/2);
  log.record(ev(Category::kTcp, "a", 0, 0.0, 1));
  log.record(ev(Category::kTcp, "b", 1, 0.0, 1));
  log.record(ev(Category::kTcp, "c", 2, 0.0, 1));
  EXPECT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  log.clear();
  EXPECT_EQ(log.events().size(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  log.record(ev(Category::kTcp, "d", 3, 0.0, 1));
  EXPECT_EQ(log.events().size(), 1u);
}

TEST(SpanLog, ChromeJsonHasSlicesArrowsAndTrackNames) {
  SpanLog log(1, 0, 16);
  log.record(Event{Category::kLink, 'X', 9, 0, 1000, 2000, "link.transit"});
  const std::uint32_t bind = log.next_bind();
  log.record(Event{Category::kLink, 's', 9, bind, 2000, 2000, "hop"});
  log.record(Event{Category::kLink, 'f', 9, bind, 3000, 3000, "hop"});
  const std::string json = log.chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("flow 9"), std::string::npos);
}

TEST(SpanLog, ThreadLocalInstallAndRestore) {
  EXPECT_EQ(spans(), nullptr);
  SpanLog log(1, 0, 4);
  set_spans(&log);
  EXPECT_EQ(spans(), &log);
  set_spans(nullptr);
  EXPECT_EQ(spans(), nullptr);
}

// --- Flight recorder ---------------------------------------------------

TEST(FlightRecorderTest, RingKeepsLastDepthEvents) {
  FlightRecorder fr(/*depth=*/4);
  for (int i = 0; i < 10; ++i) fr.note(ev(Category::kTcp, "tcp.evt", i, i));
  EXPECT_EQ(fr.recorded(), 10u);
  EXPECT_EQ(fr.ring_size(Category::kTcp), 4u);
  const std::string dump = fr.dump();
  EXPECT_NE(dump.find("tcp.evt"), std::string::npos);
  // Oldest events evicted: the per-category section reports 4 of 10.
  EXPECT_NE(dump.find("(4)"), std::string::npos);
}

TEST(FlightRecorderTest, CategoriesHaveIndependentRings) {
  FlightRecorder fr(2);
  fr.note(ev(Category::kLink, "link.drop", 1));
  fr.note(ev(Category::kQueue, "red.mark", 2));
  fr.note(ev(Category::kQueue, "red.mark", 3));
  fr.note(ev(Category::kQueue, "red.mark", 4));
  EXPECT_EQ(fr.ring_size(Category::kLink), 1u);
  EXPECT_EQ(fr.ring_size(Category::kQueue), 2u);
}

TEST(FlightRecorderTest, ArmFiresOnceOnMatchingCategory) {
  const std::string path =
      ::testing::TempDir() + "/phi_flight_arm_test.txt";
  std::remove(path.c_str());
  FlightRecorder fr(8);
  fr.arm(mask_of(Category::kFault), path);
  EXPECT_TRUE(fr.armed());
  fr.note(ev(Category::kTcp, "tcp.evt", 1));  // not in mask: no dump
  EXPECT_TRUE(fr.armed());
  EXPECT_EQ(fr.last_dump_path(), "");
  fr.note(ev(Category::kFault, "fault.drop_report", 2));
  EXPECT_FALSE(fr.armed());  // one-shot latch consumed
  EXPECT_EQ(fr.last_dump_path(), path);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, AnomalyDumpsToArmedPath) {
  const std::string path =
      ::testing::TempDir() + "/phi_flight_anomaly_test.txt";
  std::remove(path.c_str());
  FlightRecorder fr(8);
  fr.note(ev(Category::kScheduler, "sched.run", 1));
  fr.arm(kAllCategories, path);
  fr.anomaly(ev(Category::kBench, "queue.stuck", 2, 42.0));
  EXPECT_EQ(fr.last_dump_path(), path);
  EXPECT_FALSE(fr.armed());  // the anomaly consumed the one-shot latch
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[4096];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  const std::string dump(buf);
  EXPECT_NE(dump.find("queue.stuck"), std::string::npos);
  EXPECT_NE(dump.find("a=42"), std::string::npos);
  EXPECT_NE(dump.find("sched.run"), std::string::npos);
  std::remove(path.c_str());
}

std::string read_file(const std::string& path) {
  std::string text;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
      text.append(buf, n);
    std::fclose(f);
  }
  return text;
}

TEST(FlightRecorderTest, AnomalyAfterFiredArmGoesToStderr) {
  // Regression: once the one-shot arm fired and disarmed, anomaly() used
  // to overwrite the first dump instead of writing to stderr.
  const std::string path =
      ::testing::TempDir() + "/phi_flight_anomaly_after_arm.txt";
  std::remove(path.c_str());
  FlightRecorder fr(8);
  fr.arm(mask_of(Category::kFault), path);
  fr.note(ev(Category::kFault, "fault.crash", 1));
  ASSERT_FALSE(fr.armed());
  const std::string first = read_file(path);
  ASSERT_NE(first.find("fault.crash"), std::string::npos);

  ::testing::internal::CaptureStderr();
  fr.anomaly(ev(Category::kBench, "queue.stuck", 2));
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("queue.stuck"), std::string::npos);
  EXPECT_EQ(read_file(path), first);
  EXPECT_EQ(fr.last_dump_path(), path);
  std::remove(path.c_str());
}

// --- Event-loop self-profiling ----------------------------------------

TEST(LoopProfileTest, CallbackCountsAreExact) {
  LoopProfile prof;
  sim::Scheduler s;
  s.set_profile(&prof);
  constexpr int kEvents = 500;
  long ran = 0;
  for (int i = 0; i < kEvents; ++i)
    s.schedule_at(i * 1000, [&ran] { ++ran; });
  s.run_until(kEvents * 1000);
  s.set_profile(nullptr);
  EXPECT_EQ(ran, kEvents);
  EXPECT_EQ(prof.events(LoopProfile::kCallback),
            static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(prof.events(LoopProfile::kDelivery), 0u);
  EXPECT_GT(prof.wall_ns(), 0u);
  const std::string table = prof.table();
  EXPECT_NE(table.find("callback"), std::string::npos);
  EXPECT_NE(table.find("wheel advance"), std::string::npos);
}

TEST(LoopProfileTest, MergeAddsCountsAndTimes) {
  LoopProfile a, b;
  a.count(LoopProfile::kDelivery, 10);
  a.add_time(LoopProfile::kDelivery, 100, 2);
  b.count(LoopProfile::kDelivery, 5);
  b.add_wall(77);
  a.merge(b);
  EXPECT_EQ(a.events(LoopProfile::kDelivery), 15u);
  EXPECT_EQ(a.sampled(LoopProfile::kDelivery), 2u);
  EXPECT_EQ(a.sampled_ns(LoopProfile::kDelivery), 100u);
  EXPECT_EQ(a.wall_ns(), 77u);
}

TEST(LoopProfileTest, SharesComeFromEstimatedTotals) {
  // Wheel advance: 1000 events, 10 timed at 100 ns each -> 100 us total.
  // Delivery: 100 events, all timed, 3000 ns each -> 300 us total. By
  // sampled time alone delivery would be 99.7%; by estimated totals the
  // split is 25% / 75%.
  LoopProfile prof;
  prof.count(LoopProfile::kWheelAdvance, 1000);
  prof.add_time(LoopProfile::kWheelAdvance, 1000, 10);
  prof.count(LoopProfile::kDelivery, 100);
  prof.add_time(LoopProfile::kDelivery, 300'000, 100);
  prof.add_wall(500'000);
  EXPECT_DOUBLE_EQ(prof.estimated_ns(LoopProfile::kWheelAdvance), 100'000.0);
  EXPECT_DOUBLE_EQ(prof.estimated_ns(LoopProfile::kDelivery), 300'000.0);
  EXPECT_DOUBLE_EQ(prof.estimated_ns(LoopProfile::kCallback), 0.0);
  const std::string table = prof.table();
  EXPECT_NE(table.find(" 25.0%"), std::string::npos) << table;
  EXPECT_NE(table.find(" 75.0%"), std::string::npos) << table;
  EXPECT_NE(table.find("sections sum 0.400 ms of run_until wall 0.500 ms "
                       "(gap 0.100 ms, 20.0%)"),
            std::string::npos)
      << table;
}

TEST(LoopProfileTest, CalibratedClockReadIsChargedOncePerSample) {
  LoopProfile prof;
  prof.add_time(LoopProfile::kDelivery, 500, 4);  // before calibration
  prof.calibrate();
  const std::uint64_t read = prof.clock_read_ns();
  ASSERT_GT(read, 0u);
  EXPECT_LT(read, 100'000u);
  prof.calibrate();  // once per profile
  EXPECT_EQ(prof.clock_read_ns(), read);

  // Two more samples of 4 events each, every one 100 ns of work plus the
  // read; the first sample stays uncharged.
  prof.add_time(LoopProfile::kDelivery, 400 + read, 4);
  prof.add_time(LoopProfile::kDelivery, 400 + read, 4);
  prof.count(LoopProfile::kDelivery, 120);
  EXPECT_EQ(prof.sampled_ns(LoopProfile::kDelivery), 1300 + 2 * read);
  EXPECT_DOUBLE_EQ(prof.estimated_ns(LoopProfile::kDelivery),
                   1300.0 * 120 / 12);

  // A merged profile keeps the charges and reports the read cost.
  LoopProfile all;
  all.merge(prof);
  EXPECT_DOUBLE_EQ(all.estimated_ns(LoopProfile::kDelivery),
                   prof.estimated_ns(LoopProfile::kDelivery));
  EXPECT_EQ(all.clock_read_ns(), read);
  EXPECT_NE(all.table().find("net of " + std::to_string(read) +
                             " ns per clock read"),
            std::string::npos);
}

// --- Time series -------------------------------------------------------

TEST(TimeSeriesTest, MergeAppendsInSubmissionOrder) {
  TimeSeries whole, part1, part2;
  part1.sample(0.0, 1.0);
  part1.sample(0.1, 2.0);
  part2.sample(0.0, 10.0);
  whole.merge(part1);
  whole.merge(part2);
  ASSERT_EQ(whole.size(), 3u);
  EXPECT_DOUBLE_EQ(whole.values()[0], 1.0);
  EXPECT_DOUBLE_EQ(whole.values()[2], 10.0);
}

TEST(TimeSeriesTest, RegistryFoldIsDeterministic) {
  auto part = [](int which) {
    MetricRegistry r;
    auto& ts = r.timeseries("scenario.queue_bytes",
                            {{"path", std::to_string(which)}});
    for (int i = 0; i < 8; ++i) ts.sample(i * 0.1, which * 100.0 + i);
    return r;
  };
  auto fold = [&] {
    MetricRegistry acc;
    for (int w = 0; w < 3; ++w) acc.merge(part(w));
    return acc.timeseries_csv();
  };
  const std::string csv = fold();
  EXPECT_EQ(csv, fold());
  EXPECT_NE(csv.find("series,labels,t_s,value"), std::string::npos);
  EXPECT_NE(csv.find("scenario.queue_bytes"), std::string::npos);
  EXPECT_NE(csv.find("path=0"), std::string::npos);
}

TEST(TimeSeriesTest, ForEachVisitsInKeyOrder) {
  MetricRegistry r;
  r.timeseries("b.series").sample(0, 1);
  r.timeseries("a.series").sample(0, 2);
  std::string order;
  r.for_each_timeseries(
      [&](const std::string& name, const Labels&, const TimeSeries&) {
        order += name + ";";
      });
  EXPECT_EQ(order, "a.series;b.series;");
}

// --- Scenario-level contracts ------------------------------------------

TEST(ScenarioTelemetry, CaptureIsBitIdenticalAcrossRuns) {
  core::ScenarioSpec spec = tiny_dumbbell();
  spec.telemetry.trace_one_in = 1;
  spec.telemetry.timeseries_dt = util::milliseconds(100);
  spec.telemetry.span_capacity = 1 << 18;

  auto run = [&](std::string* ts_csv) {
    MetricRegistry mine;
    ScopedRegistry scope(mine);
    const core::ScenarioMetrics m =
        core::run_cubic_scenario(spec, tcp::CubicParams{});
    *ts_csv = mine.timeseries_csv();
    return m;
  };
  std::string csv1, csv2;
  const core::ScenarioMetrics m1 = run(&csv1);
  const core::ScenarioMetrics m2 = run(&csv2);

  ASSERT_NE(m1.capture, nullptr);
  ASSERT_NE(m2.capture, nullptr);
  EXPECT_GT(m1.capture->spans.events().size(), 0u);
  EXPECT_EQ(m1.capture->spans.chrome_json(), m2.capture->spans.chrome_json());
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv2);
}

TEST(ScenarioTelemetry, TracingDoesNotPerturbTheSimulation) {
  const core::ScenarioMetrics plain =
      core::run_cubic_scenario(tiny_dumbbell(), tcp::CubicParams{});

  core::ScenarioSpec spec = tiny_dumbbell();
  spec.telemetry.trace_one_in = 1;
  spec.telemetry.timeseries_dt = util::milliseconds(100);
  spec.telemetry.profile = true;
  spec.telemetry.span_capacity = 1 << 18;
  core::ScenarioMetrics traced;
  {
    MetricRegistry mine;
    ScopedRegistry scope(mine);
    traced = core::run_cubic_scenario(spec, tcp::CubicParams{});
  }

  EXPECT_DOUBLE_EQ(traced.throughput_bps, plain.throughput_bps);
  EXPECT_DOUBLE_EQ(traced.loss_rate, plain.loss_rate);
  EXPECT_DOUBLE_EQ(traced.utilization, plain.utilization);
  EXPECT_DOUBLE_EQ(traced.mean_rtt_s, plain.mean_rtt_s);
  EXPECT_EQ(traced.connections, plain.connections);
  EXPECT_EQ(traced.timeouts, plain.timeouts);
  EXPECT_EQ(plain.capture, nullptr);  // no flags, no capture
}

TEST(ScenarioTelemetry, TracedRunCoversTheDatapath) {
  core::ScenarioSpec spec = tiny_dumbbell();
  spec.telemetry.trace_one_in = 1;
  spec.telemetry.span_capacity = 1 << 18;
  core::ScenarioMetrics m;
  {
    MetricRegistry mine;
    ScopedRegistry scope(mine);
    m = core::run_cubic_scenario(spec, tcp::CubicParams{});
  }
  ASSERT_NE(m.capture, nullptr);
  bool conn_start = false, link_transit = false;
  for (const auto& e : m.capture->spans.events()) {
    conn_start = conn_start || std::string(e.name) == "tcp.conn_start";
    link_transit = link_transit || std::string(e.name) == "link.transit";
  }
  EXPECT_TRUE(conn_start);
  EXPECT_TRUE(link_transit);
  EXPECT_EQ(m.capture->spans.dropped(), 0u);
}

#else  // PHI_TELEMETRY_OFF — the whole layer must be inert no-op stubs.

TEST(ObservabilityStubs, EventPathIsInert) {
  SpanLog log(1, 0, 1024, kAllCategories);
  set_spans(&log);
  EXPECT_EQ(spans(), nullptr);
  span(Category::kLink, 1, "x", 0, 1);
  instant(Category::kFault, 0, "y", 0);
  flow_out(Category::kContext, 1, "z", 0, next_bind());
  counter(Category::kLink, "c", 0, 1.0);
  EXPECT_TRUE(log.events().empty());
  EXPECT_EQ(flight().recorded(), 0u);
}

TEST(ObservabilityStubs, LoopProfileAndTimeSeriesAreInert) {
  LoopProfile prof;
  prof.count(LoopProfile::kDelivery, 100);
  prof.add_wall(100);
  EXPECT_EQ(prof.events(LoopProfile::kDelivery), 0u);
  EXPECT_TRUE(prof.table().empty());
  MetricRegistry r;
  r.timeseries("t").sample(0, 1);
  EXPECT_EQ(r.timeseries("t").size(), 0u);
  EXPECT_TRUE(r.timeseries_csv().empty());
}

TEST(ObservabilityStubs, TelemetrySpecFlagsAreHarmless) {
  core::ScenarioSpec spec = tiny_dumbbell();
  const core::ScenarioMetrics plain =
      core::run_cubic_scenario(spec, tcp::CubicParams{});
  spec.telemetry.trace_one_in = 1;
  spec.telemetry.timeseries_dt = util::milliseconds(100);
  spec.telemetry.profile = true;
  const core::ScenarioMetrics flagged =
      core::run_cubic_scenario(spec, tcp::CubicParams{});
  EXPECT_DOUBLE_EQ(flagged.throughput_bps, plain.throughput_bps);
  EXPECT_EQ(flagged.connections, plain.connections);
  if (flagged.capture != nullptr)
    EXPECT_TRUE(flagged.capture->spans.events().empty());
}

#endif  // PHI_TELEMETRY_OFF

}  // namespace
}  // namespace phi::telemetry

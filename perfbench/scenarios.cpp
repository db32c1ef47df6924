// scenarios.cpp — runs one benchmark workload through the scenario engine and
// prints one JSON record per scenario call on stdout. perfbench/run.py
// builds and drives it, checks the records and derives the metrics.
//
//   perfbench_scenarios measure|trace|reference <workload> <seed> <seconds>
//
// measure    a warm-up run, then untraced runs, each followed by a few
//            setup-only probes, until <seconds> are used; then the
//            process's peak RSS.
// trace      a warm-up run, then untraced and traced runs in turn until
//            <seconds> are used (fleet-phi adds an untraced fleet-cubic run
//            per round, for the run-phase gap), then timed calls to the
//            session-trace generator.
// reference  one serial run of the workload's spec (lot-sharded's output
//            must equal it).
//
// Every layer is measured from outside: timing decorators around the
// public interfaces the engine calls (CongestionControl,
// ConnectionAdvisor, ContextService), the scheduler's LoopProfile event
// counts, and the telemetry counters read after the run.
#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "flow/tracegen.hpp"
#include "phi/aggregation.hpp"
#include "phi/client.hpp"
#include "phi/context_server.hpp"
#include "phi/presets.hpp"
#include "phi/scenario.hpp"
#include "sim/graph_topology.hpp"
#include "spans.hpp"
#include "tcp/cc.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profile.hpp"
#include "util/rng.hpp"

using namespace phi;

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------- workloads

enum class Control { kCubic, kPhi };

struct Workload {
  core::ScenarioSpec spec;
  Control control = Control::kCubic;
};

bool make_workload(const std::string& name, std::uint64_t seed,
                   Workload* w) {
  const char* preset = nullptr;
  if (name == "fleet-cubic" || name == "fleet-phi") {
    preset = "fat-tree-churn";
  } else if (name == "lot-sharded") {
    preset = "parking-wide";
  } else {
    return false;
  }
  w->spec = core::presets::find(preset)->spec;
  w->spec.seed = seed;
  w->control = name == "fleet-phi" ? Control::kPhi : Control::kCubic;
  if (name == "lot-sharded") {
    // Long enough that the serial engine runs for seconds.
    w->spec.duration = util::seconds(480);
    w->spec.sharding.shards = 4;
  }
  return true;
}

// --------------------------------------------------------------- decorators

/// Per-run decorator state. Phi layers share one span stack (the serial
/// engine runs them on one thread); each CongestionControl decorator owns
/// its Layer, touched only by the thread running its sender (each on its
/// own cache line, since shard threads update them concurrently).
struct Tracing {
  perfbench::SpanStack stack{now_ns};
  perfbench::Layer advisor, agg, root_lookup, root_report;
  struct alignas(64) CcLayer {
    perfbench::Layer layer;
  };
  std::deque<CcLayer> cc;  // stable addresses; grown during setup only
};

class TimedCc final : public tcp::CongestionControl {
 public:
  TimedCc(std::unique_ptr<tcp::CongestionControl> inner,
          perfbench::Layer& layer)
      : inner_(std::move(inner)), layer_(layer) {}

  void reset(util::Time now) override {
    perfbench::LeafScope s(layer_, now_ns);
    inner_->reset(now);
  }
  void on_ack(std::int64_t newly_acked, double rtt_s,
              util::Time now) override {
    perfbench::LeafScope s(layer_, now_ns);
    inner_->on_ack(newly_acked, rtt_s, now);
  }
  void on_loss_event(util::Time now, std::int64_t flight) override {
    perfbench::LeafScope s(layer_, now_ns);
    inner_->on_loss_event(now, flight);
  }
  void on_timeout(util::Time now, std::int64_t flight) override {
    perfbench::LeafScope s(layer_, now_ns);
    inner_->on_timeout(now, flight);
  }
  double window() const override {
    perfbench::LeafScope s(layer_, now_ns);
    return inner_->window();
  }
  double ssthresh() const override {
    perfbench::LeafScope s(layer_, now_ns);
    return inner_->ssthresh();
  }
  util::Duration min_send_gap(util::Time now) const override {
    perfbench::LeafScope s(layer_, now_ns);
    return inner_->min_send_gap(now);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<tcp::CongestionControl> inner_;
  perfbench::Layer& layer_;
};

class TimedAdvisor final : public tcp::ConnectionAdvisor {
 public:
  TimedAdvisor(std::unique_ptr<tcp::ConnectionAdvisor> inner, Tracing& tr)
      : inner_(std::move(inner)), tr_(tr) {}

  void before_connection(tcp::TcpSender& sender) override {
    perfbench::SpanStack::Scope s(tr_.stack, tr_.advisor);
    inner_->before_connection(sender);
  }
  void after_connection(const tcp::ConnStats& stats,
                        const tcp::TcpSender& sender) override {
    perfbench::SpanStack::Scope s(tr_.stack, tr_.advisor);
    inner_->after_connection(stats, sender);
  }

 private:
  std::unique_ptr<tcp::ConnectionAdvisor> inner_;
  Tracing& tr_;
};

class TimedService final : public core::ContextService {
 public:
  TimedService(core::ContextService& inner, perfbench::SpanStack& stack,
               perfbench::Layer& lookups, perfbench::Layer& reports)
      : inner_(inner), stack_(stack), lookups_(lookups), reports_(reports) {}

  core::LookupReply lookup(const core::LookupRequest& req) override {
    perfbench::SpanStack::Scope s(stack_, lookups_);
    return inner_.lookup(req);
  }
  void report(const core::Report& r) override {
    perfbench::SpanStack::Scope s(stack_, reports_);
    inner_.report(r);
  }

 private:
  core::ContextService& inner_;
  perfbench::SpanStack& stack_;
  perfbench::Layer& lookups_;
  perfbench::Layer& reports_;
};

// ------------------------------------------------------------ control plane

/// The Phi recommendation table of bench/fleet_churn.cpp: an uncongested
/// path lets short flows skip slow start; a busy or crowded path gets
/// stock caution plus a harder multiplicative decrease.
core::RecommendationTable warm_table() {
  core::RecommendationTable t;
  for (int u = 0; u < 5; ++u) {
    for (int n = 0; n < 8; ++n) {
      tcp::CubicParams p;
      if (u <= 1)
        p.window_init = n <= 2 ? 24 : 12;
      else if (u == 2)
        p.window_init = 8;
      if (u >= 3 || n >= 4) p.beta = 0.4;
      t.set({u, n}, p);
    }
  }
  return t;
}

/// fleet_churn's deployment shape: a root ContextServer, one
/// AggregatorServer per topology region, a PhiCubicAdvisor per churn
/// slot. With tracing, decorators sit between advisor and aggregator and
/// between aggregator and root.
struct ControlPlane {
  std::unique_ptr<core::ContextServer> root;
  std::unique_ptr<TimedService> root_timed;
  std::vector<std::unique_ptr<core::AggregatorServer>> aggs;
  std::vector<std::unique_ptr<TimedService>> aggs_timed;
  std::uint64_t agg_lookups = 0;
  std::uint64_t agg_cold = 0;

  void build(core::LiveScenario& live, Tracing* tr) {
    sim::Scheduler* sched = &live.topology->scheduler();
    root = std::make_unique<core::ContextServer>(
        core::ContextServerConfig{}, [sched] { return sched->now(); });
    for (std::size_t p = 0; p < live.topology->path_count(); ++p)
      root->set_path_capacity(static_cast<core::PathKey>(p),
                              live.topology->path_link(p).rate());
    root->set_recommendations(warm_table());
    core::ContextService* parent = root.get();
    if (tr != nullptr) {
      root_timed = std::make_unique<TimedService>(
          *root, tr->stack, tr->root_lookup, tr->root_report);
      parent = root_timed.get();
    }
    auto* g = dynamic_cast<sim::GraphTopology*>(live.topology);
    const int regions = g != nullptr ? g->regions() : 1;
    for (int r = 0; r < regions; ++r) {
      core::AggregatorConfig ac;
      ac.name = "r" + std::to_string(r);
      aggs.push_back(
          std::make_unique<core::AggregatorServer>(*sched, *parent, ac));
      if (tr != nullptr)
        aggs_timed.push_back(std::make_unique<TimedService>(
            *aggs.back(), tr->stack, tr->agg, tr->agg));
    }
  }

  core::ContextService& region(std::size_t r) {
    if (!aggs_timed.empty()) return *aggs_timed[r];
    return *aggs[r];
  }

  void harvest() {
    for (const auto& a : aggs) {
      agg_lookups += a->lookups();
      agg_cold += a->cold_lookups();
    }
  }
};

// --------------------------------------------------------------------- runs

/// Thrown by the engine's last call into benchmark code in a setup probe:
/// the scenario unwinds right where the simulation would start.
struct SetupDone {};

struct Run {
  core::ScenarioMetrics m;
  std::uint64_t start_ns = 0;
  std::uint64_t setup_end_ns = 0;  ///< return of the last hook/factory call
  std::uint64_t end_ns = 0;
  ControlPlane cp;
};

/// One scenario call. `tr` adds the decorators and the loop profile;
/// `probe` stops the call when set-up is done (returns false).
bool run_once(const core::ScenarioSpec& base, Control control, Tracing* tr,
              bool probe, Run* run) {
  core::ScenarioSpec spec = base;
  spec.telemetry.profile = tr != nullptr;
  telemetry::registry().reset_values();
  std::uint64_t& stamp = run->setup_end_ns;
  const bool sharded = spec.sharding.shards > 1;
  const std::size_t static_senders = spec.sender_count();

  core::PolicyFactory policy =
      [&](std::size_t i) -> std::unique_ptr<tcp::CongestionControl> {
    std::unique_ptr<tcp::CongestionControl> cc =
        std::make_unique<tcp::Cubic>();
    if (tr != nullptr) {
      tr->cc.emplace_back();
      cc = std::make_unique<TimedCc>(std::move(cc), tr->cc.back().layer);
    }
    stamp = now_ns();
    // Sharded runs take no setup hook: the last static sender's policy is
    // the engine's last call into benchmark code before the run.
    if (probe && sharded && i + 1 == static_senders) throw SetupDone{};
    return cc;
  };

  core::SetupHook hook = [&](core::LiveScenario& live) -> core::AdvisorFactory {
    if (control == Control::kPhi) {
      run->cp.build(live, tr);
      auto* g = dynamic_cast<sim::GraphTopology*>(live.topology);
      sim::Scheduler* sched = &live.topology->scheduler();
      const std::size_t slots = live.churn_endpoints.size();
      live.churn_advisor = [&, g, sched, slots,
                            eps = live.churn_endpoints](std::size_t slot)
          -> std::unique_ptr<tcp::ConnectionAdvisor> {
        const std::size_t ep = eps[slot];
        const int region = g != nullptr ? g->endpoint_region(ep) : 0;
        std::size_t path = g != nullptr ? g->endpoint_path(ep) : 0;
        if (path == sim::Topology::kAllPaths) path = 0;
        std::unique_ptr<tcp::ConnectionAdvisor> adv =
            std::make_unique<core::PhiCubicAdvisor>(
                run->cp.region(static_cast<std::size_t>(region)),
                static_cast<core::PathKey>(path),
                /*sender_id=*/900'000 + slot,
                [sched] { return sched->now(); });
        if (tr != nullptr)
          adv = std::make_unique<TimedAdvisor>(std::move(adv), *tr);
        stamp = now_ns();
        if (probe && slot + 1 == slots) throw SetupDone{};
        return adv;
      };
      live.on_complete = [run] { run->cp.harvest(); };
    }
    stamp = now_ns();
    if (probe && control == Control::kCubic) throw SetupDone{};
    return nullptr;
  };

  run->start_ns = now_ns();
  try {
    run->m = sharded ? core::run_scenario(spec, policy)
                     : core::run_scenario_with_setup(spec, policy, hook);
  } catch (const SetupDone&) {
    return false;
  }
  run->end_ns = now_ns();
  return true;
}

// ------------------------------------------------------------------- output

/// Minimal JSON object writer; doubles keep all 17 significant digits so
/// run.py's digest sees the exact simulated values.
class Json {
 public:
  Json& key(const char* k) {
    comma();
    out_ += '"';
    out_ += k;
    out_ += "\":";
    fresh_ = true;
    return *this;
  }
  Json& num(double v) {
    comma();
    if (!std::isfinite(v)) {
      out_ += "null";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.17g", v);
      out_ += buf;
    }
    return *this;
  }
  Json& num(std::uint64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& num(std::int64_t v) {
    comma();
    out_ += std::to_string(v);
    return *this;
  }
  Json& str(const std::string& v) {
    comma();
    out_ += '"' + v + '"';
    return *this;
  }
  Json& open(char c) {
    comma();
    out_ += c;
    fresh_ = true;
    return *this;
  }
  Json& close(char c) {
    out_ += c;
    fresh_ = false;
    return *this;
  }
  const std::string& text() const { return out_; }

 private:
  void comma() {
    if (!fresh_ && !out_.empty()) out_ += ',';
    fresh_ = false;
  }
  std::string out_;
  bool fresh_ = true;
};

template <typename T>
Json& kv(Json& j, const char* k, T v) {
  return j.key(k).num(v);
}

/// The simulated statistics of one run: what run.py checks and digests.
void write_sim(Json& j, const core::ScenarioMetrics& m) {
  j.key("sim").open('{');
  kv(j, "events", static_cast<std::uint64_t>(m.events_executed));
  kv(j, "connections", static_cast<std::int64_t>(m.connections));
  kv(j, "timeouts", static_cast<std::uint64_t>(m.timeouts));
  kv(j, "throughput_bps", m.throughput_bps);
  kv(j, "mean_queue_delay_s", m.mean_queue_delay_s);
  kv(j, "loss_rate", m.loss_rate);
  kv(j, "utilization", m.utilization);
  kv(j, "mean_rtt_s", m.mean_rtt_s);
  kv(j, "min_rtt_s", m.min_rtt_s);
  const core::ChurnMetrics& c = m.churn;
  j.key("churn").open('{');
  kv(j, "enabled", static_cast<std::uint64_t>(c.enabled ? 1 : 0));
  kv(j, "offered", c.offered);
  kv(j, "started", c.started);
  kv(j, "completed", c.completed);
  kv(j, "measured", c.measured);
  kv(j, "deferred", c.deferred);
  kv(j, "fct_p50_s", c.fct_p50_s);
  kv(j, "fct_p90_s", c.fct_p90_s);
  kv(j, "fct_p99_s", c.fct_p99_s);
  kv(j, "fct_mean_s", c.fct_mean_s);
  kv(j, "wait_mean_s", c.wait_mean_s);
  kv(j, "goodput_bps", c.goodput_bps);
  kv(j, "mean_rtt_s", c.mean_rtt_s);
  kv(j, "retransmits", c.retransmits);
  kv(j, "timeouts", c.timeouts);
  j.close('}');
  j.key("paths").open('[');
  for (const core::PathMetrics& p : m.paths) {
    j.open('{');
    kv(j, "mean_queue_delay_s", p.mean_queue_delay_s);
    kv(j, "loss_rate", p.loss_rate);
    kv(j, "utilization", p.utilization);
    kv(j, "bytes_transmitted", p.bytes_transmitted);
    j.close('}');
  }
  j.close(']');
  j.key("senders").open('[');
  for (const core::SenderMetrics& s : m.per_sender) {
    j.open('{');
    kv(j, "connections", static_cast<std::int64_t>(s.connections));
    kv(j, "bits", s.bits);
    kv(j, "on_time_s", s.on_time_s);
    kv(j, "retransmits", s.retransmits);
    kv(j, "packets_sent", s.packets_sent);
    kv(j, "timeouts", s.timeouts);
    j.close('}');
  }
  j.close(']');
  j.close('}');
}

/// Telemetry counters of the current registry, summed over label sets.
void write_counters(Json& j) {
  std::map<std::string, std::uint64_t> sums;
  std::istringstream csv(telemetry::registry().csv());
  std::string line;
  while (std::getline(csv, line)) {
    if (line.rfind("counter,", 0) != 0) continue;
    std::vector<std::string> f;
    std::size_t from = 0;
    for (std::size_t at; (at = line.find(',', from)) != std::string::npos;
         from = at + 1)
      f.push_back(line.substr(from, at - from));
    f.push_back(line.substr(from));
    // kind,name,labels,value followed by seven empty histogram columns;
    // count from the end so a comma inside a label cannot shift it.
    if (f.size() < 11) continue;
    sums[f[1]] += std::strtoull(f[f.size() - 8].c_str(), nullptr, 10);
  }
  j.key("counters").open('{');
  for (const auto& [name, v] : sums) kv(j, name.c_str(), v);
  j.close('}');
}

void write_layer(Json& j, const char* name, const perfbench::Layer& l) {
  j.key(name).open('{');
  kv(j, "calls", l.calls);
  kv(j, "self_ns", l.self_ns);
  j.close('}');
}

void print_run(const char* variant, const core::ScenarioSpec& spec,
               const Run& run, const Tracing* tr) {
  Json j;
  j.open('{');
  j.key("kind").str("run");
  j.key("variant").str(variant);
  kv(j, "setup_ns", run.setup_end_ns - run.start_ns);
  kv(j, "wall_ns", run.end_ns - run.start_ns);
  kv(j, "sim_s", util::to_seconds(spec.warmup + spec.duration));
  write_sim(j, run.m);
  write_counters(j);
  if (tr != nullptr) {
    j.key("layers").open('{');
    using P = telemetry::LoopProfile;
    const P* prof = run.m.capture ? &run.m.capture->profile : nullptr;
    kv(j, "wheel_advances",
       prof != nullptr ? prof->events(P::kWheelAdvance) : std::uint64_t{0});
    write_layer(j, "advisor", tr->advisor);
    write_layer(j, "agg", tr->agg);
    write_layer(j, "root_lookup", tr->root_lookup);
    write_layer(j, "root_report", tr->root_report);
    perfbench::Layer cc;
    for (const auto& c : tr->cc) {
      cc.calls += c.layer.calls;
      cc.self_ns += c.layer.self_ns;
    }
    write_layer(j, "cc", cc);
    kv(j, "agg_lookups", run.cp.agg_lookups);
    kv(j, "agg_cold", run.cp.agg_cold);
    j.close('}');
  }
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  std::fflush(stdout);
}

void print_value(const char* kind, const char* key, double v) {
  Json j;
  j.open('{');
  j.key("kind").str(kind);
  kv(j, key, v);
  j.close('}');
  std::printf("%s\n", j.text().c_str());
  std::fflush(stdout);
}

// -------------------------------------------------------------------- modes

/// Peak resident memory of this process image (VmHWM). Not getrusage's
/// ru_maxrss: that survives exec and so also holds the launching
/// interpreter's footprint.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  return 0;
}

constexpr int kProbesPerRound = 5;
constexpr int kTracegenCalls = 5;

/// One untimed warm-up run (cold caches and heap), then `round` again and
/// again while another round still fits in `seconds`, judged by the
/// longest round so far; at least one round.
template <typename Round>
void warm_then_repeat(const Workload& w, double seconds, Round round) {
  const std::uint64_t t0 = now_ns();
  {
    Run run;
    run_once(w.spec, w.control, nullptr, false, &run);
    print_run("warmup", w.spec, run, nullptr);
  }
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t longest = 0;
  do {
    const std::uint64_t s = now_ns();
    round();
    longest = std::max(longest, now_ns() - s);
  } while (now_ns() - t0 + longest <= budget);
}

void measure(const Workload& w, double seconds) {
  warm_then_repeat(w, seconds, [&] {
    {
      Run run;
      run_once(w.spec, w.control, nullptr, false, &run);
      print_run("plain", w.spec, run, nullptr);
    }
    // Probes follow every run rather than all coming at the end, so they
    // sample the host over the whole measuring time, as the runs do.
    for (int i = 0; i < kProbesPerRound; ++i) {
      Run run;
      run_once(w.spec, w.control, nullptr, true, &run);
      print_value("probe", "setup_ns",
                  static_cast<double>(run.setup_end_ns - run.start_ns));
    }
  });
  print_value("process", "peak_rss_mb", peak_rss_kb() / 1024.0);
}

void trace(const Workload& w, double seconds) {
  warm_then_repeat(w, seconds, [&] {
    {
      Run run;
      run_once(w.spec, w.control, nullptr, false, &run);
      print_run("plain", w.spec, run, nullptr);
    }
    if (w.control == Control::kPhi) {
      Run run;
      run_once(w.spec, Control::kCubic, nullptr, false, &run);
      print_run("cubic", w.spec, run, nullptr);
    }
    Tracing tr;
    Run run;
    run_once(w.spec, w.control, &tr, false, &run);
    print_run("traced", w.spec, run, &tr);
  });
  if (w.spec.churn.enabled()) {
    // The session-trace generator as scenario set-up calls it.
    flow::SessionConfig scfg;
    scfg.arrivals_per_s = w.spec.churn.arrivals_per_s;
    scfg.horizon_s = util::to_seconds(w.spec.warmup + w.spec.duration);
    scfg.ranks = sim::endpoint_count(w.spec.topology);
    scfg.zipf_s = w.spec.churn.zipf_s;
    scfg.pareto_alpha = w.spec.churn.pareto_alpha;
    scfg.min_bytes = w.spec.churn.min_bytes;
    scfg.max_bytes = w.spec.churn.max_bytes;
    scfg.max_sessions = w.spec.churn.max_sessions;
    scfg.seed = util::derive_seed(w.spec.seed, core::kChurnStream);
    for (int i = 0; i < kTracegenCalls; ++i) {
      const std::uint64_t s = now_ns();
      flow::generate_sessions(scfg);
      print_value("tracegen", "ns", static_cast<double>(now_ns() - s));
    }
  }
}

void reference(const Workload& w) {
  core::ScenarioSpec serial = w.spec;
  serial.sharding.shards = 1;
  Run run;
  run_once(serial, w.control, nullptr, false, &run);
  print_run("serial", serial, run, nullptr);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const char* usage =
      "usage: perfbench_scenarios measure|trace|reference <workload> <seed> "
      "<seconds>\n";
  if (argc != 5) {
    std::fputs(usage, stderr);
    return 2;
  }
  const std::string mode = argv[1];
  std::uint64_t seed = 0;
  Workload w;
  char* end = nullptr;
  const double seconds = std::strtod(argv[4], &end);
  if ((mode != "measure" && mode != "trace" && mode != "reference") ||
      !parse_u64(argv[3], &seed) || !make_workload(argv[2], seed, &w) ||
      *end != '\0' || !(seconds > 0)) {
    std::fputs(usage, stderr);
    return 2;
  }
  // Keep freed memory in the heap instead of glibc's default of mapping
  // large blocks afresh and trimming the heap top: otherwise whether a
  // repeated set-up re-faults its buffers (2 ms or 4 ms on lot-sharded)
  // depends on glibc's adaptive threshold, and so varies by process.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  if (mode == "measure") {
    measure(w, seconds);
  } else if (mode == "trace") {
    trace(w, seconds);
  } else {
    reference(w);
  }
  return 0;
}

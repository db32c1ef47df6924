// ablation_staleness — why is Remy-Phi-practical worse than ideal? The
// context server only hears from connections at their boundaries
// (§2.2.2's minimal-overhead protocol), so its utilization estimate lags
// the live link. This ablation measures that staleness directly: RMSE
// and bias of the server's u against the link monitor's, across workloads
// whose connection grain ranges from chatty to sluggish.
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>

#include "bench_common.hpp"
#include "exec/pool.hpp"
#include "phi/client.hpp"
#include "phi/scenario.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

constexpr core::PathKey kPath = 11;

struct TrackingError {
  double rmse = 0;
  double bias = 0;    ///< mean (server - oracle)
  double oracle_mean = 0;
  std::size_t samples = 0;
};

TrackingError run_workload(double mean_on_bytes, double mean_off_s,
                           std::uint64_t seed, bool midstream = false) {
  core::ScenarioConfig cfg;
  cfg.net.pairs = 8;
  cfg.net.bottleneck_rate = 15.0 * util::kMbps;
  cfg.net.rtt = util::milliseconds(150);
  cfg.workload.mean_on_bytes = mean_on_bytes;
  cfg.workload.mean_off_s = mean_off_s;
  cfg.duration = util::seconds(90);
  cfg.seed = seed;

  core::ContextServer server;
  double se = 0, bias = 0, oracle_sum = 0;
  std::size_t n = 0;

  (void)core::run_scenario_with_setup(
      cfg, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](core::LiveScenario& live) -> core::AdvisorFactory {
        sim::Topology* d = live.topology;
        server.set_path_capacity(kPath, d->path_link(0).rate());
        sim::Scheduler* sched = &d->scheduler();
        // Periodic comparison of the two views, skipping warm-up.
        auto sample = std::make_shared<std::function<void()>>();
        *sample = [&, sched, d, sample] {
          const double oracle = d->path_monitor(0).recent_utilization();
          const double est = server.context(kPath).utilization;
          const double err = est - oracle;
          se += err * err;
          bias += err;
          oracle_sum += oracle;
          ++n;
          if (sched->now() < util::seconds(89))
            sched->schedule_in(util::seconds(1), *sample);
        };
        sched->schedule_at(util::seconds(10), *sample);

        return [&, sched,
                midstream](std::size_t i) -> std::unique_ptr<tcp::ConnectionAdvisor> {
          if (midstream) {
            return std::make_unique<core::MidStreamAdvisor>(
                *sched, server, kPath, i, util::seconds(2));
          }
          return std::make_unique<core::ReportOnlyAdvisor>(server, kPath, i);
        };
      });

  TrackingError out;
  out.samples = n;
  if (n > 0) {
    out.rmse = std::sqrt(se / static_cast<double>(n));
    out.bias = bias / static_cast<double>(n);
    out.oracle_mean = oracle_sum / static_cast<double>(n);
  }
  return out;
}

}  // namespace

int main() {
  bench::banner("Ablation: context-server staleness vs connection grain");
  const int runs = bench::scale_from_env() == bench::Scale::kFull ? 5 : 3;

  struct Case {
    const char* label;
    double on_bytes;
    double off_s;
    bool midstream;
  };
  const Case cases[] = {
      {"chatty (100 KB on / 0.3 s off)", 100e3, 0.3, false},
      {"paper Fig.2 (500 KB on / 2 s off)", 500e3, 2.0, false},
      {"sluggish (4 MB on / 6 s off)", 4e6, 6.0, false},
      {"sluggish + mid-stream reports (2 s)", 4e6, 6.0, true},
  };

  util::TextTable t;
  t.header({"Workload", "Oracle mean u", "Server RMSE", "Server bias"});
  std::vector<std::vector<std::string>> csv;
  bench::WallTimer timer;

  // Every (case, repetition) is an independent 90 s simulation — run the
  // whole matrix through one parallel batch, then aggregate per case in
  // the original loop order.
  struct Job {
    std::size_t case_idx;
    int rep;
  };
  std::vector<Job> batch;
  for (std::size_t c = 0; c < std::size(cases); ++c)
    for (int r = 0; r < runs; ++r) batch.push_back(Job{c, r});
  const auto errors = exec::parallel_map(
      batch,
      [&](const Job& j) {
        const auto& c = cases[j.case_idx];
        return run_workload(
            c.on_bytes, c.off_s,
            util::derive_seed(1700, static_cast<std::uint64_t>(j.rep)),
            c.midstream);
      },
      bench::jobs_from_env());

  for (std::size_t ci = 0; ci < std::size(cases); ++ci) {
    const auto& c = cases[ci];
    util::RunningStats rmse, bias, omean;
    for (int r = 0; r < runs; ++r) {
      const auto& e = errors[ci * static_cast<std::size_t>(runs) +
                             static_cast<std::size_t>(r)];
      rmse.add(e.rmse);
      bias.add(e.bias);
      omean.add(e.oracle_mean);
    }
    t.row({c.label, util::TextTable::num(omean.mean(), 2),
           util::TextTable::num(rmse.mean(), 3),
           util::TextTable::num(bias.mean(), 3)});
    csv.push_back({c.label, util::TextTable::num(omean.mean(), 3),
                   util::TextTable::num(rmse.mean(), 4),
                   util::TextTable::num(bias.mean(), 4)});
  }
  std::printf("\n%s", t.str().c_str());
  std::printf(
      "\nreading: the estimate tracks the oracle within a few points of\n"
      "utilization for connection-grained reporting; the error grows with\n"
      "connection length (long transfers report only at completion) —\n"
      "exactly the Remy-Phi practical-vs-ideal gap of Table 3. The last\n"
      "row applies the paper's remedy (§2.2.2: long connections report\n"
      "mid-stream) and recovers most of the accuracy.\n"
      "(%.1f s)\n",
      timer.seconds());
  bench::write_csv("ablation_staleness.csv",
                   {"workload", "oracle_u", "rmse", "bias"}, csv);
  bench::dump_metrics("ablation_staleness");
  return 0;
}

// ablation_congestion_manager — Phi vs its single-host ancestor. §3.3:
// "This is akin to past proposals such as TCP Session and the Congestion
// Manager except that the prioritization happens across hosts rather than
// within a single host."
//
// Workload: one host (4 flows) sends a steady stream of short transfers
// to the same destination across the dumbbell. Three policies:
//   * autonomous       — every connection slow-starts from scratch,
//   * congestion manager — the host's flows share one congestion state,
//   * Phi              — cross-host context server with tuned parameters
//                        (what CM becomes when "host" is a fleet).
// Metric: median short-transfer completion time and aggregate goodput.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "phi/client.hpp"
#include "phi/congestion_manager.hpp"
#include "phi/scenario.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

constexpr core::PathKey kPath = 4;

struct Outcome {
  double median_fct_s = 0;  ///< flow (connection) completion time
  double tput_bps = 0;
  std::int64_t conns = 0;
};

core::ScenarioConfig workload(std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.net.pairs = 4;
  cfg.net.bottleneck_rate = 15.0 * util::kMbps;
  cfg.net.rtt = util::milliseconds(150);
  cfg.workload.mean_on_bytes = 120e3;  // short transfers
  cfg.workload.mean_off_s = 0.4;
  cfg.duration = util::seconds(60);
  cfg.seed = seed;
  return cfg;
}

/// Collects per-connection completion times via an advisor.
struct FctCollector : tcp::ConnectionAdvisor {
  util::Samples* fct;
  core::CmFlowController* cm = nullptr;  // released on completion
  tcp::ConnectionAdvisor* inner = nullptr;
  void before_connection(tcp::TcpSender& s) override {
    if (inner != nullptr) inner->before_connection(s);
  }
  void after_connection(const tcp::ConnStats& st,
                        const tcp::TcpSender& s) override {
    fct->add(st.duration_s());
    if (cm != nullptr) cm->release();
    if (inner != nullptr) inner->after_connection(st, s);
  }
};

// Keeps chained Phi advisors alive for the duration of a run.
std::vector<std::unique_ptr<core::PhiCubicAdvisor>> phis_;

Outcome run_mode(int mode, std::uint64_t seed) {
  util::Samples fct;
  auto shared = std::make_shared<core::SharedCongestionState>(
      tcp::CubicParams{65536, 2, 0.2});
  core::ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  core::RecommendationTable table;
  for (int u = 0; u < 5; ++u)
    for (int n = 0; n < 6; ++n)
      table.set(core::ContextBucket{u, n},
                tcp::CubicParams{64, u >= 3 ? 8 : 32, 0.2});
  server.set_recommendations(std::move(table));

  std::vector<core::CmFlowController*> cms;
  const auto metrics = core::run_scenario_with_setup(
      workload(seed),
      [&](std::size_t i) -> std::unique_ptr<tcp::CongestionControl> {
        if (mode == 1) {
          auto cm = std::make_unique<core::CmFlowController>(shared, i);
          cms.push_back(cm.get());
          return cm;
        }
        return std::make_unique<tcp::Cubic>();
      },
      [&](core::LiveScenario& live) -> core::AdvisorFactory {
        sim::Scheduler* sched = &live.topology->scheduler();
        return [&, sched](std::size_t i)
                   -> std::unique_ptr<tcp::ConnectionAdvisor> {
          auto col = std::make_unique<FctCollector>();
          col->fct = &fct;
          if (mode == 1 && i < cms.size()) col->cm = cms[i];
          if (mode == 2) {
            // Phi lookups install tuned Cubic per connection; chain the
            // advisor so FCTs are still collected.
            auto phi = std::make_unique<core::PhiCubicAdvisor>(
                server, kPath, i, [sched] { return sched->now(); });
            col->inner = phi.get();
            phis_.push_back(std::move(phi));
          }
          return col;
        };
      });

  Outcome out;
  out.median_fct_s = fct.median();
  out.tput_bps = metrics.throughput_bps;
  out.conns = metrics.connections;
  return out;
}

}  // namespace

int main() {
  bench::banner("Ablation (3.3): Phi vs the single-host Congestion Manager");
  const int runs = bench::scale_from_env() == bench::Scale::kFull ? 6 : 3;

  const char* names[] = {"autonomous (per-conn slow start)",
                         "congestion manager (host-shared)",
                         "Phi (fleet-shared, tuned)"};
  bench::ResultTable t(
      "ablation_cm.csv",
      {"Policy", "Median FCT (s)", "Goodput (Mbps)", "Connections"},
      {"policy", "median_fct_s", "tput_bps"});
  bench::WallTimer timer;
  for (int mode = 0; mode < 3; ++mode) {
    util::RunningStats fct, tput, conns;
    for (int r = 0; r < runs; ++r) {
      phis_.clear();
      const auto o = run_mode(mode, util::derive_seed(1400, static_cast<std::uint64_t>(r)));
      fct.add(o.median_fct_s);
      tput.add(o.tput_bps);
      conns.add(static_cast<double>(o.conns));
    }
    t.row({names[mode], util::TextTable::num(fct.mean(), 2),
           util::TextTable::num(tput.mean() / 1e6, 2),
           util::TextTable::num(conns.mean(), 0)},
          {names[mode], util::TextTable::num(fct.mean(), 3),
           util::TextTable::num(tput.mean(), 0)});
  }
  t.print_and_dump();
  std::printf("\nreading: sharing congestion state shortens short-transfer\n"
              "completion times vs autonomous slow starts; Phi delivers the\n"
              "same inheritance effect across hosts (and composes with the\n"
              "sweep-tuned parameters).   (%.1f s)\n",
              timer.seconds());
  bench::dump_metrics("ablation_congestion_manager");
  return 0;
}

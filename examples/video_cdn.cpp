// video_cdn — a "five computers" day in the life: a CDN edge serving one
// metro over a shared egress path.
//
// The edge runs the full Phi loop end to end:
//   * it builds its recommendation table from a (small) online sweep,
//   * every new connection consults the context server for tuned Cubic
//     parameters and reports back its experience,
//   * completed-connection reports also feed a performance predictor that
//     answers "how long will this 25 MB episode chunk take?" and "is a
//     VoIP call advisable right now?" before the traffic starts.
//
// Build & run:  ./build/examples/video_cdn
#include <cstdio>
#include <memory>

#include "phi/client.hpp"
#include "phi/prediction.hpp"
#include "phi/sweep.hpp"

using namespace phi;

namespace {

core::ScenarioConfig metro_workload(std::size_t viewers,
                                    std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.net.pairs = viewers;
  cfg.net.bottleneck_rate = 25.0 * util::kMbps;  // egress to this metro
  cfg.net.rtt = util::milliseconds(80);
  cfg.workload.mean_on_bytes = 2e6;  // ~2 MB video segments
  cfg.workload.mean_off_s = 4.0;     // player buffer drain time
  cfg.duration = util::seconds(60);
  cfg.seed = seed;
  return cfg;
}

}  // namespace

int main() {
  constexpr core::PathKey kMetro = 0xBEEF;

  std::printf("== phase 1: offline sweep builds the recommendation table ==\n");
  core::SweepSpec spec;
  spec.ssthresh = {8, 32, 64, 256};
  spec.winit = {2, 16, 64};
  spec.betas = {0.2, 0.5};
  const auto workloads = std::vector<core::ScenarioSpec>{
      metro_workload(6, 100), metro_workload(12, 200)};
  const auto table =
      core::build_recommendation_table(workloads, spec, /*runs=*/2);
  for (const auto& [bucket, params] : table.entries())
    std::printf("  context (u%d,n%d) -> %s\n", bucket.first, bucket.second,
                params.str().c_str());

  std::printf("\n== phase 2: serve the evening peak with Phi ==\n");
  core::ContextServer server;
  server.set_path_capacity(kMetro, 25.0 * util::kMbps);
  server.set_recommendations(table);
  core::PerformancePredictor predictor;

  // Advisor that both tunes connections and feeds the predictor.
  struct CdnAdvisor : tcp::ConnectionAdvisor {
    core::PhiCubicAdvisor tuner;
    core::PerformancePredictor* predictor;
    core::PathKey path;
    CdnAdvisor(core::ContextServer& s, core::PathKey p, std::uint64_t id,
               std::function<util::Time()> clock,
               core::PerformancePredictor* pred)
        : tuner(s, p, id, std::move(clock)), predictor(pred), path(p) {}
    void before_connection(tcp::TcpSender& sender) override {
      tuner.before_connection(sender);
    }
    void after_connection(const tcp::ConnStats& st,
                          const tcp::TcpSender& sender) override {
      tuner.after_connection(st, sender);
      core::PerfObservation o;
      o.throughput_bps = st.throughput_bps();
      o.rtt_s = st.mean_rtt_s;
      o.loss_rate = st.retransmit_rate();
      o.jitter_ms = (st.mean_rtt_s - st.min_rtt_s) * 1e3;
      predictor->record(path, o);
    }
  };

  const auto peak = metro_workload(12, 777);
  const auto metrics = core::run_scenario_with_setup(
      peak, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](core::LiveScenario& live) -> core::AdvisorFactory {
        sim::Scheduler* sched = &live.topology->scheduler();
        return [&, sched](std::size_t i) {
          return std::make_unique<CdnAdvisor>(
              server, kMetro, i, [sched] { return sched->now(); },
              &predictor);
        };
      });

  std::printf("  served %lld video segments at %.2f Mbps aggregate, "
              "queueing delay %.1f ms, loss %.2f%%\n",
              static_cast<long long>(metrics.connections),
              metrics.throughput_bps / 1e6,
              metrics.mean_queue_delay_s * 1e3, metrics.loss_rate * 100);
  std::printf("  network weather per the context server: %s\n",
              server.context(kMetro).str().c_str());

  std::printf("\n== phase 3: answer user-facing questions from history ==\n");
  const auto pred = predictor.predict(kMetro);
  std::printf("  per-connection throughput: p10 %.2f / median %.2f / p90 "
              "%.2f Mbps (support %zu)\n",
              pred.p10_throughput_bps / 1e6,
              pred.expected_throughput_bps / 1e6,
              pred.p90_throughput_bps / 1e6, pred.support);
  std::printf("  predicted time for a 25 MB episode chunk: %.1f s\n",
              predictor.predicted_download_time_s(kMetro, 25'000'000));
  std::printf("  VoIP on this path: MOS %.2f -> %s\n",
              predictor.predicted_voip_mos(kMetro),
              predictor.voip_call_advisable(kMetro)
                  ? "go ahead"
                  : "warn the user first");
  return 0;
}

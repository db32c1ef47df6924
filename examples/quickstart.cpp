// quickstart — the 60-second tour of Phi.
//
// 1. Build the paper's dumbbell network (Figure 1).
// 2. Run 8 on/off TCP Cubic senders with default parameters: watch the
//    slow-start overshoot fill the buffer and drop packets.
// 3. Stand up a Phi context server with a tuned recommendation, wire each
//    sender's connection lifecycle to it (lookup -> tuned parameters ->
//    report), and run the same workload again.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>
#include <memory>

#include "phi/client.hpp"
#include "phi/scenario.hpp"

using namespace phi;

int main() {
  // --- the Figure-1 network and the paper's on/off workload ---
  core::ScenarioConfig cfg;
  cfg.net.pairs = 8;                               // 8 sender/receiver pairs
  cfg.net.bottleneck_rate = 15.0 * util::kMbps;    // shared bottleneck
  cfg.net.rtt = util::milliseconds(150);
  cfg.workload.mean_on_bytes = 500e3;              // exp(500 KB) transfers
  cfg.workload.mean_off_s = 2.0;                   // exp(2 s) idle gaps
  cfg.duration = util::seconds(60);
  cfg.seed = 1;

  // --- status quo: every sender autonomous, default Cubic ---
  const auto before = core::run_cubic_scenario(cfg, tcp::CubicParams{});
  std::printf("autonomous senders (default Cubic):\n"
              "  throughput %.2f Mbps | queueing delay %.1f ms | loss %.2f%%\n",
              before.throughput_bps / 1e6,
              before.mean_queue_delay_s * 1e3, before.loss_rate * 100);

  // --- the Phi way: a context server with a recommendation table ---
  const core::PathKey kPath = 1;  // "the /24 this workload targets"
  core::ContextServer server;
  server.set_path_capacity(kPath, cfg.net.bottleneck_rate);

  // In production the table comes from offline sweeps (see
  // bench/fig2_cubic_sweep); here we install the known-good setting for
  // this congestion level.
  core::RecommendationTable table;
  table.set(core::ContextBucket{3, 3}, tcp::CubicParams{64, 32, 0.2});
  server.set_recommendations(std::move(table));

  // Each sender looks up the server before a connection and reports
  // after it — two small messages per connection (the paper's §2.2.2).
  const auto after = core::run_scenario_with_setup(
      cfg, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](core::LiveScenario& live) -> core::AdvisorFactory {
        sim::Scheduler* sched = &live.topology->scheduler();
        return [&server, sched, kPath](std::size_t i)
                   -> std::unique_ptr<tcp::ConnectionAdvisor> {
          return std::make_unique<core::PhiCubicAdvisor>(
              server, kPath, i, [sched] { return sched->now(); });
        };
      });

  std::printf("\nPhi-coordinated senders (context-tuned Cubic):\n"
              "  throughput %.2f Mbps | queueing delay %.1f ms | loss %.2f%%\n",
              after.throughput_bps / 1e6, after.mean_queue_delay_s * 1e3,
              after.loss_rate * 100);
  std::printf("\ncontext server processed %llu lookups / %llu reports;"
              " final weather: %s\n",
              static_cast<unsigned long long>(server.lookups()),
              static_cast<unsigned long long>(server.reports()),
              server.context(kPath).str().c_str());
  std::printf("\nimprovement: throughput x%.2f, queueing delay x%.2f\n",
              after.throughput_bps / before.throughput_bps,
              before.mean_queue_delay_s > 0
                  ? after.mean_queue_delay_s / before.mean_queue_delay_s
                  : 0.0);
  return 0;
}

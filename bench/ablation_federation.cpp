// ablation_federation — §3.1 end to end: "even if such coordination is
// confined to the individual entities among the 'five computers' ...
// there would still be tangible benefits", and competing providers can
// federate a common weather barometer via secure aggregation without
// disclosing their traffic.
//
// Three providers (4 senders each) share one bottleneck. Modes:
//   0 autonomous     — all default Cubic, no servers.
//   1 isolated Phi   — each provider runs its own context server that only
//                      hears its own reports: it *under-estimates* the
//                      shared bottleneck's utilization by ~2/3.
//   2 federated Phi  — every 2 s the providers secure-aggregate their
//                      per-provider delivered rates; each server installs
//                      the fleet-wide utilization as its external view.
// Recommendations come from a shared u-keyed table (conservative when
// hot, front-loaded when cool), so better weather -> better parameters.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "phi/client.hpp"
#include "phi/secure_agg.hpp"
#include "phi/scenario.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace phi;

namespace {

constexpr core::PathKey kPath = 21;
constexpr std::size_t kProviders = 3;
constexpr std::size_t kPerProvider = 4;

core::RecommendationTable make_table() {
  core::RecommendationTable t;
  for (int n = 0; n < 8; ++n) {
    t.set(core::ContextBucket{0, n}, tcp::CubicParams{64, 64, 0.2});
    t.set(core::ContextBucket{1, n}, tcp::CubicParams{64, 32, 0.2});
    t.set(core::ContextBucket{2, n}, tcp::CubicParams{64, 16, 0.2});
    t.set(core::ContextBucket{3, n}, tcp::CubicParams{32, 8, 0.5});
    t.set(core::ContextBucket{4, n}, tcp::CubicParams{8, 2, 0.8});
  }
  return t;
}

struct Outcome {
  double tput = 0;
  double qdelay = 0;
  double loss = 0;
  double power_l = 0;
};

Outcome run_mode(int mode, std::uint64_t seed) {
  core::ScenarioConfig cfg;
  cfg.net.pairs = kProviders * kPerProvider;
  cfg.net.bottleneck_rate = 15.0 * util::kMbps;
  cfg.net.rtt = util::milliseconds(150);
  cfg.workload.mean_on_bytes = 500e3;
  cfg.workload.mean_off_s = 2.0;
  cfg.duration = util::seconds(60);
  cfg.seed = seed;

  // One context server per provider.
  std::vector<std::unique_ptr<core::ContextServer>> servers;
  for (std::size_t p = 0; p < kProviders; ++p) {
    servers.push_back(std::make_unique<core::ContextServer>());
    servers.back()->set_path_capacity(kPath, cfg.net.bottleneck_rate);
    if (mode >= 1) servers.back()->set_recommendations(make_table());
  }

  const auto m = core::run_scenario_with_setup(
      cfg, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](core::LiveScenario& live) -> core::AdvisorFactory {
        sim::Scheduler* sched = &live.topology->scheduler();

        if (mode == 2) {
          // Federation rounds: secure-aggregate each provider's local
          // utilization estimate; install the total on every server.
          const auto seeds =
              core::derive_pairwise_seeds(kProviders, 0xFED5EED);
          auto round = std::make_shared<std::uint64_t>(0);
          auto tick = std::make_shared<std::function<void()>>();
          *tick = [&, sched, seeds, round, tick] {
            core::SecureAggregator agg(kProviders);
            agg.begin_round(++*round);
            for (std::size_t p = 0; p < kProviders; ++p) {
              core::SecureParticipant part(p, seeds[p]);
              agg.submit(p, part.masked_share(
                                servers[p]->context(kPath).utilization,
                                *round));
            }
            const double fleet_u = std::min(*agg.sum(), 1.0);
            for (auto& s : servers)
              s->set_external_utilization(kPath, fleet_u, sched->now(),
                                          util::seconds(4));
            if (sched->now() < util::seconds(58))
              sched->schedule_in(util::seconds(2), *tick);
          };
          sched->schedule_in(util::seconds(2), *tick);
        }

        if (mode == 0) return nullptr;
        return [&, sched](std::size_t i)
                   -> std::unique_ptr<tcp::ConnectionAdvisor> {
          core::ContextServer& mine = *servers[i % kProviders];
          return std::make_unique<core::PhiCubicAdvisor>(
              mine, kPath, i, [sched] { return sched->now(); });
        };
      });

  Outcome out;
  out.tput = m.throughput_bps;
  out.qdelay = m.mean_queue_delay_s;
  out.loss = m.loss_rate;
  out.power_l = m.power_l();
  return out;
}

}  // namespace

int main() {
  bench::banner("Ablation (3.1): isolated vs federated cross-provider Phi");
  const int runs = bench::scale_from_env() == bench::Scale::kFull ? 8 : 4;

  const char* names[] = {"autonomous (no Phi)", "isolated Phi (per provider)",
                         "federated Phi (secure agg)"};
  util::TextTable t;
  t.header({"Mode", "Tput (Mbps)", "Qdelay (ms)", "Loss", "P_l (M)"});
  std::vector<std::vector<std::string>> csv;
  bench::WallTimer timer;
  double pl[3] = {0, 0, 0};
  for (int mode = 0; mode < 3; ++mode) {
    Outcome avg{};
    for (int r = 0; r < runs; ++r) {
      const auto o = run_mode(mode, util::derive_seed(2100, static_cast<std::uint64_t>(r)));
      avg.tput += o.tput / runs;
      avg.qdelay += o.qdelay / runs;
      avg.loss += o.loss / runs;
      avg.power_l += o.power_l / runs;
    }
    pl[mode] = avg.power_l;
    t.row({names[mode], util::TextTable::num(avg.tput / 1e6, 2),
           util::TextTable::num(avg.qdelay * 1e3, 1),
           util::TextTable::pct(avg.loss, 2),
           util::TextTable::num(avg.power_l / 1e6, 2)});
    csv.push_back({names[mode], util::TextTable::num(avg.tput, 0),
                   util::TextTable::num(avg.qdelay * 1e3, 2),
                   util::TextTable::num(avg.loss, 5),
                   util::TextTable::num(avg.power_l, 0)});
  }
  std::printf("\n%s", t.str().c_str());
  std::printf(
      "\nreading: isolated Phi already beats autonomous (x%.2f on P_l) —\n"
      "the paper's 'tangible benefits even without cross-entity sharing'.\n"
      "Federating the weather closes the blind spot (each provider only\n"
      "sees ~1/3 of the bottleneck's load) for another x%.2f, with nothing\n"
      "but masked ring elements crossing company lines.   (%.1f s)\n",
      pl[0] > 0 ? pl[1] / pl[0] : 0, pl[1] > 0 ? pl[2] / pl[1] : 0,
      timer.seconds());
  bench::write_csv("ablation_federation.csv",
                   {"mode", "tput_bps", "qdelay_ms", "loss", "power_l"},
                   csv);
  bench::dump_metrics("ablation_federation");
  return 0;
}

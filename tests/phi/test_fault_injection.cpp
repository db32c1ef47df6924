// Liveness leases + idempotent reports under injected control-plane
// faults: crashed senders must stop inflating n once their lease lapses,
// and retried reports must be absorbed exactly once. The scenario tests
// run the full FaultInjector harness on a live dumbbell.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "phi/fault_injection.hpp"
#include "phi/scenario.hpp"

namespace phi::core {
namespace {

constexpr PathKey kPath = 21;

Report mk_report(std::uint64_t sender, std::uint64_t epoch, util::Time s,
                 util::Time e, std::int64_t bytes) {
  Report r;
  r.path = kPath;
  r.sender_id = sender;
  r.epoch = epoch;
  r.started = s;
  r.ended = e;
  r.bytes = bytes;
  r.min_rtt_s = 0.15;
  r.mean_rtt_s = 0.18;
  return r;
}

/// Drives a server through `rounds` rounds of connection churn with 10
/// concurrent well-behaved senders; every 100th connection crashes after
/// lookup (1% crash rate) while `t < crash_until_round`. Returns the
/// competing_senders estimate sampled at the given round numbers.
std::vector<double> churn(ContextServer& server, util::Time& fake_now,
                          int rounds, int crash_until_round,
                          const std::vector<int>& probes) {
  constexpr int kSlots = 10;  // ground-truth concurrency
  std::vector<double> out;
  std::uint64_t conn = 0, crashed_id = 1'000'000, epoch = 0;
  std::vector<std::uint64_t> slot_epoch(kSlots, 0);
  std::vector<util::Time> slot_start(kSlots, 0);
  for (int t = 0; t < rounds; ++t) {
    for (int s = 0; s < kSlots; ++s) {
      fake_now = util::milliseconds(500) * t + util::milliseconds(10) * s;
      if (slot_epoch[s] != 0) {  // close the slot's previous connection
        server.report(mk_report(static_cast<std::uint64_t>(s),
                                slot_epoch[s], slot_start[s], fake_now,
                                50'000));
      }
      ++conn;
      if (conn % 100 == 50 && t < crash_until_round) {
        // This connection's sender crashes: lookup, then silence forever.
        (void)server.lookup(
            LookupRequest{kPath, ++crashed_id, fake_now, 1});
      }
      slot_epoch[s] = ++epoch;
      slot_start[s] = fake_now;
      (void)server.lookup(LookupRequest{
          kPath, static_cast<std::uint64_t>(s), fake_now, slot_epoch[s]});
    }
    if (std::find(probes.begin(), probes.end(), t) != probes.end())
      out.push_back(server.context(kPath).competing_senders);
  }
  return out;
}

TEST(Liveness, SeedBehaviorCrashedSendersLeakForever) {
  // Legacy configuration (leases disabled): every crashed connection
  // stays in the active set, so n grows without bound.
  util::Time fake_now = 0;
  ContextServerConfig cfg;
  cfg.lease = 0;
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);

  // 600 rounds x 10 conns = 6000 connections, 1% crash -> 60 zombies.
  const auto probe = churn(server, fake_now, 600, 600, {150, 599});
  ASSERT_EQ(probe.size(), 2u);
  EXPECT_GT(probe[0], 20.0);          // already >2x the true 10
  EXPECT_GT(probe[1], probe[0] + 30); // and still climbing
  EXPECT_EQ(server.expired_leases(), 0u);
}

TEST(Liveness, CompetingSendersRecoverWithinOneLease) {
  // Same churn, leases on (20 s = 40 rounds): zombies are bounded while
  // crashes happen and are fully swept within one lease after they stop.
  util::Time fake_now = 0;
  ContextServerConfig cfg;
  cfg.lease = util::seconds(20);
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);

  // Crashes stop at round 400 (t = 200 s); probe one lease (+ a round)
  // later at round 441 (t = 220.5 s) and at the end.
  const auto probe =
      churn(server, fake_now, 600, 400, {399, 441, 599});
  ASSERT_EQ(probe.size(), 3u);
  const double truth = 10.0;
  // While crashing: inflated by the zombies of the last lease only.
  EXPECT_LT(probe[0], truth + 6.0);
  // One lease after the crashes stop: within 10% of ground truth.
  EXPECT_NEAR(probe[1], truth, 0.1 * truth);
  EXPECT_NEAR(probe[2], truth, 0.1 * truth);
  EXPECT_GT(server.expired_leases(), 30u);  // the zombies were reaped
}

TEST(Liveness, GcEntryPointExpiresAcrossPaths) {
  util::Time fake_now = 0;
  ContextServerConfig cfg;
  cfg.lease = util::seconds(5);
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  (void)server.lookup(LookupRequest{1, 10, 0, 1});
  (void)server.lookup(LookupRequest{2, 20, 0, 1});
  (void)server.lookup(LookupRequest{2, 21, 0, 1});
  EXPECT_EQ(server.active_connections(1), 1u);
  EXPECT_EQ(server.active_connections(2), 2u);
  fake_now = util::seconds(6);
  EXPECT_EQ(server.gc(fake_now), 3u);
  EXPECT_EQ(server.active_connections(1), 0u);
  EXPECT_EQ(server.active_connections(2), 0u);
  EXPECT_EQ(server.expired_leases(), 3u);
}

TEST(Liveness, ProgressReportRenewsLease) {
  util::Time fake_now = 0;
  ContextServerConfig cfg;
  cfg.lease = util::seconds(10);
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  (void)server.lookup(LookupRequest{kPath, 1, 0, 1});

  // A long transfer: mid-stream progress at t=8 keeps it alive past the
  // original lease deadline (t=10)...
  fake_now = util::seconds(8);
  Report prog = mk_report(1, 1, 0, fake_now, 1'000'000);
  prog.kind = Report::Kind::kProgress;
  prog.seq = 1;
  server.report(prog);
  fake_now = util::seconds(15);
  EXPECT_EQ(server.active_connections(kPath), 1u);
  // ...but silence after that expires it at t=18.
  fake_now = util::seconds(19);
  EXPECT_EQ(server.active_connections(kPath), 0u);
}

TEST(Liveness, LookupReplyCarriesLease) {
  ContextServerConfig cfg;
  cfg.lease = util::seconds(7);
  ContextServer server(cfg);
  EXPECT_EQ(server.lookup(LookupRequest{kPath, 1, 0, 1}).lease,
            util::seconds(7));
}

TEST(Idempotency, DuplicateReportAbsorbedExactlyOnce) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  const Report r = mk_report(1, 1, 0, util::seconds(1), 1'875'000);
  server.report(r);
  const double u_once = server.context(kPath).utilization;
  const std::uint64_t v_once = server.state_version();
  EXPECT_GT(u_once, 0.0);

  server.report(r);  // the retry
  EXPECT_NEAR(server.context(kPath).utilization, u_once, 1e-12);
  EXPECT_EQ(server.state_version(), v_once);
  EXPECT_EQ(server.reports(), 1u);
  EXPECT_EQ(server.duplicate_reports(), 1u);
}

TEST(Idempotency, UnnumberedReportsKeepLegacySemantics) {
  // epoch == 0 means the sender does not number its reports; the server
  // must not guess and so absorbs both copies (the pre-lease behavior).
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  Report r = mk_report(1, 0, 0, util::seconds(1), 937'500);
  server.report(r);
  server.report(r);
  EXPECT_EQ(server.reports(), 2u);
  EXPECT_EQ(server.duplicate_reports(), 0u);
}

TEST(Idempotency, RecentlySeenSetIsBounded) {
  ContextServerConfig cfg;
  cfg.dedup_capacity = 4;
  ContextServer server(cfg);
  server.set_path_capacity(kPath, 15e6);
  for (std::uint64_t e = 1; e <= 5; ++e)
    server.report(mk_report(1, e, 0, util::seconds(1), 1000));
  // Epoch 1 has been evicted from the 4-entry set: a very late retry is
  // (acceptably) absorbed again rather than remembered forever.
  server.report(mk_report(1, 1, 0, util::seconds(1), 1000));
  EXPECT_EQ(server.reports(), 6u);
  EXPECT_EQ(server.duplicate_reports(), 0u);
  // A fresh duplicate is still caught.
  server.report(mk_report(1, 5, 0, util::seconds(1), 1000));
  EXPECT_EQ(server.duplicate_reports(), 1u);
}

TEST(FaultInjector, DropsAndCountsMessages) {
  sim::Scheduler sched;
  ContextServer server;
  FaultConfig fc;
  fc.drop_lookup = 1.0;
  fc.drop_report = 1.0;
  FaultInjector inj(sched, server, fc);
  EXPECT_FALSE(inj.lookup(LookupRequest{kPath, 1, 0, 1}).has_value());
  inj.report(mk_report(1, 1, 0, util::seconds(1), 1000));
  EXPECT_EQ(server.lookups(), 0u);
  EXPECT_EQ(server.reports(), 0u);
  EXPECT_EQ(inj.lookups_dropped(), 1u);
  EXPECT_EQ(inj.reports_dropped(), 1u);
}

TEST(FaultInjector, DuplicatedReportReachesServerTwiceAbsorbedOnce) {
  sim::Scheduler sched;
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  FaultConfig fc;
  fc.duplicate_report = 1.0;
  FaultInjector inj(sched, server, fc);
  inj.report(mk_report(1, 1, 0, util::seconds(1), 1'875'000));
  sched.run_until(util::seconds(2));
  EXPECT_EQ(inj.reports_duplicated(), 1u);
  EXPECT_EQ(server.reports(), 1u);            // absorbed once
  EXPECT_EQ(server.duplicate_reports(), 1u);  // the retry was detected
}

TEST(FaultInjector, DelayedReportArrivesViaScheduler) {
  sim::Scheduler sched;
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  FaultConfig fc;
  fc.delay_report = 1.0;
  fc.delay_min = util::milliseconds(200);
  fc.delay_max = util::milliseconds(400);
  FaultInjector inj(sched, server, fc);
  inj.report(mk_report(1, 1, 0, util::milliseconds(100), 1000));
  EXPECT_EQ(server.reports(), 0u);  // still in flight
  sched.run_until(util::milliseconds(150));
  EXPECT_EQ(server.reports(), 0u);
  sched.run_until(util::seconds(1));
  EXPECT_EQ(server.reports(), 1u);
  EXPECT_EQ(inj.reports_delayed(), 1u);
}

TEST(FaultInjector, ReorderedReportDeliveredAfterSuccessor) {
  sim::Scheduler sched;
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  FaultConfig fc;
  fc.reorder_report = 1.0;
  FaultInjector inj(sched, server, fc);
  inj.report(mk_report(1, 1, 0, util::seconds(1), 111));  // held back
  EXPECT_EQ(server.reports(), 0u);
  inj.report(mk_report(2, 1, 0, util::seconds(1), 222));  // releases it
  EXPECT_EQ(server.reports(), 2u);
  EXPECT_EQ(inj.reports_reordered(), 1u);
  // The delivery window records the swapped arrival order: 222 first.
  const std::string blob = server.serialize_state();
  EXPECT_LT(blob.find(" 222\n"), blob.find(" 111\n"));
  // flush() releases a report held at end of run.
  inj.report(mk_report(3, 1, 0, util::seconds(1), 333));
  EXPECT_EQ(server.reports(), 2u);
  inj.flush();
  EXPECT_EQ(server.reports(), 3u);
}

/// Full-stack acceptance: a dumbbell scenario where 2% of connections
/// crash (lookup, then silence) until t=45 s. With leases, the server's
/// open-connection count re-converges to the live ground truth within one
/// lease of the last crash; with leases disabled it stays inflated by
/// every crash that ever happened.
double scenario_gap_after_crashes(util::Duration lease,
                                  std::uint64_t* crashes_out) {
  ScenarioConfig cfg;
  cfg.net.pairs = 8;
  cfg.workload.mean_on_bytes = 60e3;
  cfg.workload.mean_off_s = 0.4;
  cfg.duration = util::seconds(90);
  cfg.seed = 11;

  ContextServerConfig scfg;
  scfg.lease = lease;
  std::unique_ptr<ContextServer> server;
  std::unique_ptr<FaultInjector> inj;
  util::RunningStats gap;  // |server active - ground truth| after recovery
  std::uint64_t crashes = 0;
  std::function<void()> probe;  // helper-scope: outlives the run, no cycle

  (void)run_scenario_with_setup(
      cfg, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
      [&](LiveScenario& live) -> AdvisorFactory {
        sim::Scheduler* sched = &live.topology->scheduler();
        server = std::make_unique<ContextServer>(
            scfg, [sched] { return sched->now(); });
        server->set_path_capacity(kPath, live.topology->path_link(0).rate());
        FaultConfig fc;
        fc.crash = 0.02;
        fc.crash_until = util::seconds(45);
        fc.seed = 99;
        inj = std::make_unique<FaultInjector>(*sched, *server, fc);

        // Probe |active - truth| from one lease past the last crash.
        LiveScenario* lv = &live;  // alive for the whole run
        probe = [&, sched, lv] {
          const double truth = lv->active_count();
          const double est =
              static_cast<double>(server->active_connections(kPath));
          gap.add(std::abs(est - truth));
          if (sched->now() < util::seconds(89))
            sched->schedule_in(util::seconds(1), [&probe] { probe(); });
        };
        sched->schedule_at(util::seconds(45) + scfg.lease +
                               util::seconds(1),
                           [&probe] { probe(); });

        return [&](std::size_t i) {
          return std::make_unique<FaultyPhiAdvisor>(*inj, kPath, i);
        };
      });
  crashes = inj->crashes();
  if (crashes_out != nullptr) *crashes_out = crashes;
  EXPECT_GT(crashes, 0u);
  return gap.mean();
}

TEST(FaultInjection, ScenarioRecoversWithinOneLease) {
  std::uint64_t crashes_leased = 0, crashes_legacy = 0;
  const double gap_leased =
      scenario_gap_after_crashes(util::seconds(10), &crashes_leased);
  const double gap_legacy =
      scenario_gap_after_crashes(0, &crashes_legacy);
  // Identical seeds -> identical workload and crash schedule.
  EXPECT_EQ(crashes_leased, crashes_legacy);
  // Legacy: every crashed connection still counted, so the mean gap is at
  // least ~the number of crashes. Leased: zombies swept, small residual
  // (timing skew between "app is on" and "server heard the lookup").
  EXPECT_GT(gap_legacy, static_cast<double>(crashes_legacy) * 0.7);
  EXPECT_LT(gap_leased, 2.0);
  EXPECT_LT(gap_leased, gap_legacy * 0.35);
}

TEST(FaultInjection, ScenarioDuplicatesDoNotInflateUtilization) {
  // Every report duplicated: with idempotency the estimate must match a
  // fault-free run exactly (same seeds -> same traffic).
  auto run = [](double dup_rate, std::size_t dedup_capacity) {
    ScenarioConfig cfg;
    cfg.net.pairs = 6;
    cfg.workload.mean_on_bytes = 80e3;
    cfg.workload.mean_off_s = 0.5;
    cfg.duration = util::seconds(40);
    cfg.seed = 5;
    ContextServerConfig scfg;
    scfg.dedup_capacity = dedup_capacity;
    std::unique_ptr<ContextServer> server;
    std::unique_ptr<FaultInjector> inj;
    double u_end = 0;
    (void)run_scenario_with_setup(
        cfg, [](std::size_t) { return std::make_unique<tcp::Cubic>(); },
        [&](LiveScenario& live) -> AdvisorFactory {
          sim::Scheduler* sched = &live.topology->scheduler();
          server = std::make_unique<ContextServer>(
              scfg, [sched] { return sched->now(); });
          server->set_path_capacity(kPath,
                                    live.topology->path_link(0).rate());
          FaultConfig fc;
          fc.duplicate_report = dup_rate;
          fc.seed = 3;
          inj = std::make_unique<FaultInjector>(*sched, *server, fc);
          sched->schedule_at(util::seconds(39), [&] {
            u_end = server->context(kPath).utilization;
          });
          return [&](std::size_t i) {
            return std::make_unique<FaultyPhiAdvisor>(*inj, kPath, i);
          };
        });
    return u_end;
  };
  const double u_clean = run(0.0, 4096);
  const double u_dup = run(1.0, 4096);
  const double u_dup_nodedup = run(1.0, 0);
  EXPECT_NEAR(u_dup, u_clean, 1e-12);       // retries absorbed exactly once
  EXPECT_GT(u_dup_nodedup, u_clean * 1.5);  // the seed bug, reproduced
}

}  // namespace
}  // namespace phi::core

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "phi/context_server.hpp"
#include "telemetry/telemetry.hpp"

namespace phi::core {
namespace {

constexpr PathKey kPath = 42;

Report make_report(std::uint64_t sender, util::Time start, util::Time end,
                   std::int64_t bytes, double min_rtt = 0.15,
                   double mean_rtt = 0.18, double rtx = 0.0) {
  Report r;
  r.path = kPath;
  r.sender_id = sender;
  r.started = start;
  r.ended = end;
  r.bytes = bytes;
  r.min_rtt_s = min_rtt;
  r.mean_rtt_s = mean_rtt;
  r.retransmit_rate = rtx;
  return r;
}

TEST(ContextServer, UnknownPathIsZeroContext) {
  ContextServer server;
  const auto ctx = server.context(123456);
  EXPECT_EQ(ctx.utilization, 0.0);
  EXPECT_EQ(ctx.competing_senders, 0.0);
}

TEST(ContextServer, UtilizationConvergesToOfferedLoad) {
  // 15 Mbps path, reports covering the window at ~half capacity.
  ContextServerConfig cfg;
  cfg.window = util::seconds(10);
  ContextServer server(cfg);
  server.set_path_capacity(kPath, 15e6);

  // 10 seconds of transfers, each 1 s long delivering 0.9375 MB
  // (7.5 Mbps each second).
  for (int s = 0; s < 10; ++s) {
    server.report(make_report(1, util::seconds(s), util::seconds(s + 1),
                              937500));
  }
  const auto ctx = server.context(kPath);
  EXPECT_NEAR(ctx.utilization, 0.5, 0.06);
}

TEST(ContextServer, UtilizationWindowExpires) {
  ContextServerConfig cfg;
  cfg.window = util::seconds(10);
  ContextServer server(cfg);
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, 0, util::seconds(1), 1875000));  // 15 Mb
  // A lookup far in the future sees an empty window.
  (void)server.lookup(LookupRequest{kPath, 9, util::seconds(100)});
  EXPECT_NEAR(server.context(kPath).utilization, 0.0, 1e-9);
}

TEST(ContextServer, CountsActiveSenders) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  for (std::uint64_t s = 0; s < 5; ++s)
    (void)server.lookup(LookupRequest{kPath, s, util::seconds(1)});
  EXPECT_GE(server.context(kPath).competing_senders, 5.0);
  // Three finish.
  for (std::uint64_t s = 0; s < 3; ++s)
    server.report(make_report(s, util::seconds(1), util::seconds(2), 1000));
  EXPECT_GE(server.context(kPath).competing_senders, 2.0);
  EXPECT_LT(server.context(kPath).competing_senders, 5.0);
}

TEST(ContextServer, QueueDelayFromRttSpread) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  // min 150 ms, mean 190 ms -> q estimate ~40 ms.
  for (int i = 0; i < 20; ++i)
    server.report(make_report(1, util::seconds(i), util::seconds(i + 1),
                              10000, 0.150, 0.190));
  EXPECT_NEAR(server.context(kPath).queue_delay_s, 0.040, 0.005);
}

TEST(ContextServer, MinRttIsGlobalAcrossReports) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, 0, util::seconds(1), 1000, 0.150, 0.150));
  // Later connections never saw the true floor; spread must use the
  // global minimum (0.15), so q = 0.25 - 0.15 = 0.1.
  for (int i = 1; i < 30; ++i)
    server.report(make_report(1, util::seconds(i), util::seconds(i + 1),
                              1000, 0.25, 0.25));
  EXPECT_NEAR(server.context(kPath).queue_delay_s, 0.1, 0.02);
}

TEST(ContextServer, LossEwma) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  for (int i = 0; i < 30; ++i)
    server.report(make_report(1, util::seconds(i), util::seconds(i + 1),
                              1000, 0.15, 0.18, 0.04));
  EXPECT_NEAR(server.context(kPath).loss_rate, 0.04, 0.005);
}

TEST(ContextServer, RecommendationServedByBucket) {
  ContextServer server;
  server.set_path_capacity(kPath, 15e6);
  RecommendationTable table;
  table.set(ContextBucket{0, 0}, tcp::CubicParams{256, 64, 0.2});
  server.set_recommendations(std::move(table));

  const auto reply = server.lookup(LookupRequest{kPath, 1, 0});
  ASSERT_TRUE(reply.has_recommendation);
  EXPECT_EQ(reply.recommended.initial_ssthresh, 256);
  EXPECT_EQ(reply.recommended.window_init, 64);
}

TEST(ContextServer, NoRecommendationWhenTableEmpty) {
  ContextServer server;
  const auto reply = server.lookup(LookupRequest{kPath, 1, 0});
  EXPECT_FALSE(reply.has_recommendation);
}

TEST(ContextServer, VersionBumpsOnReports) {
  ContextServer server;
  EXPECT_EQ(server.state_version(), 0u);
  server.report(make_report(1, 0, util::seconds(1), 1000));
  server.report(make_report(2, 0, util::seconds(1), 1000));
  EXPECT_EQ(server.state_version(), 2u);
  EXPECT_EQ(server.reports(), 2u);
  (void)server.lookup(LookupRequest{kPath, 3, 0});
  EXPECT_EQ(server.lookups(), 1u);
}

TEST(ContextServer, CapacityFallbackFromObservedRate) {
  ContextServer server;  // no capacity configured
  // 8 Mbps delivery observed -> becomes the capacity proxy; subsequent
  // identical load reads as ~full utilization.
  for (int i = 0; i < 10; ++i)
    server.report(make_report(1, util::seconds(i), util::seconds(i + 1),
                              1'000'000));
  EXPECT_GT(server.context(kPath).utilization, 0.5);
}

TEST(ContextServer, PathsAreIsolated) {
  ContextServer server;
  server.set_path_capacity(1, 15e6);
  server.set_path_capacity(2, 15e6);
  Report r = make_report(1, 0, util::seconds(1), 1875000);
  r.path = 1;
  server.report(r);
  EXPECT_GT(server.context(1).utilization, 0.0);
  EXPECT_EQ(server.context(2).utilization, 0.0);
}

TEST(ContextServer, ExternalUtilizationLiftsLocalView) {
  util::Time fake_now = 0;
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  // Local estimate ~0.25; federation says the bottleneck is at 0.8.
  fake_now = util::seconds(10);
  server.report(make_report(1, util::seconds(9), util::seconds(10), 4687500));
  const double local = server.context(kPath).utilization;
  EXPECT_LT(local, 0.5);
  server.set_external_utilization(kPath, 0.8, fake_now, util::seconds(5));
  EXPECT_NEAR(server.context(kPath).utilization, 0.8, 1e-9);
  // The external view expires; the local one remains.
  fake_now = util::seconds(16);
  EXPECT_LT(server.context(kPath).utilization, 0.5);
}

TEST(ContextServer, ExternalUtilizationNeverLowersLocal) {
  util::Time fake_now = util::seconds(10);
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  // Local already hot (~1.0); a stale-low federated view must not mask it.
  for (int i = 0; i < 10; ++i)
    server.report(make_report(1, util::seconds(i), util::seconds(i + 1),
                              1875000));
  server.set_external_utilization(kPath, 0.1, fake_now, util::seconds(5));
  EXPECT_GT(server.context(kPath).utilization, 0.5);
}

TEST(ContextServer, DefaultLeaseIsTwiceWindow) {
  ContextServerConfig cfg;
  EXPECT_EQ(cfg.lease, 2 * cfg.window);
}

TEST(ContextServer, CrashedSenderExpiresAfterLease) {
  util::Time fake_now = 0;
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  (void)server.lookup(LookupRequest{kPath, 1, 0});
  EXPECT_GE(server.context(kPath).competing_senders, 1.0);
  // The sender dies without reporting; the default 20-s lease reaps it.
  fake_now = util::seconds(21);
  EXPECT_EQ(server.context(kPath).competing_senders, 0.0);
  EXPECT_EQ(server.expired_leases(), 1u);
}

TEST(ContextServer, ZeroLeaseDisablesLivenessSweep) {
  util::Time fake_now = 0;
  ContextServerConfig cfg;
  cfg.lease = 0;
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  (void)server.lookup(LookupRequest{kPath, 1, 0});
  fake_now = util::seconds(100'000);
  EXPECT_GE(server.context(kPath).competing_senders, 1.0);
  EXPECT_EQ(server.expired_leases(), 0u);
}

TEST(ContextServer, UtilizationCountsPartialOverlapAtCutoff) {
  // A 20-s transfer observed at t=20 with a 10-s window: only its second
  // half overlaps, so exactly half the bytes count. 18.75 MB over 20 s on
  // a 15 Mbps path -> u = (18.75e6 * 8 / 2) / (15e6 * 10) = 0.5.
  util::Time fake_now = util::seconds(20);
  ContextServerConfig cfg;
  cfg.window = util::seconds(10);
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, 0, util::seconds(20), 18'750'000));
  EXPECT_NEAR(server.context(kPath).utilization, 0.5, 1e-9);
}

TEST(ContextServer, ZeroDurationDeliveryContributesNothing) {
  // An instantaneous report: the span clamps to 1 ns and the in-window
  // overlap fraction is 0 — it must neither divide by zero nor count.
  util::Time fake_now = util::seconds(1);
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, util::seconds(1), util::seconds(1),
                            5'000'000));
  EXPECT_EQ(server.context(kPath).utilization, 0.0);
}

TEST(ContextServer, ZeroDurationDeliveryDoesNotSetCapacityFallback) {
  ContextServer server;  // no capacity configured
  server.report(make_report(1, util::seconds(1), util::seconds(1),
                            5'000'000));
  EXPECT_EQ(server.context(kPath).utilization, 0.0);
  // The fallback comes only from a delivery with a real duration: 1 MB/s
  // -> capacity proxy 8 Mbps; over the 10-s window u = 8e6/(8e6*10) = 0.1.
  server.report(make_report(1, util::seconds(1), util::seconds(2),
                            1'000'000));
  EXPECT_NEAR(server.context(kPath).utilization, 0.1, 1e-9);
}

TEST(ContextServer, DeliveryEndingExactlyAtCutoffCountsZero) {
  // end == cutoff survives expiry (strict <) but its overlap is empty.
  util::Time fake_now = util::seconds(20);
  ContextServerConfig cfg;
  cfg.window = util::seconds(10);
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, util::seconds(5), util::seconds(10),
                            1'875'000));
  EXPECT_EQ(server.context(kPath).utilization, 0.0);
}

TEST(ContextServer, ClockFunctionDrivesExpiry) {
  util::Time fake_now = 0;
  ContextServerConfig cfg;
  cfg.window = util::seconds(5);
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 15e6);
  server.report(make_report(1, 0, util::seconds(1), 1875000));
  fake_now = util::seconds(2);
  EXPECT_GT(server.context(kPath).utilization, 0.0);
  fake_now = util::seconds(60);
  EXPECT_EQ(server.context(kPath).utilization, 0.0);
}

// ---------------------------------------------------------------------------
// Lease-gate and utilization-memo equivalence. The memoized server must be
// observationally identical to the one that rescanned every open
// connection and every delivery on each message — that is what keeps
// every Phi artifact byte-identical across the optimization. The fuzz
// below drives both against seeded random interleavings and compares
// every query bit for bit after every step (same spirit as
// tcp/test_scoreboard.cpp).

// Verbatim port of the pre-memo ContextServer's state and message
// handling (telemetry and recommendations stripped): every lookup sweeps
// all leases, and context() re-sums the whole delivery window. Duplicate
// detection keys on the exact report identity, as the server's does.
class ReferenceServer {
 public:
  ReferenceServer(ContextServerConfig cfg, std::function<util::Time()> clock)
      : cfg_(cfg), clock_(std::move(clock)) {}

  void set_path_capacity(PathKey path, util::Rate bps) {
    paths_[path].capacity = bps;
  }

  void set_external_utilization(PathKey path, double u, util::Time at,
                                util::Duration ttl) {
    PathState& st = paths_[path];
    st.external_u = std::clamp(u, 0.0, 1.0);
    st.external_at = at;
    st.external_ttl = ttl;
  }

  CongestionContext lookup(const LookupRequest& req) {
    last_message_at_ = std::max(last_message_at_, req.at);
    PathState& st = paths_[req.path];
    const util::Time now = now_or(req.at);
    sweep_leases(st, now);
    st.active[req.sender_id] = lease_deadline(now);
    st.senders.add(static_cast<double>(st.active.size()));
    return context(req.path);
  }

  void report(const Report& r) {
    if (already_absorbed(r)) {
      ++duplicate_reports_;
      return;
    }
    ++reports_;
    ++version_;
    last_message_at_ = std::max(last_message_at_, r.ended);
    PathState& st = paths_[r.path];
    const util::Time now = now_or(r.ended);
    sweep_leases(st, now);
    if (r.kind == Report::Kind::kFinal) {
      st.active.erase(r.sender_id);
    } else {
      st.active[r.sender_id] = lease_deadline(now);
    }
    st.window.push_back(Delivery{r.started, r.ended, r.bytes});
    expire(st, now);
    if (r.min_rtt_s > 0.0) {
      if (!st.has_min_rtt || r.min_rtt_s < st.min_rtt_s) {
        st.min_rtt_s = r.min_rtt_s;
        st.has_min_rtt = true;
      }
    }
    if (st.has_min_rtt && r.mean_rtt_s > 0.0) {
      st.queue_delay.add(std::max(r.mean_rtt_s - st.min_rtt_s, 0.0));
    }
    st.loss.add(r.retransmit_rate);
    if (st.capacity <= 0.0 && r.duration_s() > 0.0) {
      st.capacity = std::max(
          st.capacity, static_cast<double>(r.bytes) * 8.0 / r.duration_s());
    }
  }

  std::size_t gc(util::Time now) {
    std::size_t expired = 0;
    for (auto& [key, st] : paths_) expired += sweep_leases(st, now);
    return expired;
  }

  std::size_t active_connections(PathKey path) {
    auto it = paths_.find(path);
    if (it == paths_.end()) return 0;
    sweep_leases(it->second, now_or(last_message_at_));
    return it->second.active.size();
  }

  CongestionContext context(PathKey path) {
    auto it = paths_.find(path);
    CongestionContext ctx;
    if (it == paths_.end()) return ctx;
    PathState& st = it->second;
    const util::Time now = now_or(last_message_at_);
    expire(st, now);
    sweep_leases(st, now);
    ctx.utilization = utilization_of(st, now);
    if (st.external_u >= 0.0 && now - st.external_at <= st.external_ttl) {
      ctx.utilization = std::max(ctx.utilization, st.external_u);
    }
    ctx.queue_delay_s = st.queue_delay.value();
    ctx.competing_senders =
        std::max<double>(static_cast<double>(st.active.size()),
                         st.senders.value());
    ctx.loss_rate = st.loss.value();
    return ctx;
  }

  bool restore_state(const std::string& text) {
    std::istringstream in(text);
    std::string header;
    if (!std::getline(in, header)) return false;
    int fmt = 0;
    if (header == "phi-context-server-state v2") {
      fmt = 2;
    } else if (header == "phi-context-server-state v1") {
      fmt = 1;
    } else {
      return false;
    }
    decltype(paths_) restored;
    util::Time last_at = 0;
    std::uint64_t version = 0;
    if (!(in >> last_at >> version)) return false;
    std::string tag;
    while (in >> tag) {
      if (tag != "path") return false;
      PathKey key = 0;
      int has_min = 0, qd_init = 0, loss_init = 0, senders_init = 0;
      double min_rtt = 0, qd = 0, loss = 0, senders = 0;
      double ext_u = -1.0;
      util::Time ext_at = 0;
      util::Duration ext_ttl = 0;
      std::size_t n_active = 0, n_window = 0;
      PathState st;
      if (!(in >> key >> st.capacity >> has_min >> min_rtt >> qd_init >>
            qd >> loss_init >> loss >> senders_init >> senders))
        return false;
      if (fmt >= 2 && !(in >> ext_u >> ext_at >> ext_ttl)) return false;
      if (!(in >> n_active >> n_window)) return false;
      st.has_min_rtt = has_min != 0;
      st.min_rtt_s = min_rtt;
      if (qd_init != 0) st.queue_delay.force(qd);
      if (loss_init != 0) st.loss.force(loss);
      if (senders_init != 0) st.senders.force(senders);
      st.external_u = ext_u;
      st.external_at = ext_at;
      st.external_ttl = ext_ttl;
      if (!(in >> tag) || tag != "active") return false;
      for (std::size_t i = 0; i < n_active; ++i) {
        std::uint64_t id = 0;
        util::Time deadline = lease_deadline(last_at);
        if (!(in >> id)) return false;
        if (fmt >= 2 && !(in >> deadline)) return false;
        st.active[id] = deadline;
      }
      for (std::size_t i = 0; i < n_window; ++i) {
        Delivery d{};
        if (!(in >> tag) || tag != "delivery" ||
            !(in >> d.start >> d.end >> d.bytes))
          return false;
        st.window.push_back(d);
      }
      restored.emplace(key, std::move(st));
    }
    paths_ = std::move(restored);
    last_message_at_ = last_at;
    version_ = version;
    return true;
  }

  std::uint64_t reports() const { return reports_; }
  std::uint64_t state_version() const { return version_; }
  std::uint64_t expired_leases() const { return expired_leases_; }
  std::uint64_t duplicate_reports() const { return duplicate_reports_; }

 private:
  struct Delivery {
    util::Time start;
    util::Time end;
    std::int64_t bytes;
  };
  struct PathState {
    util::Rate capacity = 0;
    std::deque<Delivery> window;
    std::unordered_map<std::uint64_t, util::Time> active;
    util::Ewma queue_delay{0.3};
    util::Ewma loss{0.3};
    util::Ewma senders{0.3};
    double min_rtt_s = 0.0;
    bool has_min_rtt = false;
    double external_u = -1.0;
    util::Time external_at = 0;
    util::Duration external_ttl = 0;
  };

  util::Time now_or(util::Time fallback) const {
    return clock_ ? clock_() : fallback;
  }
  util::Time lease_deadline(util::Time now) const {
    return cfg_.lease > 0 ? now + cfg_.lease
                          : std::numeric_limits<util::Time>::max();
  }
  void expire(PathState& st, util::Time now) const {
    const util::Time cutoff = now - cfg_.window;
    while (!st.window.empty() && st.window.front().end < cutoff)
      st.window.pop_front();
  }
  std::size_t sweep_leases(PathState& st, util::Time now) {
    if (cfg_.lease <= 0) return 0;
    std::size_t expired = 0;
    for (auto it = st.active.begin(); it != st.active.end();) {
      if (it->second < now) {
        it = st.active.erase(it);
        ++expired;
      } else {
        ++it;
      }
    }
    if (expired > 0) {
      st.senders.force(static_cast<double>(st.active.size()));
      expired_leases_ += expired;
    }
    return expired;
  }
  double utilization_of(const PathState& st, util::Time now) const {
    if (st.capacity <= 0.0 || st.window.empty()) return 0.0;
    const util::Time cutoff = now - cfg_.window;
    double bits = 0.0;
    for (const auto& d : st.window) {
      const util::Time span = std::max<util::Time>(d.end - d.start, 1);
      const util::Time from = std::max(d.start, cutoff);
      const double frac =
          static_cast<double>(d.end - from) / static_cast<double>(span);
      bits += static_cast<double>(d.bytes) * 8.0 * std::clamp(frac, 0.0, 1.0);
    }
    const double u = bits / (st.capacity * util::to_seconds(cfg_.window));
    return std::clamp(u, 0.0, 1.0);
  }
  bool already_absorbed(const Report& r) {
    if (cfg_.dedup_capacity == 0 || !r.has_report_id()) return false;
    const ReportId key = r.report_id();
    if (!seen_reports_.insert(key).second) return true;
    seen_order_.push_back(key);
    if (seen_order_.size() > cfg_.dedup_capacity) {
      seen_reports_.erase(seen_order_.front());
      seen_order_.pop_front();
    }
    return false;
  }

  ContextServerConfig cfg_;
  std::function<util::Time()> clock_;
  std::unordered_map<PathKey, PathState> paths_;
  std::unordered_set<ReportId, ReportIdHash> seen_reports_;
  std::deque<ReportId> seen_order_;
  std::uint64_t reports_ = 0;
  std::uint64_t version_ = 0;
  std::uint64_t expired_leases_ = 0;
  std::uint64_t duplicate_reports_ = 0;
  util::Time last_message_at_ = 0;
};

/// Rewrites serialize_state() (v2) output in the legacy v1 format: no
/// federated fields on the path line and bare ids on the active line.
std::string to_v1(const std::string& v2) {
  std::istringstream in(v2);
  std::ostringstream out;
  std::string line;
  std::getline(in, line);
  out << "phi-context-server-state v1\n";
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string> tok;
    for (std::string t; fields >> t;) tok.push_back(t);
    std::vector<std::string> keep;
    if (!tok.empty() && tok[0] == "path") {
      for (std::size_t i = 0; i < tok.size(); ++i)
        if (i < 11 || i > 13) keep.push_back(tok[i]);  // drop ext u/at/ttl
    } else if (!tok.empty() && tok[0] == "active") {
      keep.push_back(tok[0]);
      for (std::size_t i = 1; i < tok.size(); i += 2) keep.push_back(tok[i]);
    } else {
      keep = tok;
    }
    for (std::size_t i = 0; i < keep.size(); ++i)
      out << (i ? " " : "") << keep[i];
    out << '\n';
  }
  return out.str();
}

void expect_same_context(const CongestionContext& got,
                         const CongestionContext& want, int step,
                         PathKey path) {
  // Bit-exact: EXPECT_EQ on doubles compares with ==.
  EXPECT_EQ(got.utilization, want.utilization)
      << "step " << step << " path " << path;
  EXPECT_EQ(got.queue_delay_s, want.queue_delay_s)
      << "step " << step << " path " << path;
  EXPECT_EQ(got.competing_senders, want.competing_senders)
      << "step " << step << " path " << path;
  EXPECT_EQ(got.loss_rate, want.loss_rate)
      << "step " << step << " path " << path;
}

/// One fuzz configuration: the seed picks the lease (default 20 s, 3 s —
/// shorter than the 10-s window — or 0, liveness off) and whether the
/// server runs on a clock or on message timestamps.
class ContextServerMemoFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(ContextServerMemoFuzz, MatchesRescanningReferenceAtEveryStep) {
  const unsigned seed = GetParam();
  std::mt19937_64 rng(seed);
  ContextServerConfig cfg;
  cfg.lease = seed % 3 == 0   ? util::seconds(20)
              : seed % 3 == 1 ? util::seconds(3)
                              : 0;
  cfg.dedup_capacity = 64;  // small, so FIFO eviction is exercised
  util::Time now = util::seconds(1);
  std::function<util::Time()> clock;
  if ((seed / 3) % 2 == 0) clock = [&now] { return now; };
  ContextServer server(cfg, clock);
  ReferenceServer ref(cfg, clock);

  // Paths 0 and 1 have configured capacities; path 2 only ever learns the
  // observed-rate fallback; path 3 is never touched.
  constexpr PathKey kPaths = 4;
  server.set_path_capacity(0, 10e6);
  ref.set_path_capacity(0, 10e6);
  server.set_path_capacity(1, 40e6);
  ref.set_path_capacity(1, 40e6);

  auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::vector<std::uint64_t> epochs(12, 0);
  std::vector<Report> sent;  // recent reports, replayed as retries

  auto make_lookup = [&] {
    LookupRequest req;
    req.path = static_cast<PathKey>(pick(0, 2));
    req.sender_id = static_cast<std::uint64_t>(pick(1, 12));
    req.at = now;
    req.epoch = ++epochs[req.sender_id - 1];
    return req;
  };
  auto make_report = [&] {
    Report r;
    r.path = static_cast<PathKey>(pick(0, 2));
    r.sender_id = static_cast<std::uint64_t>(pick(1, 12));
    // Delayed reports end before "now"; some transfers are instantaneous
    // and some started long before the window.
    const int delay_ms = pick(0, 3) == 0 ? pick(0, 800) : 0;
    const int span_ms = pick(0, 4) == 0 ? 0 : pick(1, 15000);
    r.ended = std::max<util::Time>(now - util::milliseconds(delay_ms), 0);
    r.started = std::max<util::Time>(r.ended - util::milliseconds(span_ms), 0);
    r.bytes = pick(0, 2'000'000);
    r.min_rtt_s = pick(0, 5) == 0 ? 0.0 : 0.01 + 0.001 * pick(0, 50);
    r.mean_rtt_s = r.min_rtt_s + 0.001 * pick(0, 80);
    r.retransmit_rate = 0.01 * pick(0, 10);
    r.kind = pick(0, 2) == 0 ? Report::Kind::kProgress : Report::Kind::kFinal;
    r.epoch = pick(0, 3) == 0 ? 0 : epochs[r.sender_id - 1];
    r.seq = r.kind == Report::Kind::kFinal
                ? 0
                : static_cast<std::uint32_t>(pick(1, 6));
    return r;
  };
  auto do_report = [&](const Report& r) {
    server.report(r);
    ref.report(r);
    sent.push_back(r);
    if (sent.size() > 16) sent.erase(sent.begin());
  };
  auto do_lookup = [&](int step) {
    const LookupRequest req = make_lookup();
    const LookupReply reply = server.lookup(req);
    expect_same_context(reply.context, ref.lookup(req), step, req.path);
  };

  auto check = [&](int step) {
    for (PathKey p = 0; p < kPaths; ++p) {
      expect_same_context(server.context(p), ref.context(p), step, p);
      EXPECT_EQ(server.active_connections(p), ref.active_connections(p))
          << "step " << step << " path " << p;
    }
    EXPECT_EQ(server.expired_leases(), ref.expired_leases()) << "step "
                                                             << step;
    EXPECT_EQ(server.duplicate_reports(), ref.duplicate_reports())
        << "step " << step;
    EXPECT_EQ(server.reports(), ref.reports()) << "step " << step;
    EXPECT_EQ(server.state_version(), ref.state_version()) << "step " << step;
  };

  for (int step = 0; step < 2500; ++step) {
    // Time: often unchanged (same-timestamp bursts), usually a short
    // step, occasionally a jump past every lease and the whole window.
    const int dt = pick(0, 99);
    if (dt < 35) {
      // same timestamp
    } else if (dt < 95) {
      now += util::milliseconds(pick(1, 1500));
    } else {
      now += util::seconds(pick(5, 40));
    }
    const int op = pick(0, 99);
    if (op < 30) {
      do_lookup(step);
    } else if (op < 40) {
      // A batch replayed at one timestamp, as an aggregator delivers it,
      // sometimes with a report landing between two of the lookups.
      const int n = pick(2, 12);
      const int report_at = pick(0, 2) == 0 ? pick(0, n - 1) : -1;
      for (int i = 0; i < n; ++i) {
        if (i == report_at) do_report(make_report());
        do_lookup(step);
      }
    } else if (op < 62) {
      do_report(make_report());
    } else if (op < 66) {
      // A retry of a recent report: absorbed at most once.
      if (!sent.empty())
        do_report(sent[pick(0, static_cast<int>(sent.size()) - 1)]);
    } else if (op < 71) {
      EXPECT_EQ(server.gc(now), ref.gc(now)) << "step " << step;
    } else if (op < 75) {
      const PathKey p = static_cast<PathKey>(pick(0, 1));
      const util::Rate bps = 1e6 * pick(5, 60);
      server.set_path_capacity(p, bps);
      ref.set_path_capacity(p, bps);
    } else if (op < 79) {
      const PathKey p = static_cast<PathKey>(pick(0, 2));
      const double u = 0.1 * pick(-2, 12);  // clamped to [0, 1]
      const util::Duration ttl = util::seconds(pick(0, 10));
      server.set_external_utilization(p, u, now, ttl);
      ref.set_external_utilization(p, u, now, ttl);
    } else if (op < 83) {
      const std::string v2 = server.serialize_state();
      const std::string text = pick(0, 1) == 0 ? v2 : to_v1(v2);
      ASSERT_TRUE(server.restore_state(text)) << "step " << step;
      ASSERT_TRUE(ref.restore_state(text)) << "step " << step;
    }  // else: pure time advance
    check(step);
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextServerMemoFuzz,
                         ::testing::Range(0u, 12u));

TEST(ContextServer, FleetShapedReportIdsAreNeverFalseDuplicates) {
  // fleet_churn's shape: 512 churn slots with consecutive sender ids
  // (900000 + slot), each numbering ~180 connections. Every report is a
  // distinct identity and none is retried, so none may be dropped — a
  // folded 64-bit key used to alias hundreds of them inside the default
  // 4096-entry recently-seen window.
  ContextServer server;
  server.set_path_capacity(kPath, 1e9);
  constexpr std::uint64_t kSlots = 512;
  constexpr std::uint64_t kEpochs = 180;
  for (std::uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
    for (std::uint64_t slot = 0; slot < kSlots; ++slot) {
      const util::Time end = util::milliseconds(
          static_cast<std::int64_t>((epoch - 1) * kSlots + slot));
      Report r = make_report(900'000 + slot, end, end + 1, 1500);
      r.epoch = epoch;
      server.report(r);
    }
  }
  EXPECT_EQ(server.duplicate_reports(), 0u);
  EXPECT_EQ(server.reports(), kSlots * kEpochs);
  // A genuine retry of the newest report is still absorbed only once.
  Report retry = make_report(900'000 + kSlots - 1, 0, 1, 1500);
  retry.epoch = kEpochs;
  server.report(retry);
  EXPECT_EQ(server.duplicate_reports(), 1u);
  EXPECT_EQ(server.reports(), kSlots * kEpochs);
}

TEST(ContextServer, ReportBetweenSameTimestampLookupsInvalidatesMemo) {
  // 8 Mbps path, 10-s window: a 1-s transfer of 1 MB is u = 0.1.
  util::Time fake_now = util::seconds(5);
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 8e6);
  server.report(make_report(1, util::seconds(4), util::seconds(5), 1'000'000));
  const double u1 =
      server.lookup(LookupRequest{kPath, 2, fake_now}).context.utilization;
  EXPECT_NEAR(u1, 0.1, 1e-12);
  // Same timestamp, same capacity — only the window changed.
  server.report(make_report(3, util::seconds(4), util::seconds(5), 1'000'000));
  const double u2 =
      server.lookup(LookupRequest{kPath, 4, fake_now}).context.utilization;
  EXPECT_NEAR(u2, 0.2, 1e-12);
  // A capacity change at the same timestamp also misses the memo.
  server.set_path_capacity(kPath, 16e6);
  EXPECT_NEAR(server.context(kPath).utilization, 0.1, 1e-12);
}

TEST(ContextServer, LeaseDeadlineEqualToNowSurvivesSweep) {
  util::Time fake_now = 0;
  ContextServerConfig cfg;
  cfg.lease = util::seconds(5);
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  (void)server.lookup(LookupRequest{kPath, 1, 0});  // deadline 5 s
  fake_now = util::seconds(5);
  EXPECT_EQ(server.gc(fake_now), 0u);
  EXPECT_EQ(server.active_connections(kPath), 1u);
  EXPECT_EQ(server.expired_leases(), 0u);
  fake_now = util::seconds(5) + 1;
  EXPECT_EQ(server.active_connections(kPath), 0u);
  EXPECT_EQ(server.expired_leases(), 1u);
}

TEST(ContextServer, RenewedLeaseKeepsItsOwnDeadline) {
  // The gate's bound lags a renewal (it only ever drops between sweeps);
  // the sweep it lets through must still judge each connection by its
  // own, renewed deadline.
  util::Time fake_now = 0;
  ContextServerConfig cfg;
  cfg.lease = util::seconds(5);
  ContextServer server(cfg, [&fake_now] { return fake_now; });
  (void)server.lookup(LookupRequest{kPath, 1, 0});  // deadline 5 s
  fake_now = util::seconds(4);
  Report progress = make_report(1, 0, fake_now, 1000);
  progress.kind = Report::Kind::kProgress;
  server.report(progress);  // renewed to 9 s
  fake_now = util::seconds(6);
  EXPECT_EQ(server.active_connections(kPath), 1u);
  fake_now = util::seconds(9) + 1;
  EXPECT_EQ(server.active_connections(kPath), 0u);
  EXPECT_EQ(server.expired_leases(), 1u);
}

#ifndef PHI_TELEMETRY_OFF
TEST(ContextServer, SameTimestampLookupBurstScansOnce) {
  // The aggregator replays a batch of lookups at one timestamp: the
  // window is summed once and no lease can lapse in between, so the burst
  // pays one window scan and no lease scan.
  auto& reg = telemetry::registry();
  const auto& window_scans = reg.counter("phi.context.window_scans");
  const auto& lease_scans = reg.counter("phi.context.lease_scans");
  util::Time fake_now = util::seconds(30);
  ContextServer server({}, [&fake_now] { return fake_now; });
  server.set_path_capacity(kPath, 8e6);
  for (int i = 0; i < 50; ++i) {
    server.report(make_report(100 + static_cast<std::uint64_t>(i),
                              util::seconds(25), util::seconds(30), 10'000));
  }
  const std::uint64_t w0 = window_scans.value();
  const std::uint64_t l0 = lease_scans.value();
  for (std::uint64_t id = 1; id <= 13; ++id)
    (void)server.lookup(LookupRequest{kPath, id, fake_now});
  EXPECT_EQ(window_scans.value() - w0, 1u);
  EXPECT_EQ(lease_scans.value() - l0, 0u);
  // Time moves and a lease lapses: exactly one sweep pays for it.
  fake_now = util::seconds(51);
  (void)server.lookup(LookupRequest{kPath, 1, fake_now});
  EXPECT_EQ(lease_scans.value() - l0, 1u);
  EXPECT_EQ(server.active_connections(kPath), 1u);
}
#endif

}  // namespace
}  // namespace phi::core

// client.hpp — the sender-side half of the Phi protocol. A PhiCubicAdvisor
// hooks an OnOffApp's connection lifecycle: before each connection it looks
// up the context server and installs the recommended Cubic parameters;
// after each connection it reports the experience back (§2.2.2). This is
// the paper's "minimal overhead" design: two small messages per connection.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "phi/context_server.hpp"
#include "tcp/app.hpp"

namespace phi::core {

class PhiCubicAdvisor : public tcp::ConnectionAdvisor {
 public:
  /// `fallback` is used while the server has no recommendation for the
  /// current context (e.g. an empty table): the sender behaves like an
  /// unmodified default-parameter Cubic.
  PhiCubicAdvisor(ContextService& server, PathKey path,
                  std::uint64_t sender_id, std::function<util::Time()> clock,
                  tcp::CubicParams fallback = {})
      : server_(server), path_(path), sender_id_(sender_id),
        clock_(std::move(clock)), fallback_(fallback) {}

  void before_connection(tcp::TcpSender& sender) override {
    ++epoch_;
    LookupRequest req{path_, sender_id_, clock_(), epoch_};
    req.trace = sender.trace_tag();
    const LookupReply reply = server_.lookup(req);
    const tcp::CubicParams params =
        reply.has_recommendation ? reply.recommended : fallback_;
    if (reply.has_recommendation) ++recommended_;
    sender.set_cc(std::make_unique<tcp::Cubic>(params));
    last_params_ = params;
    // Final hop of the causal chain: adoption of the (possibly tuned)
    // parameters, closing the server's recommendation arrow. The very
    // next span on this track is tcp.conn_start with the adopted cwnd.
    if (req.trace != 0) {
      const util::Time now = clock_();
      telemetry::span(telemetry::Category::kContext, req.trace, "phi.adopt",
                      now, now + 1000, "recommended",
                      reply.has_recommendation ? 1.0 : 0.0, "window_init",
                      static_cast<double>(params.window_init));
      if (reply.span_bind != 0) {
        telemetry::flow_in(telemetry::Category::kContext, req.trace,
                           "phi.adopt", now, reply.span_bind);
      }
    }
  }

  void after_connection(const tcp::ConnStats& s,
                        const tcp::TcpSender& sender) override {
    Report r;
    r.path = path_;
    r.sender_id = sender_id_;
    r.epoch = epoch_;
    r.started = s.start;
    r.ended = s.end;
    r.bytes = s.segments * sim::kDefaultMss;
    r.min_rtt_s = s.min_rtt_s;
    r.mean_rtt_s = s.mean_rtt_s;
    r.retransmit_rate = s.retransmit_rate();
    r.trace = sender.trace_tag();
    // First hop of the causal chain: the experience report leaves the
    // client, arrow open for the server's aggregation span to close.
    if (r.trace != 0) {
      telemetry::span(telemetry::Category::kContext, r.trace, "phi.report",
                      s.end, s.end + 1000, "bytes",
                      static_cast<double>(r.bytes), "retx_rate",
                      r.retransmit_rate);
      r.bind = telemetry::next_bind();
      telemetry::flow_out(telemetry::Category::kContext, r.trace,
                          "phi.report", s.end, r.bind);
    }
    server_.report(r);
  }

  /// Connections that actually received a tuned recommendation.
  std::uint64_t recommended_connections() const noexcept {
    return recommended_;
  }
  const tcp::CubicParams& last_params() const noexcept { return last_params_; }

 private:
  ContextService& server_;
  PathKey path_;
  std::uint64_t sender_id_;
  std::function<util::Time()> clock_;
  tcp::CubicParams fallback_;
  tcp::CubicParams last_params_{};
  std::uint64_t recommended_ = 0;
  std::uint64_t epoch_ = 0;  ///< connection number, stamped on reports
};

/// Mid-stream reporter: §2.2.2's refinement for long transfers — "if the
/// connections are long, we could communicate with the context server
/// multiple times within the same connection." While a connection is
/// active, progress deltas are reported every `interval`, so the server's
/// utilization window sees long flows as they run instead of only at
/// completion (see bench/ablation_staleness for the effect).
class MidStreamReporter {
 public:
  MidStreamReporter(sim::Scheduler& sched, ContextService& server,
                    PathKey path, std::uint64_t sender_id,
                    util::Duration interval = util::seconds(2))
      : sched_(sched), server_(server), path_(path), sender_id_(sender_id),
        interval_(interval) {}
  ~MidStreamReporter() { stop(); }

  MidStreamReporter(const MidStreamReporter&) = delete;
  MidStreamReporter& operator=(const MidStreamReporter&) = delete;

  /// Begin periodic progress reports for `sender`'s active connection.
  void start(const tcp::TcpSender& sender) {
    stop();
    sender_ = &sender;
    last_acked_ = sender.lifetime_acked_segments();
    last_time_ = sched_.now();
    ++epoch_;
    seq_ = 0;
    arm();
  }

  /// Stop reporting (the final report comes from the normal completion
  /// path).
  void stop() {
    if (pending_ != 0) {
      sched_.cancel(pending_);
      pending_ = 0;
    }
    sender_ = nullptr;
  }

  std::uint64_t reports_sent() const noexcept { return reports_; }

  /// Segments already covered by mid-stream reports (so a completion
  /// report can cover just the residual tail).
  std::int64_t acked_reported() const noexcept { return last_acked_; }
  util::Time last_report_time() const noexcept { return last_time_; }
  /// Connection number of the current/most recent connection; stamp it on
  /// the completion report so it shares identity space with the
  /// mid-stream progress reports (which used seq 1..k; completion is 0).
  std::uint64_t epoch() const noexcept { return epoch_; }

 private:
  void arm() {
    pending_ = sched_.schedule_in(interval_, [this] {
      pending_ = 0;
      if (sender_ == nullptr) return;
      const std::int64_t acked = sender_->lifetime_acked_segments();
      const util::Time now = sched_.now();
      if (acked > last_acked_) {
        Report r;
        r.path = path_;
        r.sender_id = sender_id_;
        r.kind = Report::Kind::kProgress;
        r.epoch = epoch_;
        r.seq = ++seq_;
        r.started = last_time_;
        r.ended = now;
        r.bytes = (acked - last_acked_) * sim::kDefaultMss;
        const auto& rtt = sender_->rtt();
        r.min_rtt_s = rtt.has_sample() ? util::to_seconds(rtt.min_rtt()) : 0;
        r.mean_rtt_s = rtt.has_sample() ? util::to_seconds(rtt.srtt()) : 0;
        r.trace = sender_->trace_tag();
        server_.report(r);
        ++reports_;
        last_acked_ = acked;
        last_time_ = now;
      }
      if (sender_ != nullptr && sender_->busy()) arm();
    });
  }

  sim::Scheduler& sched_;
  ContextService& server_;
  PathKey path_;
  std::uint64_t sender_id_;
  util::Duration interval_;
  const tcp::TcpSender* sender_ = nullptr;
  std::int64_t last_acked_ = 0;
  util::Time last_time_ = 0;
  sim::EventId pending_ = 0;
  std::uint64_t reports_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint32_t seq_ = 0;
};

/// Advisor combining connection-boundary reports with mid-stream progress
/// reports; the completion report covers only the un-reported tail so no
/// byte is double counted.
class MidStreamAdvisor : public tcp::ConnectionAdvisor {
 public:
  MidStreamAdvisor(sim::Scheduler& sched, ContextService& server,
                   PathKey path, std::uint64_t sender_id,
                   util::Duration interval = util::seconds(2))
      : server_(server), path_(path), sender_id_(sender_id),
        reporter_(sched, server, path, sender_id, interval) {}

  void before_connection(tcp::TcpSender& sender) override {
    reporter_.start(sender);
  }

  void after_connection(const tcp::ConnStats& s,
                        const tcp::TcpSender& sender) override {
    const std::int64_t residual =
        sender.lifetime_acked_segments() - reporter_.acked_reported();
    Report r;
    r.path = path_;
    r.sender_id = sender_id_;
    r.epoch = reporter_.epoch();
    r.started = reporter_.last_report_time();
    r.ended = s.end;
    r.bytes = std::max<std::int64_t>(residual, 0) * sim::kDefaultMss;
    r.min_rtt_s = s.min_rtt_s;
    r.mean_rtt_s = s.mean_rtt_s;
    r.retransmit_rate = s.retransmit_rate();
    r.trace = sender.trace_tag();
    reporter_.stop();
    server_.report(r);
  }

  std::uint64_t midstream_reports() const noexcept {
    return reporter_.reports_sent();
  }

 private:
  ContextService& server_;
  PathKey path_;
  std::uint64_t sender_id_;
  MidStreamReporter reporter_;
};

/// Report-only advisor: shares its experience with the context server but
/// keeps its own (default) parameters. Used to model senders that
/// contribute telemetry without following recommendations, and to warm the
/// server up before recommendations exist.
class ReportOnlyAdvisor : public tcp::ConnectionAdvisor {
 public:
  ReportOnlyAdvisor(ContextService& server, PathKey path,
                    std::uint64_t sender_id)
      : server_(server), path_(path), sender_id_(sender_id) {}

  void after_connection(const tcp::ConnStats& s,
                        const tcp::TcpSender& sender) override {
    Report r;
    r.path = path_;
    r.sender_id = sender_id_;
    r.epoch = ++epoch_;
    r.started = s.start;
    r.ended = s.end;
    r.bytes = s.segments * sim::kDefaultMss;
    r.min_rtt_s = s.min_rtt_s;
    r.mean_rtt_s = s.mean_rtt_s;
    r.retransmit_rate = s.retransmit_rate();
    r.trace = sender.trace_tag();
    server_.report(r);
  }

 private:
  ContextService& server_;
  PathKey path_;
  std::uint64_t sender_id_;
  std::uint64_t epoch_ = 0;
};

}  // namespace phi::core

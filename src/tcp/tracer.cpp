#include "tcp/tracer.hpp"

#include <algorithm>

#include "util/table.hpp"

namespace phi::tcp {

SenderTracer::SenderTracer(sim::Scheduler& sched, const TcpSender& sender,
                           util::Duration interval)
    : sched_(sched), sender_(sender), interval_(interval) {
  const telemetry::Labels labels{
      {"flow", std::to_string(sender_.flow())}};
  auto& reg = telemetry::registry();
  cwnd_gauge_ = &reg.gauge("tcp.tracer.cwnd", labels);
  srtt_gauge_ = &reg.gauge("tcp.tracer.srtt_ms", labels);
  inflight_gauge_ = &reg.gauge("tcp.tracer.inflight", labels);
  arm();
}

SenderTracer::~SenderTracer() { stop(); }

void SenderTracer::stop() {
  stopped_ = true;
  if (pending_ != 0) {
    sched_.cancel(pending_);
    pending_ = 0;
  }
}

void SenderTracer::arm() {
  pending_ = sched_.schedule_in(interval_, [this] {
    if (stopped_) return;
    Sample s;
    s.t = sched_.now();
    s.cwnd = sender_.cc().window();
    s.ssthresh = sender_.cc().ssthresh();
    s.srtt_s = sender_.rtt().has_sample()
                   ? util::to_seconds(sender_.rtt().srtt())
                   : 0.0;
    s.inflight = sender_.segments_in_flight();
    samples_.push_back(s);
    cwnd_gauge_->set(s.cwnd);
    srtt_gauge_->set(s.srtt_s * 1e3);
    inflight_gauge_->set(static_cast<double>(s.inflight));
    telemetry::counter(telemetry::Category::kTcp, "tracer.cwnd", s.t,
                       s.cwnd);
    arm();
  });
}

bool SenderTracer::write_csv(const std::string& path) const {
  std::vector<std::vector<std::string>> rows;
  rows.reserve(samples_.size());
  for (const auto& s : samples_) {
    rows.push_back({util::fmt_g(util::to_seconds(s.t)),
                    util::fmt_g(s.cwnd), util::fmt_g(s.ssthresh),
                    util::fmt_g(s.srtt_s * 1e3),
                    std::to_string(s.inflight)});
  }
  return util::write_csv(
      path, {"t_s", "cwnd", "ssthresh", "srtt_ms", "inflight"}, rows);
}

std::string SenderTracer::sparkline(int channel, std::size_t width) const {
  static const char* kLevels[] = {" ", "_", ".", "-", "=", "*", "#", "@"};
  if (samples_.empty() || width == 0) return {};
  auto value = [&](const Sample& s) {
    switch (channel) {
      case 1:
        return s.srtt_s;
      case 2:
        return static_cast<double>(s.inflight);
      default:
        return s.cwnd;
    }
  };
  // Downsample to `width` buckets by max (peaks matter).
  std::vector<double> buckets(std::min(width, samples_.size()), 0.0);
  double hi = 0;
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const std::size_t b = i * buckets.size() / samples_.size();
    buckets[b] = std::max(buckets[b], value(samples_[i]));
    hi = std::max(hi, buckets[b]);
  }
  std::string out;
  for (const double v : buckets) {
    const auto level = hi > 0 ? static_cast<std::size_t>(
                                    v / hi * 7.0 + 0.5)
                              : 0;
    out += kLevels[std::min<std::size_t>(level, 7)];
  }
  return out;
}

}  // namespace phi::tcp

#include "phi/adaptation.hpp"

#include <algorithm>

namespace phi::core {

void JitterBufferAdvisor::record_jitter_ms(PathKey path, double jitter_ms) {
  if (jitter_ms < 0.0) return;
  jitter_[path].add(jitter_ms);
}

double JitterBufferAdvisor::recommend_ms(PathKey path,
                                         double fallback_ms) const {
  auto it = jitter_.find(path);
  if (it == jitter_.end() || it->second.count() < cfg_.min_support)
    return fallback_ms;
  const double q = it->second.quantile(cfg_.quantile);
  return std::clamp(q * cfg_.safety, cfg_.min_ms, cfg_.max_ms);
}

std::size_t JitterBufferAdvisor::support(PathKey path) const {
  auto it = jitter_.find(path);
  return it == jitter_.end() ? 0 : it->second.count();
}

void DupAckThresholdAdvisor::record_connection(PathKey path,
                                               bool saw_spurious,
                                               util::Time at,
                                               std::uint32_t trace) {
  Counts& c = counts_[path];
  ++c.total;
  if (saw_spurious) ++c.reordered;
  if (at >= 0 && trace != 0) {
    telemetry::instant(telemetry::Category::kContext, trace,
                       "adapt.dupack_record", at, "spurious",
                       saw_spurious ? 1.0 : 0.0, "prevalence",
                       prevalence(path));
  }
}

double DupAckThresholdAdvisor::prevalence(PathKey path) const {
  auto it = counts_.find(path);
  if (it == counts_.end() || it->second.total == 0) return 0.0;
  return static_cast<double>(it->second.reordered) /
         static_cast<double>(it->second.total);
}

int DupAckThresholdAdvisor::recommend(PathKey path, util::Time at,
                                      std::uint32_t trace) const {
  int k = cfg_.base_threshold;
  auto it = counts_.find(path);
  if (it != counts_.end() && it->second.total >= cfg_.min_support) {
    const double p = prevalence(path);
    if (p >= cfg_.raise_more_at)
      k = cfg_.base_threshold + 3;
    else if (p >= cfg_.raise_at)
      k = cfg_.base_threshold + 1;
  }
  if (at >= 0 && trace != 0) {
    telemetry::instant(telemetry::Category::kContext, trace,
                       "adapt.dupack_recommend", at, "threshold",
                       static_cast<double>(k), "support",
                       static_cast<double>(support(path)));
  }
  return k;
}

std::size_t DupAckThresholdAdvisor::support(PathKey path) const {
  auto it = counts_.find(path);
  return it == counts_.end() ? 0 : it->second.total;
}

}  // namespace phi::core

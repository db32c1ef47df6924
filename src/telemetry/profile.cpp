#include "telemetry/profile.hpp"

#ifndef PHI_TELEMETRY_OFF

#include <cstdio>

namespace phi::telemetry {

const char* LoopProfile::section_name(unsigned s) noexcept {
  switch (s) {
    case kWheelAdvance:
      return "wheel advance";
    case kDelivery:
      return "delivery";
    case kTxComplete:
      return "tx complete";
    case kCallback:
      return "callback";
    default:
      return "?";
  }
}

std::string LoopProfile::table() const {
  double total_ns = 0.0;
  for (unsigned s = 0; s < kSectionCount; ++s) total_ns += estimated_ns(s);

  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-14s %12s %11s %12s %9s %10s %7s\n",
                "section", "events", "sampled", "sampled_ms", "ns/event",
                "est_ms", "share");
  out += line;
  for (unsigned s = 0; s < kSectionCount; ++s) {
    const double per_event =
        sampled_[s] > 0
            ? static_cast<double>(ns_[s]) / static_cast<double>(sampled_[s])
            : 0.0;
    const double share =
        total_ns > 0.0 ? 100.0 * estimated_ns(s) / total_ns : 0.0;
    std::snprintf(line, sizeof(line),
                  "%-14s %12llu %11llu %12.3f %9.0f %10.3f %6.1f%%\n",
                  section_name(s),
                  static_cast<unsigned long long>(events_[s]),
                  static_cast<unsigned long long>(sampled_[s]),
                  static_cast<double>(ns_[s]) / 1e6, per_event,
                  estimated_ns(s) / 1e6, share);
    out += line;
  }
  const double wall = static_cast<double>(wall_ns_);
  std::snprintf(line, sizeof(line),
                "sections sum %.3f ms of run_until wall %.3f ms "
                "(gap %.3f ms, %.1f%%), sampled 1-in-%u\n",
                total_ns / 1e6, wall / 1e6, (wall - total_ns) / 1e6,
                wall > 0.0 ? 100.0 * (wall - total_ns) / wall : 0.0,
                kSampleStride);
  out += line;
  return out;
}

}  // namespace phi::telemetry

#endif  // PHI_TELEMETRY_OFF

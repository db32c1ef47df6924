// profile.hpp — event-loop self-profiling. A LoopProfile is attached to
// a sim::Scheduler (Scheduler::set_profile) and accounts where
// run_until spends its wall-clock time, split by event-loop section:
// timing-wheel advance/scan, delivery bursts, tx-complete events, and
// scheduled callbacks (TCP timers, apps, probes). Event counts are
// exact; wall-clock is *sampled* — one event in kSampleStride of each
// section is timed with steady_clock — so the measurement itself stays
// cheap enough to leave on during benchmarks, and each section's total
// is estimated from its own samples. Every sample also reads the clock
// once, so the cost of one read is measured once per profile and
// subtracted from every sample. Wall-clock never feeds back into
// simulated time, so profiling cannot perturb results.
//
// Under PHI_TELEMETRY_OFF the class is a stub and the scheduler hook
// compiles out.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace phi::telemetry {

#ifndef PHI_TELEMETRY_OFF

/// Monotonic wall-clock nanoseconds for profiling sections.
inline std::uint64_t profile_clock_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

class LoopProfile {
 public:
  enum Section : unsigned {
    kWheelAdvance = 0,  ///< wheel bitmap scans, cascades, run-buffer fill
    kDelivery,          ///< packet deliveries (incl. same-link bursts)
    kTxComplete,        ///< serialization-complete events
    kCallback,          ///< SmallFn callbacks: TCP timers, apps, probes
    kSectionCount
  };

  /// Time 1 in kSampleStride events of each section.
  static constexpr std::uint32_t kSampleStride = 16;

  static const char* section_name(unsigned s) noexcept;

  /// Exact event count for `s` (called on every event).
  void count(unsigned s, std::uint64_t n = 1) noexcept { events_[s] += n; }

  /// Sampling gate: true when this event of section `s` should be
  /// wall-clock timed. Each section keeps its own stride, so a regular
  /// interleaving of sections cannot starve one of samples.
  bool gate(unsigned s) noexcept {
    return (++tick_[s] % kSampleStride) == 0;
  }

  /// Credit `ns` of sampled wall-clock covering `n` events to `s`; the
  /// calibrated clock-read cost is charged against it.
  void add_time(unsigned s, std::uint64_t ns, std::uint64_t n = 1) noexcept {
    ns_[s] += ns;
    sampled_[s] += n;
    clock_ns_[s] += read_ns_;
  }

  /// Measure, once, what one timed sample reads for no work at all (one
  /// steady_clock read); later samples are charged that much. Until then
  /// nothing is subtracted.
  void calibrate() noexcept;
  std::uint64_t clock_read_ns() const noexcept { return read_ns_; }

  /// Total wall-clock of the run_until calls themselves (always timed —
  /// one clock pair per call, not per event).
  void add_wall(std::uint64_t ns) noexcept { wall_ns_ += ns; }

  std::uint64_t events(unsigned s) const noexcept { return events_[s]; }
  std::uint64_t sampled(unsigned s) const noexcept { return sampled_[s]; }
  std::uint64_t sampled_ns(unsigned s) const noexcept { return ns_[s]; }
  std::uint64_t wall_ns() const noexcept { return wall_ns_; }

  /// Estimated wall-clock of all of `s`'s events: sampled time net of
  /// clock reads, scaled by events / sampled (0 when never sampled).
  double estimated_ns(unsigned s) const noexcept {
    return sampled_[s] > 0 ? static_cast<double>(net_ns(s)) *
                                 static_cast<double>(events_[s]) /
                                 static_cast<double>(sampled_[s])
                           : 0.0;
  }

  /// Fold another profile in (counts and times add) — lets parallel
  /// reps aggregate into one table.
  void merge(const LoopProfile& o) noexcept {
    for (unsigned s = 0; s < kSectionCount; ++s) {
      events_[s] += o.events_[s];
      sampled_[s] += o.sampled_[s];
      ns_[s] += o.ns_[s];
      clock_ns_[s] += o.clock_ns_[s];
    }
    if (read_ns_ == 0) read_ns_ = o.read_ns_;
    wall_ns_ += o.wall_ns_;
  }

  void reset() noexcept {
    for (unsigned s = 0; s < kSectionCount; ++s) {
      events_[s] = sampled_[s] = ns_[s] = clock_ns_[s] = 0;
      tick_[s] = 0;
    }
    wall_ns_ = 0;
  }

  /// Human-readable breakdown: per section, exact event count, sampled
  /// time, ns/event, estimated total and its share of the sections'
  /// sum; then the gap between that sum and the run_until wall.
  std::string table() const;

 private:
  std::uint64_t net_ns(unsigned s) const noexcept {
    return ns_[s] > clock_ns_[s] ? ns_[s] - clock_ns_[s] : 0;
  }

  std::uint64_t events_[kSectionCount] = {};
  std::uint64_t sampled_[kSectionCount] = {};
  std::uint64_t ns_[kSectionCount] = {};
  std::uint64_t clock_ns_[kSectionCount] = {};  ///< clock reads charged
  std::uint64_t read_ns_ = 0;                   ///< 0: not calibrated
  std::uint64_t wall_ns_ = 0;
  std::uint32_t tick_[kSectionCount] = {};
};

#else  // PHI_TELEMETRY_OFF

inline std::uint64_t profile_clock_ns() noexcept { return 0; }

class LoopProfile {
 public:
  enum Section : unsigned {
    kWheelAdvance = 0,
    kDelivery,
    kTxComplete,
    kCallback,
    kSectionCount
  };
  static constexpr std::uint32_t kSampleStride = 16;
  static const char* section_name(unsigned) noexcept { return ""; }
  void count(unsigned, std::uint64_t = 1) noexcept {}
  bool gate(unsigned) noexcept { return false; }
  void add_time(unsigned, std::uint64_t, std::uint64_t = 1) noexcept {}
  void calibrate() noexcept {}
  std::uint64_t clock_read_ns() const noexcept { return 0; }
  void add_wall(std::uint64_t) noexcept {}
  std::uint64_t events(unsigned) const noexcept { return 0; }
  std::uint64_t sampled(unsigned) const noexcept { return 0; }
  std::uint64_t sampled_ns(unsigned) const noexcept { return 0; }
  std::uint64_t wall_ns() const noexcept { return 0; }
  double estimated_ns(unsigned) const noexcept { return 0.0; }
  void merge(const LoopProfile&) noexcept {}
  void reset() noexcept {}
  std::string table() const { return {}; }
};

#endif  // PHI_TELEMETRY_OFF

}  // namespace phi::telemetry

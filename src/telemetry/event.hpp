// event.hpp — the telemetry event path. Everything worth recording that
// "happened" in a run — a packet dropped, a TCP state change, a fault
// fired, one hop of a sampled flow's causal chain, a counter sample — is
// one trivially-copyable telemetry::Event, produced by one call to
// telemetry::emit() (or one of the phase helpers below), which
//
//  * notes it in the calling thread's always-on FlightRecorder: a
//    per-category ring of the last K events, dumped when something rare
//    goes wrong; and
//  * appends it to the thread's SpanLog when one is installed: always for
//    an event on a sampled flow (trace != 0), and for an untraced event
//    only if its category is in the log's mask.
//
// The SpanLog renders Chrome trace_event JSON (about://tracing,
// ui.perfetto.dev): one track per sampled flow, with causality across
// components drawn as flow arrows — a producer emits flow_out(bind), the
// consumer flow_in(bind) with the same binding id (e.g. from a sender's
// context report to the server aggregation it triggered).
//
// Names and arg keys must be string literals (or otherwise outlive the
// recorder and the log): an Event stores the pointers, never a copy,
// which is what keeps recording allocation-free. Both sinks are
// thread-local, so parallel simulation tasks never contend on one.
//
// Under PHI_TELEMETRY_OFF, emit() is an empty inline function and
// spans() a constant nullptr, so every call site folds away.
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "util/ring.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace phi::telemetry {

/// Event categories, one bit each, combinable into masks.
enum class Category : std::uint32_t {
  kScheduler = 1u << 0,  ///< event loop: compactions
  kLink = 1u << 1,       ///< links: drops, outages, transit, delivery
  kQueue = 1u << 2,      ///< queue discs: residency, RED marks/early drops
  kTcp = 1u << 3,        ///< senders: state changes, connections, cwnd
  kContext = 1u << 4,    ///< the Phi context protocol, client and server
  kFault = 1u << 5,      ///< fault injector: every fault actually fired
  kBench = 1u << 6,      ///< harness-level markers and anomalies
};

inline constexpr std::uint32_t kAllCategories = 0xFFFFFFFFu;
inline constexpr std::size_t kCategoryCount = 7;

inline constexpr std::uint32_t mask_of(Category c) noexcept {
  return static_cast<std::uint32_t>(c);
}

/// Index of a category's flight ring (trailing-zero count of its bit).
constexpr std::size_t category_index(Category c) noexcept {
  std::size_t i = 0;
  for (std::uint32_t m = mask_of(c); m > 1; m >>= 1) ++i;
  return i < kCategoryCount ? i : kCategoryCount - 1;
}

const char* category_name(Category c) noexcept;

/// One telemetry event: up to two named numeric args, static names.
struct Event {
  Category cat = Category::kBench;
  char phase = 'i';  ///< 'X' span, 'i' instant, 's'/'f' arrow, 'C' counter
  std::uint32_t trace = 0;  ///< sampled flow's trace id (its track); 0 = none
  std::uint32_t bind = 0;   ///< flow-arrow binding id ('s'/'f' only)
  util::Time t0 = 0;        ///< event time (ns); begin of an 'X' span
  util::Time t1 = 0;        ///< end of an 'X' span; == t0 otherwise
  const char* name = nullptr;
  const char* k0 = nullptr;  ///< first arg's key; nullptr = absent
  double a0 = 0.0;
  const char* k1 = nullptr;
  double a1 = 0.0;
};
static_assert(std::is_trivially_copyable_v<Event> && sizeof(Event) <= 72,
              "events are copied into rings and logs in bulk");

/// A bounded, preallocated event log for one run on one thread.
class SpanLog {
 public:
  /// Sample 1 in `sample_one_in` flows (1 = every flow, 0 = none) and
  /// log their events; also log untraced events whose category is in
  /// `mask`. `capacity` events are preallocated and recording never
  /// allocates: past capacity, events are counted in dropped() instead.
  explicit SpanLog(std::uint32_t sample_one_in = 64, std::uint64_t seed = 0,
                   std::size_t capacity = 1 << 20, std::uint32_t mask = 0)
      : one_in_(sample_one_in), seed_(seed), capacity_(capacity),
        mask_(mask) {
    events_.reserve(capacity_);
  }

  /// The trace id for `flow`: nonzero iff the flow is sampled. Pure
  /// function of (flow, seed, sample_one_in) — stable across runs,
  /// thread counts, and event orderings.
  std::uint32_t trace_of(std::uint64_t flow) const noexcept {
    if (one_in_ == 0) return 0;
    if (one_in_ > 1 && util::derive_seed(seed_, flow) % one_in_ != 0) {
      return 0;
    }
    const auto id = static_cast<std::uint32_t>(flow);
    return id != 0 ? id : 1;
  }

  /// A fresh flow-arrow binding id, for pairing one flow_out with one
  /// flow_in across components.
  std::uint32_t next_bind() noexcept { return ++bind_seq_; }

  /// Append `e` if its flow is sampled or its category is in the mask.
  void record(const Event& e) noexcept {
    if (e.trace == 0 && (mask_ & mask_of(e.cat)) == 0) return;
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(e);
  }

  const std::vector<Event>& events() const noexcept { return events_; }
  std::size_t dropped() const noexcept { return dropped_; }

  void clear() noexcept {
    events_.clear();
    dropped_ = 0;
    bind_seq_ = 0;
  }

  /// Chrome trace_event JSON ("ts" in microseconds): 'X' slices and 'i'
  /// instants on one named track per trace id ("flow <id>"; untraced
  /// events share track 0), flow arrows as paired "s"/"f" events, and
  /// 'C' counter samples.
  std::string chrome_json() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  std::uint32_t one_in_;
  std::uint64_t seed_;
  std::size_t capacity_;
  std::uint32_t mask_;
  std::vector<Event> events_;
  std::size_t dropped_ = 0;
  std::uint32_t bind_seq_ = 0;
};

/// Always-on black box: per category, a fixed-capacity ring of the last
/// `depth` events, so when something rare goes wrong the recent history
/// of every component is already in memory. Dump triggers:
///  * arm(mask, path): the first note() whose category is in `mask`
///    writes a dump to `path` (one-shot latch; re-arm to fire again);
///  * anomaly(e): notes `e`, then dumps at once — to the armed path if
///    armed (consuming the latch), else to stderr;
///  * install_abort_handler(): SIGABRT (assert) dumps to stderr.
class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultDepth = 128;

  explicit FlightRecorder(std::size_t depth = kDefaultDepth);

  /// Record `e` in its category's ring, evicting the oldest past depth.
  /// Never allocates after construction.
  void note(const Event& e) noexcept;
  void anomaly(const Event& e);

  void arm(std::uint32_t category_mask, std::string path);
  bool armed() const noexcept { return arm_mask_ != 0; }
  /// Path of the last automatic dump ("" if none fired yet).
  const std::string& last_dump_path() const noexcept { return last_dump_; }

  std::size_t depth() const noexcept { return depth_; }
  /// Total events ever noted (recorded + evicted).
  std::uint64_t recorded() const noexcept { return recorded_; }
  std::size_t ring_size(Category c) const noexcept {
    return rings_[category_index(c)].size();
  }

  /// Text dump: per-category sections, events in recording order.
  std::string dump() const;
  bool write(const std::string& path) const;
  void dump_to_stderr() const;

  void clear() noexcept;

 private:
  std::size_t depth_;
  std::uint64_t recorded_ = 0;
  util::RingDeque<Event> rings_[kCategoryCount];
  std::uint32_t arm_mask_ = 0;
  std::string arm_path_;
  std::string last_dump_;
};

/// This thread's always-on recorder; no installation step.
FlightRecorder& flight() noexcept;

#ifndef PHI_TELEMETRY_OFF

/// Note `e` in this thread's flight recorder and, when a SpanLog is
/// installed, offer it to the log.
void emit(const Event& e) noexcept;

/// The calling thread's log; nullptr = none installed. The caller keeps
/// ownership and the log must outlive any traced activity; a log is
/// never shared across threads.
SpanLog* spans() noexcept;
void set_spans(SpanLog* log) noexcept;

/// Dump this thread's recorder to stderr when abort() is called (the
/// path every failed assert takes). Best-effort: the dump allocates, so
/// a heap-corruption abort may not produce one.
void install_abort_handler();

#else  // PHI_TELEMETRY_OFF

inline void emit(const Event&) noexcept {}
inline SpanLog* spans() noexcept { return nullptr; }
inline void set_spans(SpanLog*) noexcept {}
inline void install_abort_handler() {}

#endif  // PHI_TELEMETRY_OFF

// Phase helpers: each builds one Event and emits it.

/// A complete span [t0, t1].
inline void span(Category c, std::uint32_t trace, const char* name,
                 util::Time t0, util::Time t1, const char* k0 = nullptr,
                 double a0 = 0.0, const char* k1 = nullptr,
                 double a1 = 0.0) noexcept {
  emit(Event{c, 'X', trace, 0, t0, t1, name, k0, a0, k1, a1});
}

/// A zero-duration point event.
inline void instant(Category c, std::uint32_t trace, const char* name,
                    util::Time ts, const char* k0 = nullptr, double a0 = 0.0,
                    const char* k1 = nullptr, double a1 = 0.0) noexcept {
  emit(Event{c, 'i', trace, 0, ts, ts, name, k0, a0, k1, a1});
}

/// Producer / consumer halves of a causal arrow. Both sides must use the
/// same `bind` (and, for Chrome compatibility, the same name).
inline void flow_out(Category c, std::uint32_t trace, const char* name,
                     util::Time ts, std::uint32_t bind) noexcept {
  emit(Event{c, 's', trace, bind, ts, ts, name});
}
inline void flow_in(Category c, std::uint32_t trace, const char* name,
                    util::Time ts, std::uint32_t bind) noexcept {
  emit(Event{c, 'f', trace, bind, ts, ts, name});
}

/// A counter sample — Chrome renders it as a time-series track.
inline void counter(Category c, const char* name, util::Time ts,
                    double value) noexcept {
  emit(Event{c, 'C', 0, 0, ts, ts, name, "value", value});
}

/// A fresh binding id from this thread's log (0 when none is installed).
inline std::uint32_t next_bind() noexcept {
  SpanLog* log = spans();
  return log != nullptr ? log->next_bind() : 0;
}

}  // namespace phi::telemetry

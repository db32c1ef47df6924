#include "telemetry/event.hpp"

#include <csignal>
#include <cstdio>
#include <set>
#include <utility>

namespace phi::telemetry {

const char* category_name(Category c) noexcept {
  switch (c) {
    case Category::kScheduler: return "scheduler";
    case Category::kLink: return "link";
    case Category::kQueue: return "queue";
    case Category::kTcp: return "tcp";
    case Category::kContext: return "context";
    case Category::kFault: return "fault";
    case Category::kBench: return "bench";
  }
  return "other";
}

namespace {

constexpr Category kCategories[kCategoryCount] = {
    Category::kScheduler, Category::kLink,    Category::kQueue,
    Category::kTcp,       Category::kContext, Category::kFault,
    Category::kBench,
};

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// Chrome "ts" is microseconds; keep nanosecond resolution as fractional
// microseconds.
void append_ts(std::string& out, util::Time ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  out += buf;
}

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%g", v);
  out += buf;
}

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  return ok;
}

}  // namespace

std::string SpanLog::chrome_json() const {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  auto sep = [&] {
    if (!first) out += ",\n";
    first = false;
  };

  // One named track per trace id so Perfetto shows "flow <id>" instead
  // of bare numbers.
  std::set<std::uint32_t> tracks;
  for (const Event& e : events_) tracks.insert(e.trace);
  for (std::uint32_t t : tracks) {
    sep();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    out += std::to_string(t);
    out += ",\"args\":{\"name\":\"";
    out += t != 0 ? "flow " + std::to_string(t) : std::string("untraced");
    out += "\"}}";
  }

  for (const Event& e : events_) {
    sep();
    out += "{\"name\":\"";
    append_escaped(out, e.name);
    out += "\",\"ph\":\"";
    out += e.phase;
    out += "\",\"pid\":1,\"tid\":";
    out += std::to_string(e.trace);
    out += ",\"ts\":";
    append_ts(out, e.t0);
    if (e.phase == 's' || e.phase == 'f') {
      out += ",\"cat\":\"flow\"";
      // bp:"e" binds the arrow head to the enclosing slice, which is
      // what Perfetto needs to draw report -> aggregate arrows.
      if (e.phase == 'f') out += ",\"bp\":\"e\"";
      out += ",\"id\":";
      out += std::to_string(e.bind);
    } else {
      if (e.phase == 'X') {
        out += ",\"dur\":";
        append_ts(out, e.t1 - e.t0);
      }
      // Events on a sampled flow are that flow's spans; untraced events
      // (logged by category mask) carry their category.
      out += ",\"cat\":\"";
      out += e.trace != 0 ? "span" : category_name(e.cat);
      out += "\"";
      if (e.phase == 'i') out += ",\"s\":\"t\"";
    }
    if (e.k0 != nullptr || e.k1 != nullptr) {
      out += ",\"args\":{";
      if (e.k0 != nullptr) {
        out += "\"";
        append_escaped(out, e.k0);
        out += "\":";
        append_number(out, e.a0);
      }
      if (e.k1 != nullptr) {
        if (e.k0 != nullptr) out += ",";
        out += "\"";
        append_escaped(out, e.k1);
        out += "\":";
        append_number(out, e.a1);
      }
      out += "}";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  return write_file(path, chrome_json());
}

FlightRecorder::FlightRecorder(std::size_t depth) : depth_(depth) {
  for (auto& r : rings_) r.reserve(depth_);
}

void FlightRecorder::note(const Event& e) noexcept {
  auto& ring = rings_[category_index(e.cat)];
  if (ring.size() == depth_) ring.pop_front();
  ring.push_back(e);
  ++recorded_;
  if ((arm_mask_ & mask_of(e.cat)) != 0) {
    // One-shot: disarm before writing so a note() from inside write()
    // cannot recurse.
    arm_mask_ = 0;
    if (write(arm_path_)) last_dump_ = arm_path_;
  }
}

void FlightRecorder::anomaly(const Event& e) {
  if (!armed()) {
    note(e);
    dump_to_stderr();
    return;
  }
  // Armed: the anomaly itself fires the one-shot dump, so it is written
  // exactly once and a later anomaly goes to stderr instead of
  // overwriting it.
  arm_mask_ |= mask_of(e.cat);
  note(e);
}

void FlightRecorder::arm(std::uint32_t category_mask, std::string path) {
  arm_mask_ = category_mask;
  arm_path_ = std::move(path);
}

std::string FlightRecorder::dump() const {
  std::string out = "# flight recorder dump (last ";
  out += std::to_string(depth_);
  out += " events per component, ";
  out += std::to_string(recorded_);
  out += " recorded in total)\n";
  char line[192];
  for (std::size_t i = 0; i < kCategoryCount; ++i) {
    const auto& ring = rings_[i];
    if (ring.empty()) continue;
    out += "## ";
    out += category_name(kCategories[i]);
    out += " (";
    out += std::to_string(ring.size());
    out += ")\n";
    for (std::size_t j = 0; j < ring.size(); ++j) {
      const Event& e = ring[j];
      std::snprintf(line, sizeof(line), "%12.6fs  %c %-28s",
                    util::to_seconds(e.t0), e.phase,
                    e.name != nullptr ? e.name : "?");
      out += line;
      if (e.trace != 0) out += " trace=" + std::to_string(e.trace);
      if (e.bind != 0) out += " bind=" + std::to_string(e.bind);
      if (e.phase == 'X') {
        std::snprintf(line, sizeof(line), " dur_s=%g",
                      util::to_seconds(e.t1 - e.t0));
        out += line;
      }
      const std::pair<const char*, double> args[] = {{e.k0, e.a0},
                                                     {e.k1, e.a1}};
      for (const auto& [k, a] : args) {
        if (k == nullptr) continue;
        std::snprintf(line, sizeof(line), " %s=%g", k, a);
        out += line;
      }
      out += "\n";
    }
  }
  return out;
}

bool FlightRecorder::write(const std::string& path) const {
  return write_file(path, dump());
}

void FlightRecorder::dump_to_stderr() const {
  const std::string text = dump();
  std::fwrite(text.data(), 1, text.size(), stderr);
}

void FlightRecorder::clear() noexcept {
  for (auto& r : rings_) r.clear();
  recorded_ = 0;
}

FlightRecorder& flight() noexcept {
  thread_local FlightRecorder recorder;
  return recorder;
}

#ifndef PHI_TELEMETRY_OFF

namespace {

thread_local SpanLog* t_spans = nullptr;

extern "C" void phi_flight_abort_handler(int) {
  flight().dump_to_stderr();
  // Restore the default disposition and re-raise so the process still
  // dies with SIGABRT (core dumps, CI failure detection).
  std::signal(SIGABRT, SIG_DFL);
  std::raise(SIGABRT);
}

}  // namespace

void emit(const Event& e) noexcept {
  flight().note(e);
  if (SpanLog* log = t_spans) log->record(e);
}

SpanLog* spans() noexcept { return t_spans; }
void set_spans(SpanLog* log) noexcept { t_spans = log; }

void install_abort_handler() {
  std::signal(SIGABRT, phi_flight_abort_handler);
}

#endif  // PHI_TELEMETRY_OFF

}  // namespace phi::telemetry

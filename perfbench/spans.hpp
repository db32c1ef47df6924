// spans.hpp — host-time accounting for the benchmark's timing decorators.
// Each decorator opens a span around one call into a layer's public
// interface. A layer's self time is its span minus the child spans opened
// inside it, so a layer that calls another decorated layer (an advisor
// calling its aggregator) is not charged for the callee.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Calls into one layer interface and the host time they took.
struct Layer {
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;  ///< spans minus the child spans they cover
};

using ClockFn = std::uint64_t (*)();

/// Open spans of one thread, innermost last.
class SpanStack {
 public:
  explicit SpanStack(ClockFn clock) : clock_(clock) { open_.reserve(16); }

  /// One span: opened by the constructor, closed by the destructor (also
  /// when the wrapped call throws).
  class Scope {
   public:
    Scope(SpanStack& stack, Layer& layer) : stack_(stack) {
      stack_.open(layer);
    }
    ~Scope() { stack_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanStack& stack_;
  };

  std::size_t depth() const noexcept { return open_.size(); }

 private:
  struct Frame {
    Layer* layer;
    std::uint64_t start;
    std::uint64_t child_ns;
  };

  void open(Layer& layer) { open_.push_back({&layer, clock_(), 0}); }

  void close() {
    const Frame f = open_.back();
    open_.pop_back();
    const std::uint64_t dur = clock_() - f.start;
    ++f.layer->calls;
    f.layer->self_ns += dur - std::min(dur, f.child_ns);
    if (!open_.empty()) open_.back().child_ns += dur;
  }

  ClockFn clock_;
  std::vector<Frame> open_;
};

/// A span around a call that opens no other span. Needs no stack, so
/// each instance's Layer may live on the thread that runs it.
class LeafScope {
 public:
  LeafScope(Layer& layer, ClockFn clock)
      : layer_(layer), clock_(clock), start_(clock()) {}
  ~LeafScope() {
    const std::uint64_t dur = clock_() - start_;
    ++layer_.calls;
    layer_.self_ns += dur;
  }
  LeafScope(const LeafScope&) = delete;
  LeafScope& operator=(const LeafScope&) = delete;

 private:
  Layer& layer_;
  ClockFn clock_;
  std::uint64_t start_;
};

}  // namespace perfbench

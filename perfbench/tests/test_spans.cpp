// Self-time accounting of the benchmark's span stack, on a fake clock.
#include <gtest/gtest.h>

#include <stdexcept>

#include "spans.hpp"

namespace {

std::uint64_t fake_now = 0;
std::uint64_t fake_clock() { return fake_now; }

using perfbench::Layer;
using perfbench::SpanStack;

TEST(SpanStack, SelfTimeSubtractsNestedChildSpans) {
  SpanStack stack(fake_clock);
  Layer advisor, agg, root;
  fake_now = 100;
  {
    SpanStack::Scope a(stack, advisor);  // opens at 100
    fake_now = 110;
    {
      SpanStack::Scope g(stack, agg);  // opens at 110
      fake_now = 115;
      {
        SpanStack::Scope r(stack, root);  // 115..135
        fake_now = 135;
      }
      fake_now = 140;
    }  // agg closes at 140: span 30, child 20
    fake_now = 150;
    {
      SpanStack::Scope g(stack, agg);  // 150..155, no child
      fake_now = 155;
    }
    fake_now = 160;
  }  // advisor closes at 160: span 60, children 30 + 5
  EXPECT_EQ(stack.depth(), 0u);
  EXPECT_EQ(root.calls, 1u);
  EXPECT_EQ(root.self_ns, 20u);
  EXPECT_EQ(agg.calls, 2u);
  EXPECT_EQ(agg.self_ns, 15u);  // (30 - 20) + 5
  EXPECT_EQ(advisor.calls, 1u);
  EXPECT_EQ(advisor.self_ns, 25u);  // 60 - 30 - 5
  // Self times partition the outermost span (100..160).
  EXPECT_EQ(root.self_ns + agg.self_ns + advisor.self_ns, 60u);
}

TEST(SpanStack, SiblingTopLevelSpansDoNotCharge) {
  SpanStack stack(fake_clock);
  Layer a, b;
  fake_now = 0;
  {
    SpanStack::Scope s(stack, a);
    fake_now = 7;
  }
  {
    SpanStack::Scope s(stack, b);
    fake_now = 10;
  }
  EXPECT_EQ(a.self_ns, 7u);
  EXPECT_EQ(b.self_ns, 3u);
}

TEST(SpanStack, ThrowingCallStillClosesItsSpan) {
  SpanStack stack(fake_clock);
  Layer outer, inner;
  fake_now = 0;
  try {
    SpanStack::Scope o(stack, outer);
    SpanStack::Scope i(stack, inner);
    fake_now = 4;
    throw std::runtime_error("inner failed");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(stack.depth(), 0u);
  EXPECT_EQ(inner.calls, 1u);
  EXPECT_EQ(inner.self_ns, 4u);
  EXPECT_EQ(outer.self_ns, 0u);
}

TEST(LeafScope, ChargesWholeSpanAsSelf) {
  Layer cc;
  fake_now = 50;
  {
    perfbench::LeafScope s(cc, fake_clock);
    fake_now = 62;
  }
  EXPECT_EQ(cc.calls, 1u);
  EXPECT_EQ(cc.self_ns, 12u);
}

}  // namespace

#include "sim/self_profiler.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace hwatch::sim {
namespace {

TEST(SelfProfiler, DisabledScopeRecordsNothing) {
  SelfProfiler p;
  ASSERT_FALSE(p.enabled());
  { ProfScope scope(p, ProfComponent::kLinkTx); }
  { ProfScope scope(p, ProfComponent::kShim); }
  for (std::size_t c = 0; c < kProfComponents; ++c) {
    EXPECT_EQ(p.stats(static_cast<ProfComponent>(c)).calls, 0u);
  }
}

TEST(SelfProfiler, EnabledScopeAttributesToItsComponent) {
  SelfProfiler p;
  p.set_enabled(true);
  { ProfScope scope(p, ProfComponent::kTcpSender); }
  { ProfScope scope(p, ProfComponent::kTcpSender); }
  { ProfScope scope(p, ProfComponent::kTcpSink); }
  EXPECT_EQ(p.stats(ProfComponent::kTcpSender).calls, 2u);
  EXPECT_EQ(p.stats(ProfComponent::kTcpSink).calls, 1u);
  EXPECT_EQ(p.stats(ProfComponent::kLinkTx).calls, 0u);
  // A recorded handler lands in exactly one histogram bucket per call.
  std::uint64_t bucketed = 0;
  for (std::uint64_t n : p.stats(ProfComponent::kTcpSender).hist) {
    bucketed += n;
  }
  EXPECT_EQ(bucketed, 2u);
  EXPECT_GE(p.stats(ProfComponent::kTcpSender).total_ns,
            p.stats(ProfComponent::kTcpSender).max_ns);
}

TEST(SelfProfiler, ClockIsMonotonic) {
  SelfProfiler p;
  const std::uint64_t a = p.now_ns();
  const std::uint64_t b = p.now_ns();
  EXPECT_GE(b, a);
}

TEST(SelfProfiler, RecordUsesExplicitStart) {
  SelfProfiler p;
  p.set_enabled(true);
  // t0 = 0 makes the measured duration now_ns() itself — a large value
  // that must land in the overflow bucket and set max_ns.
  p.record(ProfComponent::kShim, 0);
  const auto& s = p.stats(ProfComponent::kShim);
  EXPECT_EQ(s.calls, 1u);
  EXPECT_GT(s.max_ns, 0u);
  EXPECT_EQ(s.hist[SelfProfiler::kBuckets], 1u);
}

TEST(SelfProfiler, ReportMentionsComponentsAndEventLoop) {
  SelfProfiler p;
  p.set_enabled(true);
  { ProfScope scope(p, ProfComponent::kLinkTx); }
  EventLoopStats loop;
  loop.events_executed = 1000;
  loop.events_scheduled = 1200;
  loop.heap_peak = 37;
  loop.wall_ns = 5'000'000;
  std::ostringstream os;
  p.report(os, &loop);
  const std::string out = os.str();
  EXPECT_NE(out.find("link_tx"), std::string::npos);
  EXPECT_NE(out.find("self-profile"), std::string::npos);
  EXPECT_NE(out.find("1000"), std::string::npos);
}

TEST(SelfProfiler, BucketBoundsAreAscending) {
  const auto& bounds = SelfProfiler::bucket_bounds_ns();
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(ProgressMeter, TickCountsUnits) {
  ProgressMeter meter(3, "unit-test");
  EXPECT_EQ(meter.done(), 0u);
  meter.tick();
  meter.tick();
  EXPECT_EQ(meter.done(), 2u);
  meter.tick();
  EXPECT_EQ(meter.done(), 3u);
}

}  // namespace
}  // namespace hwatch::sim

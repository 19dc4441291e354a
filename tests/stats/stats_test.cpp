#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <vector>

#include "sim/metrics.hpp"
#include "stats/cdf.hpp"
#include "stats/flow_record.hpp"
#include "stats/table.hpp"

namespace hwatch::stats {
namespace {

TEST(CdfTest, EmptyCdfIsSafe) {
  Cdf cdf;
  EXPECT_TRUE(cdf.empty());
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(1.0), 0.0);
  EXPECT_EQ(cdf.summarize().count, 0u);
  EXPECT_TRUE(cdf.series().empty());
}

TEST(CdfTest, SingleSample) {
  Cdf cdf({42.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 42.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(41.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(42.0), 1.0);
}

TEST(CdfTest, QuantilesInterpolateLinearly) {
  Cdf cdf({0.0, 10.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 2.5);
}

TEST(CdfTest, QuantileClampsOutOfRange) {
  Cdf cdf({1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.5), 3.0);
}

TEST(CdfTest, UnsortedInputIsSorted) {
  Cdf cdf({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 3.0);
  const auto& sorted = cdf.sorted_samples();
  EXPECT_TRUE(std::is_sorted(sorted.begin(), sorted.end()));
}

TEST(CdfTest, AddKeepsStatisticsCurrent) {
  Cdf cdf;
  cdf.add(3.0);
  cdf.add(1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  cdf.add(0.5);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 0.5);
}

TEST(CdfTest, SummaryMeanVariance) {
  Cdf cdf({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  const Summary s = cdf.summarize();
  EXPECT_EQ(s.count, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  // Sample variance: sum sq dev = 32, / 7.
  EXPECT_NEAR(s.variance, 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
}

TEST(CdfTest, FractionBelowMatchesDefinition) {
  Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_below(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(4.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(0.5), 0.0);
}

TEST(CdfTest, SeriesIsMonotonic) {
  Cdf cdf;
  std::uint64_t x = 5;
  for (int i = 0; i < 100; ++i) {
    x = x * 6364136223846793005ull + 1;
    cdf.add(static_cast<double>(x % 1000));
  }
  const auto series = cdf.series(20);
  ASSERT_EQ(series.size(), 21u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].first, series[i - 1].first);
    EXPECT_GT(series[i].second, series[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

TEST(FlowRecordTest, FctSamplesSkipIncomplete) {
  std::vector<FlowRecord> records(3);
  records[0].completed = true;
  records[0].fct = sim::milliseconds(5);
  records[1].completed = false;
  records[2].completed = true;
  records[2].fct = sim::milliseconds(15);
  const auto samples = fct_ms_samples(records);
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0], 5.0);
  EXPECT_DOUBLE_EQ(samples[1], 15.0);
}

TEST(FlowRecordTest, GoodputSamplesInGbps) {
  std::vector<FlowRecord> records(1);
  records[0].goodput_bps = 2.5e9;
  const auto samples = goodput_gbps_samples(records);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0], 2.5);
}

TEST(TableTest, PrintsAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TableTest, RejectsWrongWidth) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(MeanOfTest, Basics) {
  EXPECT_DOUBLE_EQ(mean_of({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_of({2.0, 4.0}), 3.0);
}

TEST(JainFairnessTest, PerfectEqualityIsOne) {
  EXPECT_DOUBLE_EQ(jain_fairness({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({1.0}), 1.0);
}

TEST(JainFairnessTest, StarvationApproachesOneOverN) {
  // One flow hogging everything: index -> 1/n.
  const double idx = jain_fairness({10.0, 0.0, 0.0, 0.0});
  EXPECT_NEAR(idx, 0.25, 1e-12);
}

TEST(JainFairnessTest, EdgeCases) {
  EXPECT_DOUBLE_EQ(jain_fairness({}), 0.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0.0, 0.0}), 0.0);
}

TEST(JainFairnessTest, OrderInvariant) {
  EXPECT_DOUBLE_EQ(jain_fairness({1.0, 2.0, 3.0}),
                   jain_fairness({3.0, 1.0, 2.0}));
}

TEST(Percentiles, EmptyHistogramIsAllZero) {
  const Percentiles p =
      percentiles(std::vector<double>{1, 2, 4}, {0, 0, 0, 0});
  EXPECT_EQ(p.count, 0u);
  EXPECT_EQ(p.p50, 0);
  EXPECT_EQ(p.p95, 0);
  EXPECT_EQ(p.p99, 0);
  EXPECT_EQ(p.p999, 0);
}

TEST(Percentiles, SingleBucketInterpolatesFromZero) {
  // All four samples in (0, 10]: rank q*4 interpolates linearly.
  const Percentiles p = percentiles(std::vector<double>{10}, {4, 0});
  EXPECT_EQ(p.count, 4u);
  EXPECT_DOUBLE_EQ(p.p50, 5.0);
  EXPECT_DOUBLE_EQ(p.p95, 9.5);
  EXPECT_DOUBLE_EQ(p.p99, 9.9);
  EXPECT_DOUBLE_EQ(p.p999, 9.99);
}

TEST(Percentiles, OverflowBucketUsesHint) {
  // Both samples beyond the last bound; the overflow bucket spans
  // (10, hint] when a hint is given, else collapses to the last bound.
  const Percentiles with_hint =
      percentiles(std::vector<double>{10}, {0, 2}, /*overflow_hint=*/30);
  EXPECT_DOUBLE_EQ(with_hint.p50, 20.0);
  const Percentiles no_hint = percentiles(std::vector<double>{10}, {0, 2});
  EXPECT_DOUBLE_EQ(no_hint.p50, 10.0);
  EXPECT_DOUBLE_EQ(no_hint.p999, 10.0);
}

TEST(Percentiles, SkipsEmptyBucketsBetweenRanks) {
  // 10 samples <= 1, then a gap, then 10 in (4, 8]: the median sits at
  // the top of the first bucket, the p95 inside the last.
  const Percentiles p =
      percentiles(std::vector<double>{1, 2, 4, 8}, {10, 0, 0, 10, 0});
  EXPECT_EQ(p.count, 20u);
  EXPECT_DOUBLE_EQ(p.p50, 1.0);
  EXPECT_DOUBLE_EQ(p.p95, 4.0 + 4.0 * 0.9);
}

TEST(Percentiles, HistogramOverloadUsesRecordedMax) {
  sim::MetricsRegistry reg;
  reg.set_enabled(true);
  sim::Histogram& h = reg.histogram("t", {10.0});
  h.record(12);  // overflow bucket; max = 12 becomes the hint
  h.record(12);
  const Percentiles p = percentiles(h);
  EXPECT_EQ(p.count, 2u);
  EXPECT_DOUBLE_EQ(p.p50, 11.0);  // halfway through (10, 12]
}

}  // namespace
}  // namespace hwatch::stats

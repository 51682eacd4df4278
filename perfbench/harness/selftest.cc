// Unit tests of the harness's own code: order statistics, metric naming,
// span self time and the result line's schema.  The workload smoke runs
// live in perfbench/test_perfbench.py.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "report.h"

namespace perfbench {
namespace {

TEST(Median, OddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_THROW((void)Median({}), std::invalid_argument);
}

// Expected values are Python's statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonExclusiveMethod) {
  const Quartiles ten = ComputeQuartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(ten.q1, 2.75);
  EXPECT_DOUBLE_EQ(ten.q2, 5.5);
  EXPECT_DOUBLE_EQ(ten.q3, 8.25);
  // With two values the method extrapolates past both ends.
  const Quartiles two = ComputeQuartiles({10, 20});
  EXPECT_DOUBLE_EQ(two.q1, 7.5);
  EXPECT_DOUBLE_EQ(two.q2, 15.0);
  EXPECT_DOUBLE_EQ(two.q3, 22.5);
  const Quartiles five = ComputeQuartiles({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(five.q1, 1.5);
  EXPECT_DOUBLE_EQ(five.q2, 3.0);
  EXPECT_DOUBLE_EQ(five.q3, 4.5);
  EXPECT_THROW((void)ComputeQuartiles({1.0}), std::invalid_argument);
}

TEST(MetricName, AllowsOnlyTheBenchmarkAlphabet) {
  EXPECT_TRUE(ValidMetricName("probes_per_s"));
  EXPECT_TRUE(ValidMetricName("telescope.fold_ns_per_event"));
  EXPECT_TRUE(ValidMetricName("sim.study.trial_s-p50"));
  EXPECT_TRUE(ValidMetricName("0ratio"));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_FALSE(ValidMetricName(".leading_dot"));
  EXPECT_FALSE(ValidMetricName("_leading_underscore"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName("slash/in/name"));
  EXPECT_FALSE(ValidMetricName("quote\"name"));
}

TEST(Spans, SelfTimeIsDurationMinusChildren) {
  SpanRecorder spans;
  const int root = spans.Add(Span{"root", -1, 100, 200});
  spans.Add(Span{"child", root, 110, 130});
  spans.Add(Span{"child", root, 150, 160});
  EXPECT_EQ(spans.SelfNs(root), 70u);
  EXPECT_EQ(spans.SelfNs(1), 20u);
  EXPECT_EQ(spans.TotalSelfNs("child"), 30u);
  EXPECT_EQ(spans.TotalSelfNs("root"), 70u);
}

TEST(Spans, OverlappingAndGrandchildrenCountOnce) {
  SpanRecorder spans;
  const int root = spans.Add(Span{"run", -1, 0, 100});
  // Two parallel shards overlap in [20, 40]; their union is [10, 60].
  const int a = spans.Add(Span{"fold", root, 10, 40});
  spans.Add(Span{"fold", root, 20, 60});
  // A grandchild is covered by its parent, not by the root directly.
  spans.Add(Span{"leaf", a, 15, 25});
  // A child reaching past its parent is clipped to the parent.
  spans.Add(Span{"fold", root, 90, 120});
  EXPECT_EQ(spans.SelfNs(root), 100u - 50u - 10u);
  EXPECT_EQ(spans.SelfNs(a), 20u);
}

TEST(Spans, OpenThenCloseParent) {
  SpanRecorder spans;
  const int run = spans.Add(Span{"run", -1, 10, 10});
  spans.Add(Span{"merge", run, 12, 14});
  spans.Close(run, 20);
  EXPECT_EQ(spans.SelfNs(run), 8u);
  EXPECT_THROW(spans.Close(run, 5), std::invalid_argument);
  EXPECT_THROW(spans.Add(Span{"bad", -1, 5, 4}), std::invalid_argument);
  EXPECT_THROW(spans.Add(Span{"orphan", 9, 1, 2}), std::invalid_argument);
}

TEST(ReportSchema, CorrectRunCarriesEveryMetric) {
  Report report;
  report.set_attempted(12);
  report.Metric("wall_s", 0.8127, "s");
  report.Metric("probes_per_s", 1.25e7, "1/s");
  EXPECT_EQ(report.Json(),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
            "\"metrics\": {\"probes_per_s\": {\"value\": 12500000, \"unit\": "
            "\"1/s\"}, \"wall_s\": {\"value\": 0.81269999999999998, "
            "\"unit\": \"s\"}}}");
}

TEST(ReportSchema, FailedRunFailsEveryAttemptAndYieldsNoNumber) {
  Report report;
  report.set_attempted(5);
  report.Metric("wall_s", 1.0, "s");
  report.Fail("fingerprint mismatch");
  EXPECT_FALSE(report.correct());
  EXPECT_EQ(report.Json(),
            "{\"correct\": false, \"attempted\": 5, \"failed\": 5, "
            "\"metrics\": {}}");
}

TEST(ReportSchema, RejectsBadNamesUnitsAndValues) {
  Report report;
  EXPECT_THROW(report.Metric("bad name", 1.0, "s"), std::invalid_argument);
  EXPECT_THROW(report.Metric("ok", 1.0, "seconds and more"),
               std::invalid_argument);
  EXPECT_THROW(report.Metric("ok", 1.0, ""), std::invalid_argument);
  EXPECT_THROW(report.Metric("ok", 1.0 / 0.0, "s"), std::invalid_argument);
  EXPECT_TRUE(report.metrics().empty());
}

}  // namespace
}  // namespace perfbench

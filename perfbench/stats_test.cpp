// Tests of the driver's statistics on synthetic inputs: the percentile
// rule, the capacity-ladder search, the backlog rule and the span
// self-time attribution.
#include "stats.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <string>
#include <vector>

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, NearestRankOnMeasuredSamples) {
  const std::vector<double> v = one_to(1000);
  EXPECT_EQ(percentile(v, 0.99), 990.0);
  EXPECT_EQ(percentile(v, 0.5), 500.0);
  EXPECT_EQ(percentile(v, 1.0), 1000.0);
  EXPECT_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);  // unsorted input
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, SamplesBeyondDecideWhetherP99IsReported) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10);
  EXPECT_GE(samples_beyond(1000, 0.99), kMinBeyond);
  EXPECT_LT(samples_beyond(999, 0.99), kMinBeyond);
  EXPECT_EQ(samples_beyond(2400, 0.99), 24);
  EXPECT_EQ(samples_beyond(0, 0.99), 0);
}

TEST(Percentile, FailedQueriesCountAsOverTheLimit) {
  // The driver records a failed query as +inf: it raises the tail
  // instead of pulling it down with an instant error reply.
  std::vector<double> v = one_to(1000);
  for (int i = 0; i < 20; ++i) v[static_cast<std::size_t>(i)] = kInf;
  EXPECT_EQ(percentile(v, 0.99), kInf);
  EXPECT_EQ(percentile(v, 0.5), 520.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(Backlog, StableQueueDoesNotGrow) {
  std::vector<double> flat(400, 3.0);
  flat[10] = 30.0;  // one stall is not a growing backlog
  EXPECT_FALSE(backlog_grows(flat, 1.0));
}

TEST(Backlog, LinearGrowthIsDetected) {
  std::vector<double> growing;
  for (int i = 0; i < 400; ++i) growing.push_back(3.0 + 0.1 * i);
  EXPECT_TRUE(backlog_grows(growing, 1.0));
}

TEST(Ladder, FixedAbsoluteRungsAtMostFivePercentApart) {
  const std::vector<double> rungs = make_ladder(100.0, 20000.0, 1.05);
  ASSERT_GT(rungs.size(), 100u);
  EXPECT_DOUBLE_EQ(rungs.front(), 100.0);
  EXPECT_LE(rungs.back(), 20000.0);
  for (std::size_t i = 1; i < rungs.size(); ++i) {
    EXPECT_LE(rungs[i] / rungs[i - 1], 1.05 + 1e-12);
  }
  EXPECT_EQ(make_ladder(100.0, 20000.0, 1.05), rungs);
}

TEST(Ladder, FindsTheKneeFromBelowAndAbove) {
  for (int knee : {0, 1, 7, 16, 17, 40, 99}) {
    for (int start : {0, 5, 20, 60, 99}) {
      int probes = 0;
      const int found = ladder_search(100, start, [&](int rung) {
        ++probes;
        return rung <= knee;
      });
      EXPECT_EQ(found, knee) << "knee " << knee << " start " << start;
      EXPECT_LE(probes, 20);
    }
  }
}

TEST(Ladder, NoPassingRungAndEveryRungPassing) {
  EXPECT_EQ(ladder_search(50, 10, [](int) { return false; }), -1);
  EXPECT_EQ(ladder_search(50, 10, [](int) { return true; }), 49);
  EXPECT_EQ(ladder_search(0, 0, [](int) { return true; }), -1);
}

TEST(Ladder, ProbesEachRungAtMostOnce) {
  std::vector<int> probed;
  ladder_search(100, 10, [&](int rung) {
    probed.push_back(rung);
    return rung <= 33;
  });
  std::vector<int> sorted = probed;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
}

TEST(Trace, ParsesTheChromeExportFormat) {
  const std::string json =
      "{\"traceEvents\":[\n"
      "{\"name\":\"train.update\",\"cat\":\"train\",\"ph\":\"X\",\"ts\":10.000,"
      "\"dur\":100.000,\"pid\":1,\"tid\":1},\n"
      "{\"name\":\"ad.backward\",\"cat\":\"ad\",\"ph\":\"X\",\"ts\":20.500,"
      "\"dur\":30.250,\"pid\":1,\"tid\":2}\n"
      "]}\n";
  const std::vector<Span> spans = parse_chrome_trace(json);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "train.update");
  EXPECT_DOUBLE_EQ(spans[1].ts_us, 20.5);
  EXPECT_DOUBLE_EQ(spans[1].dur_us, 30.25);
  EXPECT_EQ(spans[1].tid, 2);
}

TEST(Trace, SelfTimeSubtractsDirectChildrenOnly) {
  // update [0,100) > policy [10,60) > forward [20,40); backward [60,90)
  // is a second child of update. Another thread's span overlapping in
  // time is not a child.
  const SpanTree tree = build_span_tree({
      {"train.update", 0.0, 100.0, 1},
      {"nn.policy_forward", 20.0, 20.0, 1},
      {"train.update_policy", 10.0, 50.0, 1},
      {"ad.backward", 60.0, 30.0, 1},
      {"plan.check", 5.0, 90.0, 2},
  });
  std::map<std::string, double> self;
  std::map<std::string, std::string> parent;
  for (std::size_t i = 0; i < tree.spans.size(); ++i) {
    self[tree.spans[i].name] = tree.self_us[i];
    const int p = tree.parent[i];
    parent[tree.spans[i].name] =
        p < 0 ? "" : tree.spans[static_cast<std::size_t>(p)].name;
  }
  EXPECT_DOUBLE_EQ(self["train.update"], 20.0);
  EXPECT_DOUBLE_EQ(self["train.update_policy"], 30.0);
  EXPECT_DOUBLE_EQ(self["nn.policy_forward"], 20.0);
  EXPECT_DOUBLE_EQ(self["ad.backward"], 30.0);
  EXPECT_DOUBLE_EQ(self["plan.check"], 90.0);
  EXPECT_EQ(parent["nn.policy_forward"], "train.update_policy");
  EXPECT_EQ(parent["ad.backward"], "train.update");
  EXPECT_EQ(parent["plan.check"], "");
  const auto index_of = [&](const std::string& name) {
    for (std::size_t i = 0; i < tree.spans.size(); ++i) {
      if (tree.spans[i].name == name) return static_cast<int>(i);
    }
    return -1;
  };
  EXPECT_TRUE(tree.inside(index_of("nn.policy_forward"), "train.update"));
  EXPECT_FALSE(tree.inside(index_of("plan.check"), "train.update"));
}

TEST(Trace, SequentialSpansAreSiblingsAndOverhangIsClipped) {
  // Two back-to-back solves: the second starts where the first ends and
  // must not nest in it. A child overhanging its parent's end by a
  // rounding step is clipped, so self time never goes negative.
  const SpanTree tree = build_span_tree({
      {"plan.check", 0.0, 50.0, 1},
      {"simplex.solve", 0.0, 25.0, 1},
      {"simplex.solve", 25.0, 25.001, 1},
  });
  ASSERT_EQ(tree.spans.size(), 3u);
  EXPECT_EQ(tree.parent[1], 0);
  EXPECT_EQ(tree.parent[2], 0);
  EXPECT_NEAR(tree.self_us[0], 0.0, 1e-9);
  EXPECT_GE(tree.self_us[0], 0.0);
}

}  // namespace
}  // namespace perfbench

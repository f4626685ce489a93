// Tests of the benchmark's own arithmetic (src/stats.hpp): the ten-beyond
// percentile rule, histogram-delta percentiles, the open-loop schedule and
// span self time.
#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NearestRankAndTenBeyondRule) {
  // 1000 samples 1..1000: p99 is rank 990, with 10 samples beyond it.
  const Percentile p99 = percentile(iota(1000), 0.99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.n, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.supported());
  // 999 samples: rank 990 leaves only 9 beyond, so p99 is not supported.
  const Percentile short99 = percentile(iota(999), 0.99);
  EXPECT_EQ(short99.value, 990);
  EXPECT_EQ(short99.beyond, 9u);
  EXPECT_FALSE(short99.supported());
  // p90 needs 100 samples.
  EXPECT_TRUE(percentile(iota(100), 0.9).supported());
  EXPECT_FALSE(percentile(iota(99), 0.9).supported());
}

TEST(Percentile, OrderIndependentAndMedian) {
  std::vector<double> v{5, 1, 4, 2, 3};
  EXPECT_EQ(percentile(v, 0.5).value, 3);
  EXPECT_EQ(median({4, 1, 3, 2}), 2);  // nearest rank: ceil(0.5 * 4) = 2
  EXPECT_EQ(percentile({7}, 0.99).value, 7);
  EXPECT_EQ(percentile({}, 0.5).n, 0u);
  EXPECT_FALSE(percentile({}, 0.5).supported());
}

TEST(Percentile, FailuresLieBeyondEveryLimit) {
  // 980 fast answers and 20 failures (+inf): p99 is a failure.
  std::vector<double> v(980, 50.0);
  v.insert(v.end(), 20, kInf);
  EXPECT_EQ(percentile(v, 0.99).value, kInf);
  EXPECT_EQ(percentile(v, 0.5).value, 50.0);
}

TEST(HistDelta, PercentileOfTheDelta) {
  const int shift = 12;  // 4096 ns buckets
  std::vector<std::uint64_t> before(8, 0), after(8, 0);
  before[0] = 500;  // only the delta counts
  after[0] = 500;
  after[1] = 60;    // [4096, 8192) ns
  after[2] = 30;
  after[5] = 10;
  const Percentile p50 = hist_delta_percentile(before, after, shift, 0.5);
  EXPECT_EQ(p50.n, 100u);
  EXPECT_DOUBLE_EQ(p50.value, 8.192);  // upper edge of bucket 1, in us
  EXPECT_EQ(p50.beyond, 40u);
  const Percentile p90 = hist_delta_percentile(before, after, shift, 0.9);
  EXPECT_DOUBLE_EQ(p90.value, 3 * 4.096);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_TRUE(p90.supported());
  const Percentile p99 = hist_delta_percentile(before, after, shift, 0.99);
  EXPECT_DOUBLE_EQ(p99.value, 6 * 4.096);
  EXPECT_EQ(p99.beyond, 0u);
  EXPECT_FALSE(p99.supported());
  EXPECT_EQ(hist_delta_percentile(after, after, shift, 0.5).n, 0u);
}

TEST(OpenLoopSchedule, DueTimesAndCounts) {
  const OpenLoopSchedule s{4000.0};  // one request every 250 us
  EXPECT_EQ(s.due_ns(0), 0);
  EXPECT_EQ(s.due_ns(1), 250'000);
  EXPECT_EQ(s.due_ns(4000), 1'000'000'000);
  EXPECT_EQ(s.count(1.0), 4000u);  // due times in [0, 1 s)
  EXPECT_EQ(s.count(0.0), 0u);
  EXPECT_EQ(s.due_by(-1), 0u);
  EXPECT_EQ(s.due_by(0), 1u);
  EXPECT_EQ(s.due_by(249'999), 1u);
  EXPECT_EQ(s.due_by(250'000), 2u);
  // Consistency at a rate whose spacing is not a whole number of ns.
  const OpenLoopSchedule odd{3000.0};
  for (std::uint64_t i = 1; i < 10'000; ++i) {
    ASSERT_LT(odd.due_ns(i - 1), odd.due_ns(i));
    ASSERT_EQ(odd.due_by(odd.due_ns(i)), i + 1);
    ASSERT_EQ(odd.due_by(odd.due_ns(i) - 1), i);
  }
  EXPECT_EQ(odd.count(2.0), 6000u);
}

Span span(std::uint32_t id, std::uint32_t parent, const char* name, Ns a, Ns b) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start = a;
  s.end = b;
  return s;
}

TEST(SelfTime, ChildrenAreSubtractedOnce) {
  // query [0,100] has a search [10,60] with two overlapping thread spans
  // [10,50] and [20,60], and a merge [60,90].
  const std::vector<Span> spans{
      span(1, 0, "query", 0, 100), span(2, 1, "search", 10, 60),
      span(3, 2, "thread", 10, 50), span(4, 2, "thread", 20, 60),
      span(5, 1, "merge", 60, 90)};
  const auto t = self_times(spans);
  EXPECT_EQ(t.at("query").self, 20);  // 100 - (50 + 30)
  EXPECT_EQ(t.at("query").total, 100);
  EXPECT_EQ(t.at("search").self, 0);  // threads cover [10,60]
  EXPECT_EQ(t.at("thread").count, 2u);
  EXPECT_EQ(t.at("thread").self, 80);
  EXPECT_EQ(t.at("merge").self, 30);
}

TEST(SelfTime, ChildOutsideParentIsClipped) {
  const std::vector<Span> spans{span(1, 0, "a", 100, 200),
                                span(2, 1, "b", 50, 150),
                                span(3, 1, "c", 190, 400)};
  const auto t = self_times(spans);
  EXPECT_EQ(t.at("a").self, 100 - 50 - 10);
}

}  // namespace
}  // namespace perfbench

// Property tests for the quantile machinery: Greenwald-Khanna summaries
// (sketch/gk_summary.h) and the exponential histogram of summaries
// (sketch/exponential_histogram.h, §5.2).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "hwmodel/hardware_profiles.h"
#include "sketch/exact.h"
#include "sketch/exponential_histogram.h"
#include "sketch/gk_summary.h"
#include "sketch/kll.h"
#include "sketch/quantile_sketch.h"
#include "sketch/serialize.h"
#include "sketch/wire.h"
#include "sort/radix_sort.h"

namespace streamgpu::sketch {
namespace {

// Checks that `value` answers a rank-r query over `sorted` within
// `allowed` ranks (using 1-based ranks; duplicates give the value a rank
// interval).
::testing::AssertionResult RankWithin(const std::vector<float>& sorted, float value,
                                      double target_rank, double allowed) {
  const auto [lo0, hi0] = ExactRankRange(sorted, value);
  const double lo = static_cast<double>(lo0) + 1;  // 1-based
  const double hi = static_cast<double>(hi0) + 1;
  if (lo - allowed <= target_rank && target_rank <= hi + allowed) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "value " << value << " has rank range [" << lo << "," << hi
         << "], target " << target_rank << " allowed +-" << allowed;
}

std::vector<float> RandomValues(std::size_t n, unsigned seed, int domain = 0) {
  std::mt19937 rng(seed);
  std::vector<float> v(n);
  if (domain > 0) {
    std::uniform_int_distribution<int> d(0, domain - 1);
    for (float& x : v) x = static_cast<float>(d(rng));
  } else {
    std::uniform_real_distribution<float> d(0.0f, 1e6f);
    for (float& x : v) x = d(rng);
  }
  return v;
}

// --- GkSummary::FromSorted ---

TEST(GkFromSortedTest, ExactWhenStepIsOne) {
  std::vector<float> w{1, 2, 3, 4, 5};
  const auto s = GkSummary::FromSorted(w, 0.01);  // step = max(1, 0) = 1
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s.epsilon(), 0.0);
  EXPECT_EQ(s.count(), 5u);
  for (std::uint64_t r = 1; r <= 5; ++r) {
    EXPECT_EQ(s.QueryRank(r), w[r - 1]);
  }
}

TEST(GkFromSortedTest, SamplingRespectsTargetEpsilon) {
  auto w = RandomValues(10000, 1);
  std::sort(w.begin(), w.end());
  for (double eps : {0.001, 0.01, 0.05, 0.2}) {
    const auto s = GkSummary::FromSorted(w, eps);
    EXPECT_LE(s.epsilon(), eps);
    // Space ~ 1/(2 eps) + 2.
    EXPECT_LE(s.size(), static_cast<std::size_t>(1.0 / (2.0 * eps)) + 3) << eps;
    // Every rank is answerable within eps * n.
    const double allowed = eps * 10000.0 + 1;
    for (std::uint64_t r = 1; r <= 10000; r += 97) {
      EXPECT_TRUE(RankWithin(w, s.QueryRank(r), static_cast<double>(r), allowed));
    }
  }
}

TEST(GkFromSortedTest, FirstAndLastRanksPresent) {
  auto w = RandomValues(1000, 2);
  std::sort(w.begin(), w.end());
  const auto s = GkSummary::FromSorted(w, 0.1);
  EXPECT_EQ(s.tuples().front().rmin, 1u);
  EXPECT_EQ(s.tuples().back().rmax, 1000u);
}

TEST(GkFromSortedTest, EmptyWindow) {
  const auto s = GkSummary::FromSorted({}, 0.1);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
}

TEST(GkFromSortedTest, AcceptsTheSortersNaNOrder) {
  // The sorters put sign-set NaNs first and sign-clear NaNs last, where
  // operator<= is false both ways; FromSorted checks the sorters' canonical
  // order instead, so a Debug build takes the window.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<float> w{3.0f, nan, -nan, 1.0f, -0.0f, 0.0f, inf, -inf, 2.0f};
  sort::RadixMergeSorter sorter(hwmodel::kPentium4_3400);
  sorter.Sort(std::span(w));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(w.front()), std::bit_cast<std::uint32_t>(-nan));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(w.back()), std::bit_cast<std::uint32_t>(nan));
  const GkSummary s = GkSummary::FromSorted(w, 1e-3);
  ASSERT_EQ(s.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(s.tuples()[i].value),
              std::bit_cast<std::uint32_t>(w[i]));
    EXPECT_EQ(s.tuples()[i].rmin, i + 1);
  }
}

// --- Rank-bound soundness: rmin/rmax must always bracket a realizable ---
// --- rank of the tuple's value.                                        ---

void CheckTupleSoundness(const GkSummary& s, const std::vector<float>& sorted) {
  for (const GkTuple& t : s.tuples()) {
    const auto [lo0, hi0] = ExactRankRange(sorted, t.value);
    EXPECT_LE(t.rmin, hi0 + 1) << "rmin beyond the value's highest rank for " << t.value;
    EXPECT_GE(t.rmax, lo0 + 1) << "rmax below the value's lowest rank for " << t.value;
    EXPECT_LE(t.rmin, t.rmax);
    EXPECT_GE(t.rmin, 1u);
    EXPECT_LE(t.rmax, s.count());
  }
}

struct MergeCase {
  std::size_t na;
  std::size_t nb;
  int domain;  // 0 = continuous
  double eps;
};

class GkMergeProperty : public ::testing::TestWithParam<MergeCase> {};

TEST_P(GkMergeProperty, MergedSummaryAnswersWithinEpsilon) {
  const MergeCase& p = GetParam();
  auto a = RandomValues(p.na, 31, p.domain);
  auto b = RandomValues(p.nb, 32, p.domain);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const GkSummary sa = GkSummary::FromSorted(a, p.eps);
  const GkSummary sb = GkSummary::FromSorted(b, p.eps);
  const GkSummary merged = GkSummary::Merge(sa, sb);

  std::vector<float> all;
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());

  ASSERT_EQ(merged.count(), all.size());
  EXPECT_LE(merged.epsilon(), p.eps);
  CheckTupleSoundness(merged, all);

  const double allowed = merged.epsilon() * static_cast<double>(all.size()) + 1;
  for (double phi : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
    const double target = std::ceil(phi * static_cast<double>(all.size()));
    EXPECT_TRUE(RankWithin(all, merged.Query(phi), target, allowed)) << "phi=" << phi;
  }
}

TEST_P(GkMergeProperty, PruneKeepsEpsilonPlusHalfOverB) {
  const MergeCase& p = GetParam();
  auto a = RandomValues(p.na, 41, p.domain);
  auto b = RandomValues(p.nb, 42, p.domain);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  GkSummary merged =
      GkSummary::Merge(GkSummary::FromSorted(a, p.eps), GkSummary::FromSorted(b, p.eps));

  const std::size_t kB = 20;
  const GkSummary pruned = merged.Prune(kB);
  EXPECT_LE(pruned.size(), kB + 1);
  EXPECT_LE(pruned.epsilon(), merged.epsilon() + 1.0 / (2.0 * kB) + 1e-12);

  std::vector<float> all;
  all.insert(all.end(), a.begin(), a.end());
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  CheckTupleSoundness(pruned, all);

  const double allowed = pruned.epsilon() * static_cast<double>(all.size()) + 1;
  for (double phi : {0.05, 0.3, 0.5, 0.8, 0.95}) {
    const double target = std::ceil(phi * static_cast<double>(all.size()));
    EXPECT_TRUE(RankWithin(all, pruned.Query(phi), target, allowed)) << "phi=" << phi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GkMergeProperty,
    ::testing::Values(MergeCase{1000, 1000, 0, 0.05}, MergeCase{1000, 1000, 10, 0.05},
                      MergeCase{5000, 100, 0, 0.02}, MergeCase{100, 5000, 7, 0.02},
                      MergeCase{2048, 2048, 3, 0.01}, MergeCase{777, 1234, 50, 0.05}),
    [](const ::testing::TestParamInfo<MergeCase>& info) {
      return "na" + std::to_string(info.param.na) + "_nb" + std::to_string(info.param.nb) +
             "_dom" + std::to_string(info.param.domain) + "_eps" +
             std::to_string(static_cast<int>(1.0 / info.param.eps));
    });

TEST(GkMergeTest, MergeWithEmptyIsIdentity) {
  auto a = RandomValues(100, 51);
  std::sort(a.begin(), a.end());
  const GkSummary s = GkSummary::FromSorted(a, 0.1);
  const GkSummary e;
  EXPECT_EQ(GkSummary::Merge(s, e).count(), 100u);
  EXPECT_EQ(GkSummary::Merge(e, s).count(), 100u);
  EXPECT_EQ(GkSummary::Merge(e, e).count(), 0u);
}

TEST(GkMergeTest, ChainOfMergesStaysTightOnDuplicates) {
  // Regression: merging many summaries of heavily duplicated data must not
  // blow up rank intervals (requires a consistent tie order).
  std::mt19937 rng(61);
  std::uniform_int_distribution<int> d(0, 4);  // only five distinct values
  GkSummary acc;
  std::vector<float> all;
  for (int block = 0; block < 50; ++block) {
    std::vector<float> w(200);
    for (float& v : w) v = static_cast<float>(d(rng));
    all.insert(all.end(), w.begin(), w.end());
    std::sort(w.begin(), w.end());
    acc = GkSummary::Merge(acc, GkSummary::FromSorted(w, 0.02));
  }
  std::sort(all.begin(), all.end());
  const double allowed = acc.epsilon() * static_cast<double>(all.size()) + 1;
  for (double phi : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double target = std::ceil(phi * static_cast<double>(all.size()));
    EXPECT_TRUE(RankWithin(all, acc.Query(phi), target, allowed)) << phi;
  }
}

TEST(GkMergeTest, MergeOrderDoesNotBreakGuarantees) {
  // ((a+b)+c) and (a+(b+c)) need not be identical summaries, but both must
  // answer every query within epsilon of truth.
  std::mt19937 rng(62);
  std::uniform_int_distribution<int> d(0, 30);
  std::array<std::vector<float>, 3> parts;
  std::vector<float> all;
  for (auto& part : parts) {
    part.resize(1500);
    for (float& v : part) v = static_cast<float>(d(rng));
    all.insert(all.end(), part.begin(), part.end());
    std::sort(part.begin(), part.end());
  }
  std::sort(all.begin(), all.end());

  const double eps = 0.02;
  const GkSummary a = GkSummary::FromSorted(parts[0], eps);
  const GkSummary b = GkSummary::FromSorted(parts[1], eps);
  const GkSummary c = GkSummary::FromSorted(parts[2], eps);
  const GkSummary left = GkSummary::Merge(GkSummary::Merge(a, b), c);
  const GkSummary right = GkSummary::Merge(a, GkSummary::Merge(b, c));

  const double allowed = eps * static_cast<double>(all.size()) + 1;
  for (const GkSummary* s : {&left, &right}) {
    ASSERT_EQ(s->count(), all.size());
    for (double phi : {0.1, 0.5, 0.9}) {
      const double target = std::ceil(phi * static_cast<double>(all.size()));
      EXPECT_TRUE(RankWithin(all, s->Query(phi), target, allowed)) << phi;
    }
  }
}

TEST(GkPruneTest, SmallSummaryIsUntouched) {
  auto a = RandomValues(100, 52);
  std::sort(a.begin(), a.end());
  const GkSummary s = GkSummary::FromSorted(a, 0.2);
  const GkSummary pruned = s.Prune(1000);
  EXPECT_EQ(pruned.size(), s.size());
  EXPECT_EQ(pruned.epsilon(), s.epsilon());
}

// --- Prune against the per-rank reference rule. ---

// The pre-sweep prune, kept as the reference: per target rank, binary-search
// the first tuple with rmin + rmax >= 2*rank, then prefer its predecessor on
// a strictly smaller worst-case deviation.
std::vector<GkTuple> ReferencePrune(const GkSummary& s, std::size_t max_tuples) {
  const std::vector<GkTuple>& t = s.tuples();
  if (t.size() <= max_tuples + 1) return t;
  std::vector<GkTuple> out;
  for (std::size_t i = 0; i <= max_tuples; ++i) {
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::llround(static_cast<double>(i) * static_cast<double>(s.count()) /
                            static_cast<double>(max_tuples))));
    const auto cost = [rank](const GkTuple& x) {
      const std::uint64_t lo = x.rmin > rank ? x.rmin - rank : rank - x.rmin;
      const std::uint64_t hi = x.rmax > rank ? x.rmax - rank : rank - x.rmax;
      return std::max(lo, hi);
    };
    const auto it = std::partition_point(t.begin(), t.end(), [rank](const GkTuple& x) {
      return x.rmin + x.rmax < 2 * rank;
    });
    std::size_t best =
        it == t.end() ? t.size() - 1 : static_cast<std::size_t>(it - t.begin());
    if (best > 0 && cost(t[best - 1]) < cost(t[best])) --best;
    if (out.empty() || !(out.back() == t[best])) out.push_back(t[best]);
  }
  return out;
}

// Tuple lists equal bit for bit (so -0 and +0 are told apart).
::testing::AssertionResult SameTuples(const std::vector<GkTuple>& got,
                                      const std::vector<GkTuple>& want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != reference " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got[i].value) !=
            std::bit_cast<std::uint32_t>(want[i].value) ||
        got[i].rmin != want[i].rmin || got[i].rmax != want[i].rmax) {
      return ::testing::AssertionFailure()
             << "tuple " << i << ": (" << got[i].value << "," << got[i].rmin << ","
             << got[i].rmax << ") != reference (" << want[i].value << ","
             << want[i].rmin << "," << want[i].rmax << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

// A summary with wide rank intervals: a chain of merges over sorted windows
// drawn by `draw`, pruned once midway so both merge and prune shapes occur.
template <typename Draw>
GkSummary ChainedSummary(unsigned seed, Draw draw) {
  std::mt19937 rng(seed);
  GkSummary acc;
  for (int block = 0; block < 8; ++block) {
    std::vector<float> w(300 + 37 * block);
    for (float& v : w) v = draw(rng);
    std::sort(w.begin(), w.end());
    acc = GkSummary::Merge(acc, GkSummary::FromSorted(w, 0.02));
    if (block == 3) acc = acc.Prune(40);
  }
  return acc;
}

TEST(GkPruneTest, SweepMatchesPerRankReferenceAtEveryBudget) {
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<std::pair<const char*, GkSummary>> inputs = {
      {"random", ChainedSummary(91, [](std::mt19937& rng) {
         return std::uniform_real_distribution<float>(0.0f, 1e6f)(rng);
       })},
      {"duplicates", ChainedSummary(92, [](std::mt19937& rng) {
         return static_cast<float>(rng() % 5u);
       })},
      {"all_equal", ChainedSummary(93, [](std::mt19937&) { return 7.0f; })},
      {"signed_zero_inf", ChainedSummary(94, [inf](std::mt19937& rng) {
         const float pool[] = {-inf, -0.0f, 0.0f, inf, -1.5f, 2.5f};
         return pool[rng() % 6u];
       })},
  };
  for (const auto& [name, s] : inputs) {
    ASSERT_GT(s.size(), 20u) << name;
    for (std::size_t budget = 1; budget <= s.size(); ++budget) {
      const GkSummary pruned = s.Prune(budget);
      ASSERT_TRUE(SameTuples(pruned.tuples(), ReferencePrune(s, budget)))
          << name << " budget " << budget;
      EXPECT_EQ(pruned.count(), s.count());
      EXPECT_EQ(pruned.epsilon(), s.size() <= budget + 1
                                      ? s.epsilon()
                                      : s.epsilon() + 1.0 / (2.0 * budget));
    }
  }
}

// --- PruneExactRun / FromExactRun: Prune of an exact node, from values. ---

TEST(GkPruneTest, PruneExactRunSamplesThePrunedNode) {
  // n/B from just above 1 (r_0 = r_1 = 1, so Prune keeps B tuples, not B+1)
  // through 1.5 to the production shapes (64 and 16 windows of 1000).
  const std::pair<std::uint64_t, std::size_t> shapes[] = {
      {102, 100},  {130, 100},    {149, 100},     {150, 100},   {151, 100},
      {200, 100},  {1000, 199},   {5, 3},         {16000, 12000}, {64000, 35000}};
  for (const auto& [n, budget] : shapes) {
    SCOPED_TRACE(testing::Message() << "n=" << n << " B=" << budget);
    std::vector<float> values = RandomValues(n, static_cast<unsigned>(n), 50);
    std::sort(values.begin(), values.end());
    GkSummary exact;
    ASSERT_TRUE(GkSummary::FromExactRun(values, n, n, &exact));
    ASSERT_EQ(exact.epsilon(), 0.0);
    const GkSummary want = exact.Prune(budget);

    std::vector<float> run = values;
    GkSummary::PruneExactRun(budget, &run);
    EXPECT_EQ(run.size(), 2 * n < 3 * budget ? budget : budget + 1);
    GkSummary got;
    ASSERT_TRUE(GkSummary::FromExactRun(run, n, budget, &got));
    EXPECT_TRUE(SameTuples(got.tuples(), want.tuples()));
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.epsilon()),
              std::bit_cast<std::uint64_t>(want.epsilon()));

    // A sample one value short or long, or taken for another n, is refused.
    GkSummary untouched;
    EXPECT_FALSE(GkSummary::FromExactRun(std::span(run).first(run.size() - 1), n, budget,
                                         &untouched));
    std::vector<float> longer = run;
    longer.push_back(longer.back());
    EXPECT_FALSE(GkSummary::FromExactRun(longer, n, budget, &untouched));
    EXPECT_TRUE(untouched.empty());
  }
  // A NaN at rank 1 (where the sorters put sign-set NaNs) never equals
  // itself, so Prune keeps the r_0 = r_1 = 1 tuple twice, and so does the
  // sample.
  std::vector<float> values = RandomValues(130, 7, 50);
  std::sort(values.begin(), values.end());
  values.front() = -std::numeric_limits<float>::quiet_NaN();
  GkSummary exact;
  ASSERT_TRUE(GkSummary::FromExactRun(values, 130, 130, &exact));
  const GkSummary want = exact.Prune(100);
  ASSERT_EQ(want.size(), 101u);
  std::vector<float> run = values;
  GkSummary::PruneExactRun(100, &run);
  GkSummary got;
  ASSERT_TRUE(GkSummary::FromExactRun(run, 130, 100, &got));
  EXPECT_TRUE(SameTuples(got.tuples(), want.tuples()));

  // Within the budget the run stays whole, as Prune leaves the node.
  std::vector<float> small = {1.0f, 2.0f, 2.0f, 5.0f};
  GkSummary::PruneExactRun(3, &small);
  EXPECT_EQ(small.size(), 4u);
}

// --- Exponential histogram (§5.2). ---

struct EhCase {
  double eps;
  std::uint64_t window;
  std::size_t n;
  int domain;
};

class EhProperty : public ::testing::TestWithParam<EhCase> {};

TEST_P(EhProperty, QueriesWithinEpsilon) {
  const EhCase& p = GetParam();
  EhQuantileSummary eh(p.eps, p.window, p.n);
  auto stream = RandomValues(p.n, 71, p.domain);
  std::vector<float> sorted;
  for (std::size_t off = 0; off < stream.size(); off += p.window) {
    const std::size_t len = std::min<std::size_t>(p.window, stream.size() - off);
    std::vector<float> w(stream.begin() + off, stream.begin() + off + len);
    std::sort(w.begin(), w.end());
    eh.AddWindowSummary(GkSummary::FromSorted(w, p.eps / 2.0));
  }
  sorted = stream;
  std::sort(sorted.begin(), sorted.end());
  ASSERT_EQ(eh.count(), p.n);

  const double allowed = p.eps * static_cast<double>(p.n) + 1;
  for (double phi : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double target = std::ceil(phi * static_cast<double>(p.n));
    EXPECT_TRUE(RankWithin(sorted, eh.Query(phi), target, allowed)) << phi;
  }
}

TEST_P(EhProperty, AtMostOneBucketPerLevel) {
  const EhCase& p = GetParam();
  EhQuantileSummary eh(p.eps, p.window, p.n);
  auto stream = RandomValues(p.n, 72, p.domain);
  for (std::size_t off = 0; off < stream.size(); off += p.window) {
    const std::size_t len = std::min<std::size_t>(p.window, stream.size() - off);
    std::vector<float> w(stream.begin() + off, stream.begin() + off + len);
    std::sort(w.begin(), w.end());
    eh.AddWindowSummary(GkSummary::FromSorted(w, p.eps / 2.0));
    // Canonical binary-counter state: ids within the provisioned levels.
    EXPECT_LE(eh.MaxBucketId(), eh.levels() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EhProperty,
    ::testing::Values(EhCase{0.02, 500, 50000, 0}, EhCase{0.02, 500, 50000, 20},
                      EhCase{0.01, 1000, 100000, 0}, EhCase{0.05, 100, 20000, 5},
                      EhCase{0.01, 1000, 97531, 0}),  // non-multiple length
    [](const ::testing::TestParamInfo<EhCase>& info) {
      return "eps" + std::to_string(static_cast<int>(1.0 / info.param.eps)) + "_w" +
             std::to_string(info.param.window) + "_n" + std::to_string(info.param.n) +
             "_dom" + std::to_string(info.param.domain);
    });

TEST(EhTest, LevelBudgetsAreIncreasingAndBelowEpsilon) {
  EhQuantileSummary eh(0.01, 1000, 1000000);
  double prev = 0;
  for (int b = 1; b <= eh.levels(); ++b) {
    const double budget = eh.LevelBudget(b);
    EXPECT_GT(budget, prev);
    EXPECT_LE(budget, 0.01 + 1e-12);
    prev = budget;
  }
}

TEST(EhTest, SpaceStaysBounded) {
  const double eps = 0.02;
  EhQuantileSummary eh(eps, 200, 100000);
  std::mt19937 rng(81);
  std::uniform_real_distribution<float> d(0.0f, 1.0f);
  for (int block = 0; block < 500; ++block) {
    std::vector<float> w(200);
    for (float& v : w) v = d(rng);
    std::sort(w.begin(), w.end());
    eh.AddWindowSummary(GkSummary::FromSorted(w, eps / 2.0));
  }
  // Bound: levels * (prune budget + 1) tuples plus slack for unpruned
  // low-level buckets.
  const double cap = static_cast<double>(eh.levels() + 2) *
                     (static_cast<double>(eh.prune_tuples()) + 200.0);
  EXPECT_LE(static_cast<double>(eh.TotalTuples()), cap);
  EXPECT_GT(eh.merge_seconds() + eh.compress_seconds(), 0.0);
}

TEST(EhTest, RejectsTooCoarseWindowSummary) {
  EhQuantileSummary eh(0.01, 1000, 100000);
  std::vector<float> w(1000);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(i);
  // A 0.5-approximate summary violates the epsilon/2 requirement.
  EXPECT_DEATH(eh.AddWindowSummary(GkSummary::FromSorted(w, 0.5)), "epsilon/2");
}

// --- GK+EH state pins and the flattened-view cache. ---

std::uint64_t Fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

// The production GK+EH shape: epsilon 1e-3, 1000-element windows, and the
// default expected length (2^32 windows), so every combine past 35 windows
// prunes to ceil(35/epsilon) = 35000 tuples.
constexpr double kProdEpsilon = 1e-3;
constexpr std::uint64_t kProdWindow = 1000;
constexpr std::uint64_t kProdExpected = kProdWindow << 32;

std::unique_ptr<QuantileSketch> ProductionGkSketch() {
  auto sketch = QuantileSketch::Create(QuantileSketchKind::kGk, kProdEpsilon,
                                       kProdWindow, kProdExpected);
  EXPECT_TRUE(sketch.ok());
  return std::move(sketch).value();
}

// Feeds `windows` sorted windows of duplicate-heavy integers (mt19937 output
// is fully specified, so the data is the same on every platform).
void FeedProductionWindows(QuantileSketch* sketch, int windows, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<float> w(kProdWindow);
  for (int i = 0; i < windows; ++i) {
    for (float& v : w) v = static_cast<float>(rng() % 100000u);
    std::sort(w.begin(), w.end());
    sketch->AddSortedWindow(w);
  }
}

TEST(EhTest, CheckpointAndExportBytesArePinnedAtProductionShape) {
  auto sketch = ProductionGkSketch();
  FeedProductionWindows(sketch.get(), 512, 2005);
  // 512 windows collapse into one pruned bucket.
  ASSERT_EQ(sketch->summary_size(), 35001u);

  std::vector<std::uint8_t> state;
  ASSERT_TRUE(sketch->AppendCheckpointState(&state).ok());
  std::vector<std::uint8_t> wire;
  ASSERT_TRUE(sketch->AppendWireSummary(&wire).ok());
  // Pinned before the one-sweep prune replaced the per-rank binary search:
  // maintenance speedups must not move a single byte.
  EXPECT_EQ(state.size(), 700118u);
  EXPECT_EQ(Fnv1a(state), 0x9805bbddbdeb3cbfull);
  EXPECT_EQ(wire.size(), 700064u);
  EXPECT_EQ(Fnv1a(wire), 0x00e5a71ef78b1841ull);
}

// --- Exact runs: 2^k exact windows merged in cascade order and inserted as
// one node must leave every byte the per-window cascade leaves. ---

std::vector<std::uint8_t> CheckpointBytes(const QuantileSketch& sketch) {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(sketch.AppendCheckpointState(&bytes).ok());
  return bytes;
}

// `windows` production windows drawn by `draw`, each sorted by the
// production radix sorter, concatenated in stream order.
template <typename Draw>
std::vector<float> SortedProductionWindows(std::size_t windows, unsigned seed, Draw draw) {
  std::mt19937 rng(seed);
  std::vector<float> out(windows * kProdWindow);
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = draw(rng, i);
  sort::RadixMergeSorter sorter(hwmodel::kPentium4_3400);
  for (std::size_t off = 0; off < out.size(); off += kProdWindow) {
    sorter.Sort(std::span(out).subspan(off, kProdWindow));
  }
  return out;
}

std::vector<float> CascadeRun(std::span<const float> windows) {
  std::vector<float> run;
  GkSummary::MergeWindowsInCascadeOrder(windows, kProdWindow, &run);
  return run;
}

// The production prune budget, ceil(35 / epsilon).
constexpr std::size_t kProdBudget = 35000;

// CascadeRun sampled at the ranks Prune(budget) picks, as the worker stage
// sends a batch whose node prunes.
std::vector<float> SampledRun(std::span<const float> windows, std::size_t budget) {
  std::vector<float> run = CascadeRun(windows);
  GkSummary::PruneExactRun(budget, &run);
  return run;
}

std::vector<std::uint8_t> WireBytes(const QuantileSketch& sketch) {
  std::vector<std::uint8_t> bytes;
  EXPECT_TRUE(sketch.AppendWireSummary(&bytes).ok());
  return bytes;
}

using Draw = std::function<float(std::mt19937&, std::size_t)>;

// Inputs for the run/per-window equivalence tests: random, duplicate-heavy,
// all-equal, reverse-sorted, signed zeros, infinities, and a mix of +-NaN,
// +-0 and +-inf, whose NaNs the sorters put at both ends.
std::vector<std::pair<const char*, Draw>> EquivalenceInputs() {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  return {
      {"random",
       [](std::mt19937& rng, std::size_t) {
         return std::uniform_real_distribution<float>(-1e6f, 1e6f)(rng);
       }},
      {"duplicate-heavy",
       [](std::mt19937& rng, std::size_t) { return static_cast<float>(rng() % 7u); }},
      {"all-equal", [](std::mt19937&, std::size_t) { return 42.0f; }},
      {"reverse-sorted",
       [](std::mt19937&, std::size_t i) { return -static_cast<float>(i); }},
      {"signed-zeros",
       [](std::mt19937& rng, std::size_t) { return rng() % 2u == 0 ? 0.0f : -0.0f; }},
      {"infinities",
       [inf](std::mt19937& rng, std::size_t) {
         const unsigned pick = rng() % 4u;
         return pick == 0 ? inf : pick == 1 ? -inf : static_cast<float>(rng() % 100u);
       }},
      {"nan-bearing",
       [inf, nan](std::mt19937& rng, std::size_t) {
         const float pool[] = {nan, -nan, 0.0f, -0.0f, inf, -inf};
         const unsigned pick = rng() % 12u;
         return pick < 6 ? pool[pick] : static_cast<float>(rng() % 50u);
       }},
  };
}

TEST(EhTest, ExactRunLeavesThePerWindowCascadeState) {
  for (const auto& [name, draw] : EquivalenceInputs()) {
    for (int k = 1; k <= 5; ++k) {
      SCOPED_TRACE(testing::Message() << name << " windows=" << (1 << k));
      const std::size_t windows = std::size_t{1} << k;
      auto per_window = ProductionGkSketch();
      auto by_run = ProductionGkSketch();
      // Three blocks each, so the later runs land on occupied buckets and
      // carry on up the cascade (at k = 5 into the pruned levels).
      for (unsigned block = 0; block < 3; ++block) {
        const std::vector<float> sorted =
            SortedProductionWindows(windows, 100 * k + block, draw);
        for (std::size_t off = 0; off < sorted.size(); off += kProdWindow) {
          per_window->AddSortedWindow(std::span(sorted).subspan(off, kProdWindow));
        }
        ASSERT_TRUE(by_run->AddExactRun(CascadeRun(sorted), windows));
        ASSERT_EQ(CheckpointBytes(*by_run), CheckpointBytes(*per_window));
        EXPECT_EQ(by_run->merged_tuples(), per_window->merged_tuples());
        EXPECT_EQ(by_run->pruned_tuples(), per_window->pruned_tuples());
      }
    }
  }
}

TEST(EhTest, ExactRunIsRefusedUnlessTheCascadeWouldBuildIt) {
  const auto draw = [](std::mt19937& rng, std::size_t) {
    return static_cast<float>(rng() % 1000u);
  };
  auto sketch = ProductionGkSketch();
  const std::vector<float> one = SortedProductionWindows(1, 1, draw);
  sketch->AddSortedWindow(one);
  const std::vector<std::uint8_t> before = CheckpointBytes(*sketch);

  // Misaligned: bucket 1 holds a window, so two windows do not build a node,
  // nor do 64 (the batch width) given as their sampled node.
  const std::vector<float> two = SortedProductionWindows(2, 2, draw);
  EXPECT_FALSE(sketch->AddExactRun(CascadeRun(two), 2));
  const std::vector<float> many = SortedProductionWindows(64, 3, draw);
  const std::vector<float> sample = SampledRun(many, kProdBudget);
  ASSERT_EQ(sample.size(), kProdBudget + 1);
  EXPECT_FALSE(sketch->AddExactRun(sample, 64));
  // 64 windows exceed the prune budget (64,000 > 35,001 tuples), so their
  // node arrives sampled: the whole run is refused, as is a sample one value
  // short or one taken as another window count's node.
  auto fresh = ProductionGkSketch();
  EXPECT_FALSE(fresh->AddExactRun(CascadeRun(many), 64));
  EXPECT_FALSE(fresh->AddExactRun(std::span(sample).first(sample.size() - 1), 64));
  EXPECT_FALSE(fresh->AddExactRun(sample, 32));
  // 128 windows would prune twice below their node (64,000 > 35,001 tuples
  // in each half): the node is not a sample of an exact one.
  const std::vector<float> too_many = SortedProductionWindows(128, 5, draw);
  EXPECT_FALSE(fresh->AddExactRun(SampledRun(too_many, kProdBudget), 128));
  EXPECT_EQ(fresh->count(), 0u);
  // Not a power of two, a single window, or a run of the wrong length.
  const std::vector<float> three = SortedProductionWindows(3, 4, draw);
  EXPECT_FALSE(fresh->AddExactRun(three, 3));
  EXPECT_FALSE(fresh->AddExactRun(one, 1));
  EXPECT_FALSE(fresh->AddExactRun(std::span(two).first(1999), 2));
  EXPECT_EQ(fresh->count(), 0u);
  EXPECT_EQ(CheckpointBytes(*fresh), CheckpointBytes(*ProductionGkSketch()));
  EXPECT_EQ(CheckpointBytes(*sketch), before);
  // Aligned, the sample is the node of all 64 windows.
  ASSERT_TRUE(fresh->AddExactRun(sample, 64));
  EXPECT_EQ(fresh->count(), 64000u);

  // Sampled windows (rank step > 1) never take runs.
  auto sampled = QuantileSketch::Create(QuantileSketchKind::kGk, 0.01, 1024, 1024 << 20);
  ASSERT_TRUE(sampled.ok());
  EXPECT_EQ(LosslessBlockWindows(0.01, 1024, 1024 << 20), 0u);
  std::vector<float> sorted_pair(2048);
  for (std::size_t i = 0; i < sorted_pair.size(); ++i) sorted_pair[i] = static_cast<float>(i % 1024);
  EXPECT_FALSE((*sampled)->AddExactRun(sorted_pair, 2));
  EXPECT_EQ(LosslessBlockWindows(kProdEpsilon, kProdWindow, kProdExpected), 32u);
  EXPECT_EQ(ExactRunBatchWindows(kProdEpsilon, kProdWindow, kProdExpected), 64u);
}

TEST(EhTest, ExactRunPathReproducesThePinnedBytes) {
  // The windows of CheckpointAndExportBytesArePinnedAtProductionShape, fed
  // as sixteen 32-window runs, must land on the same pins.
  std::mt19937 rng(2005);
  std::vector<float> block(32 * kProdWindow);
  auto sketch = ProductionGkSketch();
  for (int run = 0; run < 16; ++run) {
    for (std::size_t off = 0; off < block.size(); off += kProdWindow) {
      const auto window = std::span(block).subspan(off, kProdWindow);
      for (float& v : window) v = static_cast<float>(rng() % 100000u);
      std::sort(window.begin(), window.end());
    }
    ASSERT_TRUE(sketch->AddExactRun(CascadeRun(block), 32));
  }
  ASSERT_EQ(sketch->summary_size(), 35001u);
  std::vector<std::uint8_t> state;
  ASSERT_TRUE(sketch->AppendCheckpointState(&state).ok());
  std::vector<std::uint8_t> wire;
  ASSERT_TRUE(sketch->AppendWireSummary(&wire).ok());
  EXPECT_EQ(state.size(), 700118u);
  EXPECT_EQ(Fnv1a(state), 0x9805bbddbdeb3cbfull);
  EXPECT_EQ(wire.size(), 700064u);
  EXPECT_EQ(Fnv1a(wire), 0x00e5a71ef78b1841ull);
}

TEST(EhTest, SampledRunLeavesThePerWindowCascadeState) {
  // The batch width at the production shape (64 windows) and at a short
  // expected length (1,000 windows: a 12,000-tuple budget, L = 8, 2L = 16).
  // Each batch's node prunes once, so it travels as a sample.
  struct Shape {
    std::uint64_t expected;
    std::uint64_t windows;
  };
  for (const Shape shape : {Shape{kProdExpected, 64}, Shape{1000 * 1000, 16}}) {
    ASSERT_EQ(ExactRunBatchWindows(kProdEpsilon, kProdWindow, shape.expected), shape.windows);
    const std::size_t budget =
        EhQuantileSummary::PruneTuples(kProdEpsilon, kProdWindow, shape.expected);
    ASSERT_GT(shape.windows * kProdWindow, budget + 1);
    for (const auto& [name, draw] : EquivalenceInputs()) {
      SCOPED_TRACE(testing::Message() << name << " windows=" << shape.windows);
      const auto create = [&shape] {
        return std::move(QuantileSketch::Create(QuantileSketchKind::kGk, kProdEpsilon,
                                                kProdWindow, shape.expected))
            .value();
      };
      auto per_window = create();
      auto by_run = create();
      // Three blocks: the second node merges with the first (a pruned combine
      // on the drain), the third lands on the vacated id.
      for (unsigned block = 0; block < 3; ++block) {
        const std::vector<float> sorted =
            SortedProductionWindows(shape.windows, 700 + block, draw);
        for (std::size_t off = 0; off < sorted.size(); off += kProdWindow) {
          per_window->AddSortedWindow(std::span(sorted).subspan(off, kProdWindow));
        }
        const std::vector<float> sample = SampledRun(sorted, budget);
        ASSERT_LE(sample.size(), budget + 1);
        ASSERT_TRUE(by_run->AddExactRun(sample, shape.windows));
        ASSERT_EQ(CheckpointBytes(*by_run), CheckpointBytes(*per_window));
        ASSERT_EQ(WireBytes(*by_run), WireBytes(*per_window));
        EXPECT_EQ(by_run->merged_tuples(), per_window->merged_tuples());
        EXPECT_EQ(by_run->pruned_tuples(), per_window->pruned_tuples());
        EXPECT_EQ(by_run->count(), per_window->count());
      }
    }
  }
}

TEST(EhTest, SampledRunPathReproducesThePinnedBytes) {
  // The windows of CheckpointAndExportBytesArePinnedAtProductionShape, fed
  // as eight 64-window sampled nodes, must land on the same pins.
  std::mt19937 rng(2005);
  std::vector<float> block(64 * kProdWindow);
  auto sketch = ProductionGkSketch();
  for (int run = 0; run < 8; ++run) {
    for (std::size_t off = 0; off < block.size(); off += kProdWindow) {
      const auto window = std::span(block).subspan(off, kProdWindow);
      for (float& v : window) v = static_cast<float>(rng() % 100000u);
      std::sort(window.begin(), window.end());
    }
    ASSERT_TRUE(sketch->AddExactRun(SampledRun(block, kProdBudget), 64));
  }
  ASSERT_EQ(sketch->summary_size(), 35001u);
  const std::vector<std::uint8_t> state = CheckpointBytes(*sketch);
  const std::vector<std::uint8_t> wire = WireBytes(*sketch);
  EXPECT_EQ(state.size(), 700118u);
  EXPECT_EQ(Fnv1a(state), 0x9805bbddbdeb3cbfull);
  EXPECT_EQ(wire.size(), 700064u);
  EXPECT_EQ(Fnv1a(wire), 0x00e5a71ef78b1841ull);
}

TEST(EhTest, FlattenedViewIsRebuiltAfterEveryWindow) {
  auto sketch = ProductionGkSketch();
  FeedProductionWindows(sketch.get(), 37, 7);
  const float max_before = sketch->Query(1.0);
  std::vector<std::uint8_t> export_before;
  ASSERT_TRUE(sketch->AppendWireSummary(&export_before).ok());

  // A window above everything so far: a stale view would miss it.
  const std::vector<float> high(kProdWindow, 5e6f);
  sketch->AddSortedWindow(high);
  EXPECT_EQ(sketch->Query(1.0), 5e6f);
  EXPECT_NE(sketch->Query(1.0), max_before);

  std::vector<std::uint8_t> state;
  ASSERT_TRUE(sketch->AppendCheckpointState(&state).ok());
  auto rebuilt = QuantileSketch::RestoreCheckpointState(
      QuantileSketchKind::kGk, kProdEpsilon, kProdWindow, kProdExpected, state);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  for (double phi : {0.001, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(sketch->Query(phi)),
              std::bit_cast<std::uint32_t>(rebuilt.value()->Query(phi)))
        << phi;
  }
  std::vector<std::uint8_t> export_after;
  ASSERT_TRUE(sketch->AppendWireSummary(&export_after).ok());
  std::vector<std::uint8_t> export_rebuilt;
  ASSERT_TRUE(rebuilt.value()->AppendWireSummary(&export_rebuilt).ok());
  EXPECT_EQ(export_after, export_rebuilt);
  EXPECT_NE(export_after, export_before);
}

TEST(EhTest, FlattenedViewMatchesMergeOfBuckets) {
  EhQuantileSummary eh(0.01, 500, 100000);
  auto stream = RandomValues(40 * 500, 95, 50);
  GkSummary last_flat;
  for (std::size_t off = 0; off < stream.size(); off += 500) {
    std::vector<float> w(stream.begin() + off, stream.begin() + off + 500);
    std::sort(w.begin(), w.end());
    eh.AddWindowSummary(GkSummary::FromSorted(w, 0.005));
    GkSummary merged;
    for (const GkSummary& bucket : eh.buckets()) {
      if (!bucket.empty()) merged = GkSummary::Merge(merged, bucket);
    }
    ASSERT_EQ(eh.Flattened().count(), eh.count());
    ASSERT_TRUE(SameTuples(eh.Flattened().tuples(), merged.tuples())) << off;
    EXPECT_EQ(eh.Flattened().epsilon(), merged.epsilon());
    EXPECT_EQ(eh.Query(0.5), merged.Query(0.5));
  }
}

TEST(EhTest, FromPartsRejectsBucketLooserThanItsLevelBudget) {
  const double eps = 0.01;
  EhQuantileSummary shape(eps, 1000, 100000);
  std::vector<float> w(1000);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(i);
  const GkSummary window = GkSummary::FromSorted(w, eps / 2.0);

  // The same tuples claiming epsilon LevelBudget(2): legal at id 2, not id 1.
  GkSummary loose;
  ASSERT_TRUE(GkSummary::FromParts(window.tuples(), window.count(),
                                   shape.LevelBudget(2), &loose));
  EhQuantileSummary out(eps, 1000, 100000);
  EXPECT_FALSE(EhQuantileSummary::FromParts(eps, 1000, 100000, loose.count(),
                                            {loose}, &out));
  EXPECT_TRUE(EhQuantileSummary::FromParts(eps, 1000, 100000, loose.count(),
                                           {GkSummary(), loose}, &out));

  // A corrupt checkpoint carrying that bucket at id 1 restores as an error.
  std::vector<std::uint8_t> payload;
  wire::Append<std::uint64_t>(&payload, loose.count());
  wire::Append<std::uint32_t>(&payload, 1);
  wire::Append<std::uint8_t>(&payload, 1);
  ASSERT_TRUE(SerializeSummary(loose, &payload).ok());
  auto restored = QuantileSketch::RestoreCheckpointState(QuantileSketchKind::kGk, eps,
                                                         1000, 100000, payload);
  ASSERT_FALSE(restored.ok());
  EXPECT_EQ(restored.status().code(), core::Status::Code::kInvalidArgument);
}

// --- KllSketch ---

TEST(KllTest, EmptySketchAnswersZero) {
  KllSketch s(0.01);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.Quantile(0.5), 0.0f);
  EXPECT_EQ(s.QueryRank(1), 0.0f);
  EXPECT_EQ(s.rank_error_bound(), 0u);
  EXPECT_EQ(s.summary_size(), 0u);
}

TEST(KllTest, ExactWhileNoCompactionHasRun) {
  KllSketch s(0.25);  // tiny k so this would compact quickly
  std::vector<float> w{5, 1, 3, 2, 4};
  for (float v : w) {
    if (s.compactions() > 0) break;
    s.Observe(v);
  }
  // Before the first compaction the tracked worst case is 0: answers are
  // exact and the honest bound says so.
  if (s.compactions() == 0) {
    EXPECT_EQ(s.worst_case_rank_error(), 0u);
    EXPECT_EQ(s.rank_error_bound(), 0u);
  }
}

TEST(KllTest, AccuracyWithinStatedEpsilonAcrossSweep) {
  for (double eps : {0.05, 0.02, 0.01}) {
    const std::size_t n = 50000;
    auto data = RandomValues(n, 1234);
    KllSketch s(eps);
    for (float v : data) s.Observe(v);
    ASSERT_EQ(s.count(), n);

    std::vector<float> sorted = data;
    std::sort(sorted.begin(), sorted.end());
    const double allowed = static_cast<double>(s.rank_error_bound()) + 1;
    EXPECT_LE(s.rank_error_bound(),
              static_cast<std::uint64_t>(std::ceil(eps * static_cast<double>(n))));
    for (double phi : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
      const double target = std::ceil(phi * static_cast<double>(n));
      EXPECT_TRUE(RankWithin(sorted, s.Quantile(phi), target, allowed))
          << "eps=" << eps << " phi=" << phi;
    }
  }
}

TEST(KllTest, SpaceStaysSublinearAndBeatsNaive) {
  const double eps = 0.01;
  const std::size_t n = 200000;
  KllSketch s(eps);
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> d(0.0f, 1e6f);
  for (std::size_t i = 0; i < n; ++i) s.Observe(d(rng));
  // O(k log(n/k)) items: k = 400 at this epsilon; the whole hierarchy must
  // stay within a small multiple of k, far below the stream length.
  EXPECT_LE(s.summary_size(), 8 * s.k());
  EXPECT_LT(s.summary_size(), n / 50);
  EXPECT_LT(s.num_levels(), 64u);
}

TEST(KllTest, DeterministicAcrossIdenticalRuns) {
  const auto data = RandomValues(30000, 55);
  KllSketch a(0.02), b(0.02);
  for (float v : data) a.Observe(v);
  for (float v : data) b.Observe(v);
  // Same sequence + same seed: bit-identical hierarchy and coin position.
  EXPECT_EQ(a.levels(), b.levels());
  EXPECT_EQ(a.compactions(), b.compactions());
  EXPECT_EQ(a.worst_case_rank_error(), b.worst_case_rank_error());
  for (double phi : {0.1, 0.5, 0.9}) EXPECT_EQ(a.Quantile(phi), b.Quantile(phi));
}

TEST(KllTest, SeedChangesCoinSequenceButNotGuarantee) {
  const auto data = RandomValues(20000, 56);
  KllSketch a(0.02, 1), b(0.02, 2);
  for (float v : data) a.Observe(v);
  for (float v : data) b.Observe(v);
  std::vector<float> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  for (double phi : {0.25, 0.5, 0.75}) {
    const double target = std::ceil(phi * static_cast<double>(data.size()));
    EXPECT_TRUE(RankWithin(sorted, a.Quantile(phi), target,
                           static_cast<double>(a.rank_error_bound()) + 1));
    EXPECT_TRUE(RankWithin(sorted, b.Quantile(phi), target,
                           static_cast<double>(b.rank_error_bound()) + 1));
  }
}

TEST(KllTest, MergeMatchesUnionAndComposesBounds) {
  const auto left = RandomValues(15000, 60);
  const auto right = RandomValues(25000, 61);
  KllSketch a(0.02), b(0.02);
  for (float v : left) a.Observe(v);
  for (float v : right) b.Observe(v);
  const std::uint64_t wa = a.worst_case_rank_error();
  const std::uint64_t wb = b.worst_case_rank_error();

  ASSERT_TRUE(a.Merge(b).ok());
  EXPECT_EQ(a.count(), left.size() + right.size());
  // The tracked worst cases add (plus any compactions Merge itself runs).
  EXPECT_GE(a.worst_case_rank_error(), wa + wb);

  std::vector<float> all = left;
  all.insert(all.end(), right.begin(), right.end());
  std::sort(all.begin(), all.end());
  const double allowed = static_cast<double>(a.rank_error_bound()) + 1;
  for (double phi : {0.1, 0.5, 0.9}) {
    const double target = std::ceil(phi * static_cast<double>(all.size()));
    EXPECT_TRUE(RankWithin(all, a.Quantile(phi), target, allowed)) << phi;
  }
}

TEST(KllTest, MergeRejectsEpsilonMismatchAndAcceptsEmpty) {
  KllSketch a(0.02), mismatched(0.05), empty(0.02);
  a.Observe(1.0f);
  mismatched.Observe(2.0f);  // an empty sketch merges as the identity even
                             // across epsilons; a non-empty one must not
  EXPECT_FALSE(a.Merge(mismatched).ok());
  const std::uint64_t before = a.count();
  ASSERT_TRUE(a.Merge(empty).ok());
  EXPECT_EQ(a.count(), before);
}

TEST(KllTest, WeightIsConservedAcrossCompactions) {
  KllSketch s(0.1);
  std::mt19937 rng(9);
  std::uniform_real_distribution<float> d(0.0f, 1.0f);
  for (int i = 0; i < 10000; ++i) s.Observe(d(rng));
  std::uint64_t weighted = 0;
  for (std::size_t h = 0; h < s.num_levels(); ++h) {
    weighted += static_cast<std::uint64_t>(s.levels()[h].size()) << h;
  }
  EXPECT_EQ(weighted, s.count());
  EXPECT_GT(s.compactions(), 0u);
  EXPECT_GT(s.discarded_items(), 0u);
}

TEST(KllTest, SpaceIsSmallerThanChainedGkMerges) {
  // The headline trade: KLL's compaction keeps O(k log(n/k)) items on a
  // merge-heavy stream, while an unpruned GK merge chain grows with the
  // number of windows folded in (one tuple per surviving input tuple).
  const double eps = 0.005;
  const std::size_t kWindows = 100, kWindow = 1000;
  KllSketch kll(eps);
  GkSummary gk;
  std::mt19937 rng(77);
  std::uniform_real_distribution<float> d(0.0f, 1e6f);
  for (std::size_t b = 0; b < kWindows; ++b) {
    std::vector<float> w(kWindow);
    for (float& v : w) v = d(rng);
    for (float v : w) kll.Observe(v);
    std::sort(w.begin(), w.end());
    gk = GkSummary::Merge(gk, GkSummary::FromSorted(w, eps));
  }
  EXPECT_LT(kll.summary_size(), gk.size());
  // And the sketch itself stays within its schedule, independent of n.
  EXPECT_LE(kll.summary_size(), 8 * kll.k());
}

}  // namespace
}  // namespace streamgpu::sketch

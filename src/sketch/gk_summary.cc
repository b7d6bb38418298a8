#include "sketch/gk_summary.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/float_order.h"

namespace streamgpu::sketch {

namespace {

/// True while tuple t lies before the answer to a rank-`rank` query.
bool BeforeRank(const GkTuple& t, std::uint64_t rank) {
  return t.rmin + t.rmax < 2 * rank;
}

/// Index of the tuple closest to `rank`, given `boundary`, the first tuple
/// not BeforeRank (tuples.size() if none). The worst-case rank deviation of
/// tuple t, cost(t) = max(r - rmin, rmax - r), is nonincreasing then
/// nondecreasing over the value-sorted tuples and bottoms out at the
/// boundary, so the answer is the boundary or its predecessor.
std::size_t BestAtBoundary(const std::vector<GkTuple>& tuples, std::size_t boundary,
                           std::uint64_t rank) {
  const auto cost = [rank](const GkTuple& t) {
    const std::uint64_t lo = t.rmin > rank ? t.rmin - rank : rank - t.rmin;
    const std::uint64_t hi = t.rmax > rank ? t.rmax - rank : rank - t.rmax;
    return std::max(lo, hi);
  };
  std::size_t best = std::min(boundary, tuples.size() - 1);
  if (best > 0 && cost(tuples[best - 1]) < cost(tuples[best])) --best;
  return best;
}

/// GkSummary::Merge on bare values: `a` is the first operand and wins ties.
/// The predicate and operand order must stay identical to Merge's, or the
/// run path stops being bit-identical to the cascade.
void MergeRuns(const float* a, const float* b, std::size_t len, float* out) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < len && j < len) *out++ = a[i] <= b[j] ? a[i++] : b[j++];
  out = std::copy(a + i, a + len, out);
  std::copy(b + j, b + len, out);
}

/// Prune(max_tuples)'s i-th target rank over `count` elements.
std::uint64_t PruneRank(std::size_t i, std::uint64_t count, std::size_t max_tuples) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::llround(static_cast<double>(i) *
                                                 static_cast<double>(count) /
                                                 static_cast<double>(max_tuples))));
}

/// Prune(max_tuples)'s epsilon for a summary of `epsilon`.
double PrunedEpsilon(double epsilon, std::size_t max_tuples) {
  return epsilon + 1.0 / (2.0 * static_cast<double>(max_tuples));
}

/// Calls keep(tuple) for every tuple Prune(max_tuples) keeps of an exact
/// node of `count` elements, in order. On exact tuples each target rank r
/// lands on the tuple at position r, (value_at(r), r, r); value_at is asked
/// once per distinct rank, in ascending order. Prune skips a target whose
/// tuple equals the last one kept (GkTuple ==), which here is a repeated
/// rank (r_0 = r_1 = 1 when count / max_tuples < 1.5) whose value is not a
/// NaN: a NaN tuple is kept twice.
template <typename ValueAt, typename Keep>
void ForEachExactPruneTuple(std::uint64_t count, std::size_t max_tuples, ValueAt value_at,
                            Keep keep) {
  GkTuple last{0.0f, 0, 0};
  for (std::size_t i = 0; i <= max_tuples; ++i) {
    const std::uint64_t rank = PruneRank(i, count, max_tuples);
    const GkTuple t{rank == last.rmin ? last.value : value_at(rank), rank, rank};
    if (!(t == last)) keep(t);
    last = t;
  }
}

/// Equal counts, epsilons and tuples, values compared by bit pattern (NaN
/// included).
[[maybe_unused]] bool SameBits(const GkSummary& a, const GkSummary& b) {
  if (a.count() != b.count() || a.size() != b.size() ||
      std::bit_cast<std::uint64_t>(a.epsilon()) != std::bit_cast<std::uint64_t>(b.epsilon())) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const GkTuple& x = a.tuples()[i];
    const GkTuple& y = b.tuples()[i];
    if (std::bit_cast<std::uint32_t>(x.value) != std::bit_cast<std::uint32_t>(y.value) ||
        x.rmin != y.rmin || x.rmax != y.rmax) {
      return false;
    }
  }
  return true;
}

/// Debug cross-check of MergeWindowsInCascadeOrder: builds the cascade node
/// the GK path builds from the same windows (whole-window FromSorted
/// summaries, merged later-first in the same tree) and compares it with the
/// run bit for bit, ranks included.
[[maybe_unused]] bool MatchesCascadeNode(std::span<const float> run,
                                         std::span<const float> windows,
                                         std::size_t window_size) {
  std::vector<GkSummary> level;
  for (std::size_t off = 0; off < windows.size(); off += window_size) {
    level.push_back(GkSummary::FromSorted(windows.subspan(off, window_size),
                                          std::numeric_limits<double>::min()));
  }
  while (level.size() > 1) {
    std::vector<GkSummary> next;
    for (std::size_t i = 0; i < level.size(); i += 2) {
      next.push_back(GkSummary::Merge(level[i + 1], level[i]));
    }
    level = std::move(next);
  }
  GkSummary node;
  return GkSummary::FromExactRun(run, run.size(), run.size(), &node) &&
         SameBits(node, level.front());
}

/// Debug cross-check of PruneExactRun: Prune of the exact node of
/// `exact_run` against the node FromExactRun rebuilds from `sample`.
[[maybe_unused]] bool MatchesPrunedNode(std::span<const float> sample,
                                        std::span<const float> exact_run,
                                        std::size_t max_tuples) {
  GkSummary exact;
  GkSummary rebuilt;
  return GkSummary::FromExactRun(exact_run, exact_run.size(), exact_run.size(), &exact) &&
         GkSummary::FromExactRun(sample, exact_run.size(), max_tuples, &rebuilt) &&
         SameBits(exact.Prune(max_tuples), rebuilt);
}

}  // namespace

GkSummary GkSummary::FromSorted(std::span<const float> sorted_window,
                                double target_epsilon) {
  STREAMGPU_CHECK(target_epsilon > 0.0);
  GkSummary out;
  const std::uint64_t w = sorted_window.size();
  if (w == 0) return out;
  out.count_ = w;

  const auto step = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(2.0 * target_epsilon * static_cast<double>(w)));
  for (std::uint64_t r = 0; r < w; r += step) {
    // Ascending by operator<= (which ties -0 and +0, as std::sort does) or
    // by the sorters' canonical order, which also places NaNs, where
    // operator<= is false.
    STREAMGPU_DCHECK(r == 0 || sorted_window[r - 1] <= sorted_window[r] ||
                     OrderedKey(sorted_window[r - 1]) <= OrderedKey(sorted_window[r]));
    out.tuples_.push_back({sorted_window[r], r + 1, r + 1});
  }
  if (out.tuples_.back().rmin != w) out.tuples_.push_back({sorted_window[w - 1], w, w});

  // Ranks are exact; the only error is the distance to the nearest sample,
  // at most floor(step/2).
  out.epsilon_ = static_cast<double>(step / 2) / static_cast<double>(w);
  return out;
}

bool GkSummary::FromParts(std::vector<GkTuple> tuples, std::uint64_t count,
                          double epsilon, GkSummary* out) {
  if (out == nullptr) return false;
  if (epsilon < 0.0 || epsilon >= 1.0) return false;
  if (tuples.empty() != (count == 0)) return false;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const GkTuple& t = tuples[i];
    if (t.rmin < 1 || t.rmin > t.rmax || t.rmax > count) return false;
    if (i > 0) {
      if (tuples[i - 1].value > t.value) return false;
      if (tuples[i - 1].rmin > t.rmin || tuples[i - 1].rmax > t.rmax) return false;
    }
  }
  out->tuples_ = std::move(tuples);
  out->count_ = count;
  out->epsilon_ = epsilon;
  return true;
}

GkSummary GkSummary::Merge(const GkSummary& a, const GkSummary& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;

  GkSummary out;
  out.count_ = a.count_ + b.count_;
  out.epsilon_ = std::max(a.epsilon_, b.epsilon_);
  out.tuples_.reserve(a.size() + b.size());

  // Equal values are ordered consistently — every element of `a` precedes
  // every equal-valued element of `b`. A consistent tie order keeps the rank
  // intervals tight on duplicate-heavy data; without it each merge widens
  // the interval of a repeated value by the partner's multiplicity and the
  // epsilon invariant collapses.
  //
  // For a tuple x from `a`: the b-elements certainly before x are those
  // covered by the largest b-tuple with value < x, and at most
  // rmax(first b-tuple with value >= x) - 1 of b's elements can precede x.
  // For a tuple y from `b` the comparisons flip to <= and >. The merge order
  // itself supplies both boundaries: taking a[i] means b[j-1] < a[i] <= b[j],
  // and taking b[j] means a[i-1] <= b[j] < a[i], so the other summary's
  // cursor is already the first tuple past the boundary.
  std::size_t i = 0;  // next a-tuple
  std::size_t j = 0;  // next b-tuple

  while (i < a.size() || j < b.size()) {
    // MergeRuns (above) mirrors this exact predicate and operand order.
    const bool take_a =
        j >= b.size() || (i < a.size() && a.tuples_[i].value <= b.tuples_[j].value);
    if (take_a) {
      const GkTuple& t = a.tuples_[i];
      std::uint64_t rmin = t.rmin;
      std::uint64_t rmax = t.rmax;
      if (j > 0) rmin += b.tuples_[j - 1].rmin;
      rmax += j < b.size() ? b.tuples_[j].rmax - 1 : b.count_;
      out.tuples_.push_back({t.value, rmin, rmax});
      ++i;
    } else {
      const GkTuple& t = b.tuples_[j];
      std::uint64_t rmin = t.rmin;
      std::uint64_t rmax = t.rmax;
      if (i > 0) rmin += a.tuples_[i - 1].rmin;
      rmax += i < a.size() ? a.tuples_[i].rmax - 1 : a.count_;
      out.tuples_.push_back({t.value, rmin, rmax});
      ++j;
    }
  }
  return out;
}

void GkSummary::MergeWindowsInCascadeOrder(std::span<const float> windows,
                                           std::size_t window_size,
                                           std::vector<float>* out) {
  const std::size_t n = windows.size();
  STREAMGPU_CHECK(window_size >= 1 && n % window_size == 0);
  STREAMGPU_CHECK(std::has_single_bit(n / window_size));
  // Levels ping-pong between the two halves of `out`, starting in the one
  // that makes the last level land in the front half.
  out->resize(2 * n);
  const int levels = std::countr_zero(n / window_size);
  float* dst = out->data() + (levels % 2 == 1 ? 0 : n);
  float* spare = out->data() + (levels % 2 == 1 ? n : 0);
  if (levels == 0) std::copy(windows.begin(), windows.end(), out->begin());
  const float* src = windows.data();
  for (std::size_t width = window_size; width < n; width *= 2) {
    // The cascade folds each block into its earlier sibling as
    // Merge(later, earlier).
    for (std::size_t base = 0; base < n; base += 2 * width) {
      MergeRuns(src + base + width, src + base, width, dst + base);
    }
    src = dst;
    std::swap(dst, spare);
  }
  out->resize(n);
  STREAMGPU_DCHECK(MatchesCascadeNode(*out, windows, window_size));
}

void GkSummary::PruneExactRun(std::size_t max_tuples, std::vector<float>* run) {
  STREAMGPU_CHECK(max_tuples >= 1);
  if (run->size() <= max_tuples + 1) return;
#ifndef NDEBUG
  const std::vector<float> exact_run = *run;
#endif
  // Only r_0 and r_1 can repeat, so the k-th kept tuple sits at position
  // rank - 1 >= k - 1. Its value is written only once the (k+1)-th has been
  // read, from position >= k: the forward copy never overwrites a value it
  // still has to read.
  std::size_t kept = 0;
  float pending = 0.0f;
  ForEachExactPruneTuple(
      run->size(), max_tuples, [run](std::uint64_t rank) { return (*run)[rank - 1]; },
      [run, &kept, &pending](const GkTuple& t) {
        if (kept > 0) (*run)[kept - 1] = pending;
        pending = t.value;
        ++kept;
      });
  (*run)[kept - 1] = pending;
  run->resize(kept);
  STREAMGPU_DCHECK(MatchesPrunedNode(*run, exact_run, max_tuples));
}

bool GkSummary::FromExactRun(std::span<const float> run, std::uint64_t count,
                             std::size_t max_tuples, GkSummary* out) {
  if (max_tuples < 1) return false;
  std::vector<GkTuple> tuples;
  double epsilon = 0.0;
  if (count <= max_tuples + 1) {
    if (run.size() != count) return false;
    tuples.resize(run.size());
    for (std::size_t i = 0; i < run.size(); ++i) tuples[i] = {run[i], i + 1, i + 1};
  } else {
    tuples.reserve(std::min<std::size_t>(run.size(), max_tuples + 1));
    // The k-th kept tuple's value is run[k].
    bool fits = true;
    ForEachExactPruneTuple(
        count, max_tuples,
        [&](std::uint64_t) {
          if (tuples.size() < run.size()) return run[tuples.size()];
          fits = false;
          return 0.0f;
        },
        [&tuples](const GkTuple& t) { tuples.push_back(t); });
    if (!fits || tuples.size() != run.size()) return false;
    epsilon = PrunedEpsilon(0.0, max_tuples);  // the exact node's epsilon is 0
  }
  return FromParts(std::move(tuples), count, epsilon, out);
}

GkSummary GkSummary::Prune(std::size_t max_tuples) const {
  STREAMGPU_CHECK(max_tuples >= 1);
  if (size() <= max_tuples + 1) return *this;

  GkSummary out;
  out.count_ = count_;
  out.epsilon_ = PrunedEpsilon(epsilon_, max_tuples);
  out.tuples_.reserve(max_tuples + 1);
  // The target ranks are nondecreasing in i, so the boundary only moves
  // forward: one cursor sweep answers every rank in O(size() + max_tuples)
  // instead of a binary search per rank.
  std::size_t boundary = 0;
  for (std::size_t i = 0; i <= max_tuples; ++i) {
    const std::uint64_t rank = PruneRank(i, count_, max_tuples);
    while (boundary < tuples_.size() && BeforeRank(tuples_[boundary], rank)) ++boundary;
    const std::size_t best = BestAtBoundary(tuples_, boundary, rank);
    STREAMGPU_DCHECK(best == BestTupleForRank(rank));
    const GkTuple& t = tuples_[best];
    if (out.tuples_.empty() || !(out.tuples_.back() == t)) out.tuples_.push_back(t);
  }
  return out;
}

std::size_t GkSummary::BestTupleForRank(std::uint64_t rank) const {
  STREAMGPU_CHECK(!tuples_.empty());
  // rmin and rmax are both nondecreasing, so BeforeRank is a monotone
  // predicate and the boundary is binary-searchable.
  const auto it = std::partition_point(
      tuples_.begin(), tuples_.end(),
      [rank](const GkTuple& t) { return BeforeRank(t, rank); });
  return BestAtBoundary(tuples_, static_cast<std::size_t>(it - tuples_.begin()), rank);
}

float GkSummary::Query(double phi) const {
  STREAMGPU_CHECK(phi > 0.0 && phi <= 1.0);
  STREAMGPU_CHECK(!empty());
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(count_))));
  return QueryRank(rank);
}

float GkSummary::QueryRank(std::uint64_t rank) const {
  STREAMGPU_CHECK(!empty());
  STREAMGPU_CHECK(rank >= 1 && rank <= count_);
  return tuples_[BestTupleForRank(rank)].value;
}

}  // namespace streamgpu::sketch

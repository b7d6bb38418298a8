// Greenwald-Khanna epsilon-approximate quantile summaries [21], in the
// sensor-network formulation §5.2 builds on: a summary is a sorted list of
// (value, rmin, rmax) tuples built from a sorted window by rank sampling,
// and summaries support the classic MERGE (union with rank recombination)
// and PRUNE (requery at B+1 evenly spaced ranks, adding 1/(2B) error)
// operations.

#ifndef STREAMGPU_SKETCH_GK_SUMMARY_H_
#define STREAMGPU_SKETCH_GK_SUMMARY_H_

#include <cstdint>
#include <span>
#include <vector>

namespace streamgpu::sketch {

/// One summary tuple: an observed value together with lower/upper bounds on
/// its rank (1-based) among the elements the summary covers.
struct GkTuple {
  float value = 0;
  std::uint64_t rmin = 0;
  std::uint64_t rmax = 0;

  friend bool operator==(const GkTuple&, const GkTuple&) = default;
};

/// An epsilon-approximate quantile summary of `count()` elements: for any
/// rank r there is a tuple whose true rank is within epsilon()*count() of r.
class GkSummary {
 public:
  GkSummary() = default;

  /// Builds a summary from an ascending-sorted window by sampling every
  /// max(1, floor(2*target_epsilon*w))-th rank plus the extremes — the
  /// paper's "choosing the elements of rank 1, eps*S, 2*eps*S, ..., S"
  /// (§5.2). The result's epsilon() is <= target_epsilon.
  static GkSummary FromSorted(std::span<const float> sorted_window,
                              double target_epsilon);

  /// Reconstructs a summary from its components (deserialization path).
  /// Validates the structural invariants — values ascending, rmin <= rmax,
  /// rmin/rmax nondecreasing and within [1, count] — and returns false on
  /// violation, leaving `out` untouched.
  static bool FromParts(std::vector<GkTuple> tuples, std::uint64_t count,
                        double epsilon, GkSummary* out);

  /// Combines two summaries covering disjoint element sets. The union of
  /// tuples is kept with recombined rank bounds; the result is
  /// max(a.epsilon(), b.epsilon())-approximate for a.count() + b.count()
  /// elements ([21]'s merge).
  static GkSummary Merge(const GkSummary& a, const GkSummary& b);

  /// Merges a block of 2^k sorted windows of `window_size` elements each
  /// (concatenated in stream order) into one float run in the GK+EH
  /// cascade's own tree order: pairwise, bottom up, the later block as
  /// Merge's first operand. For windows FromSorted keeps whole (rank step
  /// 1), the result is exactly the value sequence of the cascade node those
  /// windows build, whose tuple at position i has rmin = rmax = i + 1. The
  /// result replaces the contents of `out`, which also serves as the merge
  /// workspace (twice the run's length) and keeps that capacity, so a
  /// reused buffer never allocates.
  static void MergeWindowsInCascadeOrder(std::span<const float> windows,
                                         std::size_t window_size,
                                         std::vector<float>* out);

  /// Samples, in place, the values of an exact node — a run such as
  /// MergeWindowsInCascadeOrder builds, whose tuple at position i has
  /// rmin = rmax = i + 1 — at the ranks Prune(max_tuples) picks from that
  /// node. On exact tuples Prune's target rank r lands on the tuple at
  /// position r, so the sample is the pruned node's value sequence and its
  /// ranks follow from the run's original length alone (FromExactRun). Runs
  /// of at most max_tuples + 1 values are left whole, as Prune leaves them.
  /// Never allocates.
  static void PruneExactRun(std::size_t max_tuples, std::vector<float>* run);

  /// Rebuilds the node whose values `run` holds, for a node of `count`
  /// elements: when count <= max_tuples + 1 the exact node itself
  /// (rmin = rmax = position, epsilon 0), else its Prune(max_tuples), whose
  /// values PruneExactRun sampled — tuples at Prune's target ranks with
  /// Prune's epsilon, bit for bit. Returns false, leaving `out` untouched,
  /// when run.size() is not that node's size or the values descend.
  static bool FromExactRun(std::span<const float> run, std::uint64_t count,
                           std::size_t max_tuples, GkSummary* out);

  /// Reduces the summary to at most max_tuples + 1 tuples by querying it at
  /// ranks i*count()/max_tuples, i = 0..max_tuples, at the price of
  /// 1/(2*max_tuples) additional error ([21]'s prune; §5.2's compress).
  /// One forward sweep: O(size() + max_tuples).
  GkSummary Prune(std::size_t max_tuples) const;

  /// Value whose rank is within epsilon()*count() of ceil(phi * count()),
  /// phi in (0, 1].
  float Query(double phi) const;

  /// Value whose rank is within epsilon()*count() of `rank` (1-based).
  float QueryRank(std::uint64_t rank) const;

  /// Number of stream elements this summary covers.
  std::uint64_t count() const { return count_; }

  /// Rank-error bound as a fraction of count().
  double epsilon() const { return epsilon_; }

  std::size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const std::vector<GkTuple>& tuples() const { return tuples_; }

 private:
  /// Index of the tuple minimizing the worst-case rank deviation from
  /// `rank`.
  std::size_t BestTupleForRank(std::uint64_t rank) const;

  std::vector<GkTuple> tuples_;  ///< ascending by value
  std::uint64_t count_ = 0;
  double epsilon_ = 0;
};

}  // namespace streamgpu::sketch

#endif  // STREAMGPU_SKETCH_GK_SUMMARY_H_

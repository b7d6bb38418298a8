// The exponential histogram of quantile summaries from §5.2: the stream
// model extension of the Greenwald-Khanna sensor-network algorithm.
//
// "The exponential histogram has log N buckets and each bucket is associated
// with a bucket id. ... If the bucket id is b, the error is set to
// eps/2 + eps*b/(2*(log N + 1)). ... we compute an eps/2-approximate summary
// for each new window ... assign it a bucket id of one ... If there are two
// buckets with the same bucket id, we combine the two into one larger bucket
// and increment their bucket id by one. The combine operation involves a
// merge and prune operation performed using an error parameter for
// (bucket id + 1)."

#ifndef STREAMGPU_SKETCH_EXPONENTIAL_HISTOGRAM_H_
#define STREAMGPU_SKETCH_EXPONENTIAL_HISTOGRAM_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sketch/gk_summary.h"

namespace streamgpu::sketch {

/// Whole-stream epsilon-approximate quantile summary maintained as an
/// exponential histogram of GK summaries. The stream length N is known a
/// priori (§5.2: "Given a large data stream of size N, where N is known"),
/// fixing the number of levels and hence each level's error budget.
class EhQuantileSummary {
 public:
  /// `epsilon` in (0, 1); `window_size` is the elements per incoming window;
  /// `expected_length` the a-priori stream length N.
  EhQuantileSummary(double epsilon, std::uint64_t window_size,
                    std::uint64_t expected_length);

  /// Inserts the summary of one new window at bucket id 1 and performs the
  /// combine cascade. `window_summary` must be an (epsilon/2)-approximate
  /// summary (e.g. GkSummary::FromSorted(sorted_window, epsilon/2)).
  void AddWindowSummary(GkSummary window_summary);

  /// Inserts `windows` exact windows at once, as the node the cascade
  /// builds from them at bucket id log2(windows)+1, and continues the
  /// combine cascade from that id. `run` is their merge in cascade order
  /// (GkSummary::MergeWindowsInCascadeOrder); when the node's own combine
  /// prunes (windows * window_size > prune_tuples() + 1) it is that run
  /// sampled by GkSummary::PruneExactRun(prune_tuples()). The windows must be
  /// exact window summaries (every element kept, e.g. FromSorted at rank
  /// step 1). Applies only when `windows` is a power of two >= 2 whose
  /// halves stay unpruned (at most one prune below the node), `run` has the
  /// node's size (GkSummary::FromExactRun), and buckets 1..log2(windows) are
  /// vacant — exactly when feeding the same windows one by one builds this
  /// node. Otherwise returns false and leaves the state untouched.
  /// Merge/prune tuple counters advance as the per-window cascade advances
  /// them.
  bool AddExactRun(std::span<const float> run, std::uint64_t windows);

  /// Reconstructs a summary from checkpointed parts (the durability restore
  /// path, docs/DURABILITY.md). `buckets` uses the buckets() layout: index i
  /// holds bucket id i+1, empty() = vacant. The configuration arguments must
  /// match the original constructor call. Validates that the bucket counts
  /// sum to `count`, that every bucket's epsilon stays within its
  /// LevelBudget, and that the bucket list stays within a sane cascade
  /// depth; returns false on violation, leaving `out` untouched.
  static bool FromParts(double epsilon, std::uint64_t window_size,
                        std::uint64_t expected_length, std::uint64_t count,
                        std::vector<GkSummary> buckets, EhQuantileSummary* out);

  /// Epsilon-approximate phi-quantile over everything inserted so far.
  float Query(double phi) const;

  /// Every bucket merged, in bucket order, into one GkSummary — what Query
  /// answers from and what the mergeable export serializes
  /// (sketch/quantile_sketch.cc). Each bucket is at most epsilon-approximate
  /// and GK MERGE keeps max(epsilon), so the result is epsilon-approximate.
  /// Built lazily and cached until the next AddWindowSummary; like every
  /// other call, it must be serialized against AddWindowSummary.
  const GkSummary& Flattened() const;

  /// Elements covered so far.
  std::uint64_t count() const { return count_; }

  /// Total tuples across all buckets (space usage).
  std::size_t TotalTuples() const;

  /// Number of levels the structure was provisioned for.
  int levels() const { return levels_; }

  /// Highest occupied bucket id (0 when empty).
  int MaxBucketId() const;

  /// The error budget of bucket id b: eps/2 + eps*b/(2*(levels+1)).
  double LevelBudget(int bucket_id) const;

  /// Tuple budget used by each combine's prune step.
  std::size_t prune_tuples() const { return prune_tuples_; }

  /// prune_tuples() of a summary constructed with these arguments.
  static std::size_t PruneTuples(double epsilon, std::uint64_t window_size,
                                 std::uint64_t expected_length);

  /// The bucket summaries (index i holds bucket id i+1; empty() = vacant),
  /// the full state the checkpoint serializes.
  const std::vector<GkSummary>& buckets() const { return buckets_; }

  /// Merge/compress wall costs, for Fig. 6-style breakdowns.
  double merge_seconds() const { return merge_seconds_; }
  double compress_seconds() const { return compress_seconds_; }

  /// Tuples touched by merges / prunes — operation counts for the P4 model.
  std::uint64_t merged_tuples() const { return merged_tuples_; }
  std::uint64_t pruned_tuples() const { return pruned_tuples_; }

 private:
  /// levels() of a summary constructed with these arguments.
  static int Levels(std::uint64_t window_size, std::uint64_t expected_length);

  /// The combine cascade: folds `carry` into bucket `id` and upward.
  void Carry(GkSummary carry, std::size_t id);

  double epsilon_;
  std::uint64_t window_size_;
  int levels_;
  std::size_t prune_tuples_;
  std::uint64_t count_ = 0;
  std::vector<GkSummary> buckets_;  ///< index i holds bucket id i+1; empty = vacant
  double merge_seconds_ = 0;
  double compress_seconds_ = 0;
  std::uint64_t merged_tuples_ = 0;
  std::uint64_t pruned_tuples_ = 0;
  mutable std::optional<GkSummary> flattened_;  ///< Flattened() cache; reset per mutation
};

/// The batch width of the exact-run path: 2 * LosslessBlockWindows when that
/// is at most 32, so the batch's node is pruned exactly once (its halves are
/// lossless) and travels as a PruneExactRun sample, else
/// LosslessBlockWindows itself (64 lossless windows, or 0). Never above 64,
/// the width of a batch's quarantine mask.
std::uint64_t ExactRunBatchWindows(double epsilon, std::uint64_t window_size,
                                   std::uint64_t expected_length);

/// The largest block of windows GK+EH maintenance can take losslessly: the
/// largest power of two L <= 64 with L * window_size <= prune_tuples() + 1,
/// so the cascade node of L windows is never pruned. Requires that the
/// windows are exact — floor(epsilon * window_size) <= 1, so FromSorted at
/// epsilon/2 (what the GK+EH quantile sketch feeds) keeps every element.
/// Returns 0 when the windows are not exact or fewer than two fit.
std::uint64_t LosslessBlockWindows(double epsilon, std::uint64_t window_size,
                                   std::uint64_t expected_length);

}  // namespace streamgpu::sketch

#endif  // STREAMGPU_SKETCH_EXPONENTIAL_HISTOGRAM_H_

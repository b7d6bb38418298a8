#include "sketch/exponential_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/timer.h"

namespace streamgpu::sketch {

EhQuantileSummary::EhQuantileSummary(double epsilon, std::uint64_t window_size,
                                     std::uint64_t expected_length)
    : epsilon_(epsilon), window_size_(window_size) {
  STREAMGPU_CHECK(epsilon > 0.0 && epsilon < 1.0);
  STREAMGPU_CHECK(window_size >= 1);
  levels_ = Levels(window_size, expected_length);
  prune_tuples_ = PruneTuples(epsilon, window_size, expected_length);
  buckets_.resize(static_cast<std::size_t>(levels_) + 8);
}

int EhQuantileSummary::Levels(std::uint64_t window_size, std::uint64_t expected_length) {
  const std::uint64_t expected_windows =
      std::max<std::uint64_t>(1, (expected_length + window_size - 1) / window_size);
  // Combining pairs of equal-id buckets means ids grow like log2 of the
  // number of windows; one extra level absorbs rounding.
  return static_cast<int>(std::ceil(std::log2(static_cast<double>(expected_windows) + 1.0))) +
         1;
}

std::size_t EhQuantileSummary::PruneTuples(double epsilon, std::uint64_t window_size,
                                           std::uint64_t expected_length) {
  // Each combine's prune may add at most the per-level budget increment
  // eps/(2*(levels+1)), i.e. 1/(2*prune_tuples) <= eps/(2*(levels+1)).
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(Levels(window_size, expected_length) + 1) / epsilon));
}

bool EhQuantileSummary::FromParts(double epsilon, std::uint64_t window_size,
                                  std::uint64_t expected_length,
                                  std::uint64_t count,
                                  std::vector<GkSummary> buckets,
                                  EhQuantileSummary* out) {
  if (!(epsilon > 0.0 && epsilon < 1.0) || window_size < 1) return false;
  // Bucket ids grow like log2 of the window count, so even a 2^64-element
  // history cannot legitimately occupy more than ~64 ids past the
  // provisioned levels. Anything deeper is corrupted input.
  EhQuantileSummary fresh(epsilon, window_size, expected_length);
  if (buckets.size() > fresh.buckets_.size() + 64) return false;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    // A bucket looser than its level's budget would make the stated
    // whole-history bound false.
    if (buckets[i].epsilon() > fresh.LevelBudget(static_cast<int>(i) + 1) + 1e-12) {
      return false;
    }
    total += buckets[i].count();
  }
  if (total != count) return false;
  if (buckets.size() > fresh.buckets_.size()) fresh.buckets_.resize(buckets.size());
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    fresh.buckets_[i] = std::move(buckets[i]);
  }
  fresh.count_ = count;
  *out = std::move(fresh);
  return true;
}

double EhQuantileSummary::LevelBudget(int bucket_id) const {
  return epsilon_ / 2.0 + epsilon_ * static_cast<double>(bucket_id) /
                              (2.0 * static_cast<double>(levels_ + 1));
}

void EhQuantileSummary::AddWindowSummary(GkSummary window_summary) {
  if (window_summary.empty()) return;
  STREAMGPU_CHECK_MSG(window_summary.epsilon() <= LevelBudget(1) + 1e-12,
                      "window summary must be (epsilon/2)-approximate");
  count_ += window_summary.count();
  flattened_.reset();
  Carry(std::move(window_summary), 1);
}

bool EhQuantileSummary::AddExactRun(std::span<const float> run, std::uint64_t windows) {
  if (windows < 2 || !std::has_single_bit(windows)) return false;
  // Both halves must reach the node unpruned, so that the node's own combine
  // is the only prune below it.
  if (windows / 2 * window_size_ > prune_tuples_ + 1) return false;
  const std::size_t id = static_cast<std::size_t>(std::countr_zero(windows)) + 1;
  for (std::size_t low = 1; low < id; ++low) {
    if (!buckets_[low - 1].empty()) return false;
  }
  const std::uint64_t elements = windows * window_size_;
  GkSummary node;
  if (!GkSummary::FromExactRun(run, elements, prune_tuples_, &node)) return false;

  // The id-1 levels below the node each merged (and passed through the
  // prune check) every one of its elements' tuples once.
  merged_tuples_ += elements * (id - 1);
  pruned_tuples_ += elements * (id - 1);
  count_ += elements;
  flattened_.reset();
  Carry(std::move(node), id);
  return true;
}

void EhQuantileSummary::Carry(GkSummary carry, std::size_t id) {
  while (id <= buckets_.size() && !buckets_[id - 1].empty()) {
    // Combine the two same-id buckets: merge, then prune with the error
    // parameter of bucket id + 1 (§5.2).
    Timer merge_timer;
    GkSummary merged = GkSummary::Merge(carry, buckets_[id - 1]);
    merge_seconds_ += merge_timer.ElapsedSeconds();
    merged_tuples_ += merged.size();

    Timer compress_timer;
    pruned_tuples_ += merged.size();
    if (merged.size() > prune_tuples_ + 1) {
      carry = merged.Prune(prune_tuples_);
    } else {
      carry = std::move(merged);  // within budget: Prune would return a copy
    }
    compress_seconds_ += compress_timer.ElapsedSeconds();

    buckets_[id - 1] = GkSummary();
    ++id;
  }
  if (id > buckets_.size()) buckets_.resize(id);
  buckets_[id - 1] = std::move(carry);
}

float EhQuantileSummary::Query(double phi) const {
  STREAMGPU_CHECK_MSG(count_ > 0, "query on empty summary");
  return Flattened().Query(phi);
}

const GkSummary& EhQuantileSummary::Flattened() const {
  if (!flattened_) {
    GkSummary all;
    for (const GkSummary& bucket : buckets_) {
      if (!bucket.empty()) all = GkSummary::Merge(all, bucket);
    }
    flattened_ = std::move(all);
  }
  return *flattened_;
}

std::size_t EhQuantileSummary::TotalTuples() const {
  std::size_t total = 0;
  for (const GkSummary& bucket : buckets_) total += bucket.size();
  return total;
}

std::uint64_t ExactRunBatchWindows(double epsilon, std::uint64_t window_size,
                                   std::uint64_t expected_length) {
  const std::uint64_t lossless = LosslessBlockWindows(epsilon, window_size, expected_length);
  return lossless <= 32 ? 2 * lossless : lossless;
}

std::uint64_t LosslessBlockWindows(double epsilon, std::uint64_t window_size,
                                   std::uint64_t expected_length) {
  if (static_cast<std::uint64_t>(epsilon * static_cast<double>(window_size)) > 1) return 0;
  const std::size_t budget =
      EhQuantileSummary::PruneTuples(epsilon, window_size, expected_length) + 1;
  std::uint64_t windows = 64;
  while (windows >= 2 && windows * window_size > budget) windows /= 2;
  return windows >= 2 ? windows : 0;
}

int EhQuantileSummary::MaxBucketId() const {
  int max_id = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (!buckets_[i].empty()) max_id = static_cast<int>(i) + 1;
  }
  return max_id;
}

}  // namespace streamgpu::sketch

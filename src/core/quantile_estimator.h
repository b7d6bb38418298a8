// Public API: epsilon-approximate quantile estimation over a data stream,
// GPU-accelerated per §5.2 — each window is sorted by the configured
// backend, rank-sampled into a Greenwald-Khanna summary, and maintained in
// an exponential histogram (whole history) or a block-decomposed
// sliding-window structure (§5.3).

#ifndef STREAMGPU_CORE_QUANTILE_ESTIMATOR_H_
#define STREAMGPU_CORE_QUANTILE_ESTIMATOR_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/backend.h"
#include "core/costs.h"
#include "core/fault.h"
#include "core/instrumentation.h"
#include "core/options.h"
#include "core/report.h"
#include "core/status.h"
#include "core/summary_core.h"
#include "durable/checkpoint.h"
#include "gpu/stats.h"
#include "sort/radix_sort.h"
#include "sort/resilient.h"
#include "stream/pipeline.h"
#include "stream/window_buffer.h"

namespace streamgpu::core {

/// Streaming epsilon-approximate quantile estimator.
///
/// Usage:
///   Options opt;
///   opt.epsilon = 1e-3;
///   auto qe = QuantileEstimator::Create(opt);
///   if (!qe.ok()) { /* report qe.status() */ }
///   for (float v : stream) (*qe)->Observe(v);
///   (*qe)->Flush();
///   QuantileReport median = (*qe)->Quantile(0.5);
///
/// The returned element's rank among the covered elements is within
/// epsilon * N of phi * N; the report carries that bound explicitly.
///
/// Lifecycle, pipelining, and observability follow FrequencyEstimator
/// exactly: Flush() finalizes (idempotent, Observe() afterwards returns
/// kFailedPrecondition), Options::num_sort_workers >= 2 enables the parallel
/// ingest pipeline with bit-identical answers, and Options::obs wires
/// "quant."-prefixed metrics and spans.
class QuantileEstimator {
 public:
  /// Validated construction: returns configuration errors (see
  /// Options::Validate()) instead of aborting. The returned estimator is
  /// never null on ok().
  static StatusOr<std::unique_ptr<QuantileEstimator>> Create(const Options& options);

  /// Direct construction CHECK-aborts on invalid options; prefer Create().
  explicit QuantileEstimator(const Options& options);

  /// Processes one stream element. Fails (and ignores the element) once the
  /// estimator is finalized by Flush(), or — pipelined — once the pipeline
  /// has failed (the drain thread's sticky Status, or kDeadlineExceeded when
  /// Options::fault.drain_deadline_seconds elapses on backpressure).
  Status Observe(float value);

  /// Processes a batch of stream elements. Stops at the first failing
  /// element and returns its Status (earlier elements stay observed).
  Status ObserveBatch(std::span<const float> values);

  /// Finalizes the stream: processes buffered windows, including a final
  /// partial one, and puts the estimator in a query-only state. Idempotent —
  /// repeated calls return the same Status. Returns the pipeline's failure
  /// Status when the drain thread died or the drain deadline elapsed; the
  /// estimator stays queryable over whatever was processed.
  Status Flush();

  /// True once Flush() has finalized the estimator.
  bool finalized() const { return finalized_; }

  /// The phi-quantile (phi in (0, 1]) over the whole history, or — in
  /// sliding mode — over the most recent `window` elements (0 = full
  /// sliding window). The report carries the rank-error bound and the
  /// coverage the answer is stated over.
  QuantileReport Quantile(double phi, std::uint64_t window = 0) const;

  /// Serializes the mergeable shard summary as one wire envelope
  /// (sketch/serialize.h) — the export `streamgpu_cli merge` and the shard
  /// combiners consume. Requires a finalized estimator (call Flush() first,
  /// so buffered windows are covered) in whole-history mode; sliding mode
  /// is not mergeable. Fails with kFailedPrecondition otherwise.
  StatusOr<std::vector<std::uint8_t>> SerializedSummary() const;

  /// Snapshots the estimator's full durable state — summary core (with its
  /// quarantine/shed accounting), staged partial window, and watermark —
  /// into Options::checkpoint_dir with the crash-consistent protocol of
  /// durable/checkpoint.h. Waits for in-flight pipeline batches first, so
  /// the snapshot is a consistent batch-boundary cut. kFailedPrecondition
  /// without a checkpoint_dir; pipeline failures propagate. Also runs
  /// automatically every Options::checkpoint_every_windows merged windows.
  /// See docs/DURABILITY.md.
  Status Checkpoint();

  /// Resumes from the newest usable snapshot in options.checkpoint_dir. The
  /// returned estimator answers exactly as the checkpointed one did;
  /// observed_length() tells the caller which input suffix to replay.
  /// kFailedPrecondition when the directory holds no usable checkpoint
  /// (callers typically start fresh); kInvalidArgument when the snapshot
  /// disagrees with `options` or is corrupt — never a crash.
  static StatusOr<std::unique_ptr<QuantileEstimator>> Restore(const Options& options);

  /// Snapshots committed by this estimator (explicit + automatic).
  std::uint64_t checkpoints() const {
    return checkpoint_writer_ == nullptr ? 0 : checkpoint_writer_->commits();
  }

  /// Elements already folded into the summary.
  std::uint64_t processed_length() const {
    Sync();
    return core_.processed();
  }

  /// Elements observed, including still-buffered ones.
  std::uint64_t observed_length() const { return observed_; }

  /// Current summary tuples (space usage).
  std::size_t summary_size() const;

  /// Accumulated per-operation costs (Fig. 7 source data).
  const PipelineCosts& costs() const;

  /// Serializes costs() and the stream/summary gauges into the wired
  /// MetricsRegistry (no-op without one).
  void ExportMetrics() const;

  /// Simulated end-to-end 2005-hardware seconds for everything processed.
  double SimulatedSeconds() const;

  /// Aggregated simulated-device counters (summed across pipeline workers;
  /// all-zero for the CPU backends).
  gpu::GpuStats device_stats() const;

  /// Aggregated fault-injection/recovery accounting across the serial path
  /// and every pipeline worker (all-zero when Options::fault is disabled).
  /// See docs/ROBUSTNESS.md.
  FaultStats fault_stats() const;

  const Options& options() const { return options_; }
  bool sliding() const { return core_.sliding(); }
  bool pipelined() const { return pipeline_ != nullptr; }

 private:
  /// Hot ingest path for Observe() after the lifecycle check.
  Status ObserveValue(float value);

  /// Hands the completed batch to the pipeline (or processes it inline) and
  /// latches any pipeline failure. Called exactly when the batcher fills.
  Status SubmitFullBatch();

  /// Cadence bookkeeping after a successful batch submit: checkpoints when
  /// checkpoint_every_windows merged windows have accumulated. Ok when no
  /// checkpoint is due.
  Status MaybeAutoCheckpoint();

  /// Installs a validated snapshot into this freshly constructed estimator
  /// (Restore()'s second half).
  Status InstallSnapshot(const durable::Snapshot& snapshot);

  void ProcessBuffered();

  /// Pipelined path: consumes one sorted batch on the summary thread, in
  /// submission order, through MergeSortedBatch. `exact_run` is what the
  /// worker stage (BuildExactRun) made of the batch.
  Status DrainSortedBatch(std::vector<float>&& data, const sort::SortRunInfo& run,
                          std::uint64_t quarantine_mask, std::span<const float> exact_run);

  /// The worker stage of the exact-run path: merges a batch of exactly
  /// run_windows_ full, unquarantined windows in cascade order into `out`
  /// (sketch::GkSummary::MergeWindowsInCascadeOrder) and, when the batch's
  /// node prunes, samples it at the prune's ranks (PruneExactRun); leaves
  /// `out` empty for any other batch. Reads nothing the drain writes except the
  /// runs_refused_ latch, so sort workers call it concurrently.
  void BuildExactRun(std::span<const float> sorted_batch, std::uint64_t quarantine_mask,
                     std::vector<float>* out) const;

  /// The one batch-insert path of both modes: folds a non-empty `exact_run`
  /// as one node when the summary core takes it, else merges the batch
  /// window by window, skipping and accounting quarantined windows (mask
  /// bit set). Returns the elements merged.
  std::size_t MergeSortedBatch(std::span<const float> data, std::uint64_t quarantine_mask,
                               std::span<const float> exact_run);

  /// Accounts one unrecoverable window (widens the reported error bound);
  /// delegates to the shared summary core.
  void QuarantineWindow(std::size_t elements);

  /// Rank-samples one sorted window into a GK summary and merges it (shared
  /// by both paths; runs on the summary thread when pipelined).
  void MergeSortedWindow(std::span<const float> window);

  /// Pipelined mode: waits for in-flight batches and refreshes the pipeline
  /// wait-stats in costs_. No-op in serial mode.
  void Sync() const;

  /// Closes the open ingest_batch span (tracing only).
  void EndIngestSpan(std::size_t elements);

  Options options_;
  obs::Observability obs_;
  SortEngine engine_;
  /// The prune budget PruneExactRun samples runs to; declared before
  /// run_windows_, whose initializer sets it.
  std::size_t run_prune_tuples_ = 0;
  /// Windows per exact run, which is then also the batch width (see
  /// docs/ARCHITECTURE.md, "Batch width"); 0 when this configuration has no
  /// exact-run path.
  const std::uint64_t run_windows_;
  stream::WindowBatcher batcher_;
  /// Summary state + report construction, shared with service::StreamService
  /// (core/summary_core.h) — the single implementation both execution paths
  /// answer from.
  QuantileSummaryCore core_;
  hwmodel::CpuModel cpu_model_;
  mutable PipelineCosts costs_;
  std::uint64_t observed_ = 0;
  bool finalized_ = false;

  /// Durable checkpointing (null when Options::checkpoint_dir is empty).
  std::unique_ptr<durable::CheckpointWriter> checkpoint_writer_;
  std::uint64_t windows_since_checkpoint_ = 0;

  /// Set once the summary core refused an exact run (its window counter is
  /// misaligned with the batches, e.g. after a quarantined window): runs
  /// are not built from then on, and every batch merges window by window.
  std::atomic<bool> runs_refused_{false};
  std::vector<float> serial_run_;  ///< serial mode's exact run (and its workspace)

  /// Fault injection and recovery (all null / zero when Options::fault is
  /// disabled — the hot path then never sees them).
  std::unique_ptr<FaultInjector> fault_injector_;            ///< serial-path injector
  std::unique_ptr<sort::RadixMergeSorter> fallback_sorter_;  ///< serial CPU fallback
  std::unique_ptr<sort::ResilientSorter> resilient_sorter_;  ///< wraps engine_'s sorter
  mutable Status pipeline_status_;  ///< first pipeline failure (sticky)

  /// Observability wiring (null ids / null decorators when disabled).
  EstimatorMetricIds ids_;
  obs::MetricId run_windows_merged_ = obs::kInvalidMetric;  ///< quant.merge.run_windows
  std::unique_ptr<TracingSorter> traced_sorter_;  ///< wraps engine_ (serial path)
  sort::Sorter* sort_front_ = nullptr;            ///< engine sorter or its decorator(s)
  std::uint64_t window_seq_ = 0;                  ///< windows merged; trace sampling
  std::uint64_t ingest_seq_ = 0;                  ///< batches ingested; trace sampling
  std::uint64_t drain_seq_ = 0;                   ///< serial drain batches
  double ingest_start_us_ = -1;                   ///< open ingest span start

  /// Pipelined mode only: one engine per sort worker (plus its resilience /
  /// tracing decorators when wired), and the pipeline driving them.
  /// Declared last so threads stop before members they reference are
  /// destroyed.
  std::vector<std::unique_ptr<SortEngine>> worker_engines_;
  std::vector<std::unique_ptr<FaultInjector>> worker_injectors_;
  std::vector<std::unique_ptr<sort::RadixMergeSorter>> worker_fallbacks_;
  std::vector<std::unique_ptr<sort::ResilientSorter>> worker_resilient_;
  std::vector<std::unique_ptr<TracingSorter>> traced_workers_;
  std::unique_ptr<stream::SortPipeline> pipeline_;
};

}  // namespace streamgpu::core

#endif  // STREAMGPU_CORE_QUANTILE_ESTIMATOR_H_

// Parallel multi-window ingest pipeline.
//
// The paper's speedup story is overlap (§4, §5.1): the GPU sorts four
// RGBA-packed windows while the CPU merges and compresses the summaries of
// earlier windows. The seed reproduction ran every stage serially on one host
// thread; SortPipeline restores the overlap on real multicore hardware while
// leaving the simulated-2005 accounting bit-identical to serial execution.
//
// Topology (see docs/ARCHITECTURE.md for the full dataflow):
//
//   caller thread          N sort workers              1 summary thread
//   Submit(batch) ──queue──> SortRuns(windows) ──reorder──> drain(batch)
//                            [+ worker stage]
//
// * The caller (ingest) thread hands over whole window-batches and blocks
//   only when `max_batches_in_flight` batches are already in the pipeline
//   (backpressure, accounted as ingest stall time).
// * Each sort worker owns its own Sorter — for the GPU backends that means
//   one simulated GpuDevice per worker, so GpuStats counting never races.
// * An optional worker stage runs on the sort worker right after SortRuns
//   and hands the drain a second float buffer with the batch — work that is
//   a pure function of one sorted batch moves off the drain thread (the
//   quantile path merges its exact windows there, docs/ARCHITECTURE.md).
// * A single drain thread consumes sorted batches strictly in submission
//   order. Summaries therefore see exactly the window sequence serial
//   execution produces: identical merges, identical epsilon guarantees,
//   identical cost accumulation order (bit-identical simulated seconds).
//
// Steady-state operation is allocation-free: the submit queue and the
// reorder buffer are fixed rings sized by the in-flight cap, per-worker
// window-span scratch and per-slot stage output buffers are reused across
// batches, and drained batch buffers are recycled to the ingest side through
// AcquireBuffer() (the pool is stocked for the full in-flight cap on the
// first Submit). After the first few batches warm the rings up, the
// Submit -> sort -> drain loop performs zero heap allocations
// (tests/alloc_test.cc holds this with a counting operator new).
//
// Wall-clock queue-wait per stage is recorded so benchmarks can report how
// much overlap the pipeline actually achieved (PipelineWaitStats).

#ifndef STREAMGPU_STREAM_PIPELINE_H_
#define STREAMGPU_STREAM_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "sort/sorter.h"

namespace streamgpu::stream {

/// Static configuration of a SortPipeline.
struct PipelineConfig {
  /// Elements per window; submitted batches are split into spans of this
  /// size (the final span of the final batch may be partial).
  std::uint64_t window_size = 0;

  /// Maximum window-batches admitted before Submit() blocks (backpressure).
  /// 0 = number of workers + 2: enough that every worker stays busy while
  /// one batch drains and one is being filled.
  int max_batches_in_flight = 0;

  /// Span sink (borrowed; null = tracing off, the default). When set, the
  /// pipeline names its threads "<trace_label>.sort-N" / "<trace_label>.drain"
  /// and emits one drain_batch span per drained batch plus an ingest_stall
  /// span whenever Submit() blocks on backpressure. Sort-stage spans come
  /// from the sorters themselves (core::TracingSorter), not from here.
  obs::TraceRecorder* trace = nullptr;

  /// Track-name prefix distinguishing coexisting pipelines in one trace
  /// (e.g. "freq" / "quant" for a StreamMiner).
  std::string trace_label = "pipeline";

  /// Flight-event sink (borrowed; null = off). The pipeline records batch
  /// submit/drain progress and queue stalls into the ring, and dumps it when
  /// the drain latches its sticky failure — the artifact that makes a dead
  /// pipeline diagnosable after the fact (docs/OBSERVABILITY.md).
  obs::FlightRecorder* flight = nullptr;

  /// Maximum seconds Submit()/WaitIdle() block on the in-flight cap before
  /// returning kDeadlineExceeded instead of waiting forever (0 = no
  /// deadline). A fault-tolerance knob: a wedged worker then surfaces as a
  /// Status, not a hang (docs/ROBUSTNESS.md).
  double drain_deadline_seconds = 0;

  /// Fault-injection hook polled by each worker before it sorts a dequeued
  /// batch; returns a stall in microseconds to sleep (0 = none). Null (the
  /// default) disables the queue fault site.
  std::function<unsigned(int worker_index)> queue_stall_hook;

  /// Optional worker stage (null = none, the default), called on the sort
  /// worker right after SortRuns with the sorted batch and its quarantine
  /// mask. It writes its result into `out` (handed over empty), which
  /// reaches the DrainFn as `stage_output`; leaving `out` empty means "no
  /// output for this batch". Each reorder slot owns one such buffer and
  /// keeps its capacity, so a stage that only resizes it allocates nothing
  /// once every slot has been used. It must not touch state the drain owns:
  /// it runs concurrently with the drain and with the other workers.
  std::function<void(std::span<const float> sorted_batch, std::uint64_t quarantine_mask,
                     std::vector<float>* out)>
      worker_stage;
};

/// Wall-clock overlap accounting, accumulated over the pipeline's lifetime.
/// All fields are host wall-clock; none of them feed the simulated-2005
/// model (see docs/COST_MODEL.md).
struct PipelineWaitStats {
  /// Time Submit() spent blocked on the in-flight cap (ingest backpressure:
  /// the stream arrived faster than the pipeline could sort + drain).
  double ingest_stall_seconds = 0;

  /// Time batches sat in the submit queue before a sort worker picked them
  /// up (all workers busy).
  double sort_queue_wait_seconds = 0;

  /// Time sorted batches sat in the reorder buffer before the drain thread
  /// consumed them (drain busy, or an earlier batch still sorting).
  double drain_queue_wait_seconds = 0;

  /// Total wall-clock the workers spent inside SortRuns (summed across
  /// workers; exceeds elapsed time when sorts overlap).
  double sort_wall_seconds = 0;

  /// Total wall-clock the workers spent inside the worker stage (summed
  /// across workers; 0 without one).
  double stage_wall_seconds = 0;

  /// Total wall-clock spent inside the drain callback.
  double drain_wall_seconds = 0;

  /// Batches drained.
  std::uint64_t batches = 0;
};

/// Worker-pool executor that keeps several window-batches in flight:
/// sorting fans out across workers, summary maintenance stays single-
/// threaded and in order.
///
/// Thread contract: Submit()/AcquireBuffer()/WaitIdle() must be called from
/// one thread (the ingest thread). The drain callback runs on the pipeline's
/// summary thread; WaitIdle() establishes a happens-before with every drain
/// completed so far, after which the ingest thread may safely read
/// drain-side state. The destructor finishes all submitted work before
/// joining.
class SortPipeline {
 public:
  /// Consumes one sorted batch (windows of `window_size`, concatenated; the
  /// last window may be partial) plus the sort-cost record of that batch.
  /// Called on the summary thread, strictly in submission order. The vector
  /// is on loan: read it (or move it out and lose the recycling), but do not
  /// hold the reference past the call — the pipeline reclaims the storage
  /// afterwards and reissues it through AcquireBuffer().
  ///
  /// `quarantine_mask` forwards the sorter's last_quarantine_mask(): bit i
  /// set means window i of the batch was unrecoverable and holds its
  /// *unsorted* input — skip it and account the coverage loss.
  /// `stage_output` is what the worker stage wrote for this batch (empty
  /// without a stage, or when it wrote nothing); like `data` it is on loan
  /// for the call. A non-OK return poisons the pipeline: the drain thread
  /// stops, and every later Submit()/WaitIdle() returns that Status.
  using DrainFn = std::function<core::Status(
      std::vector<float>&& data, const sort::SortRunInfo& run, std::uint64_t quarantine_mask,
      std::span<const float> stage_output)>;

  /// The drain of a pipeline without a worker stage.
  using BatchDrainFn = std::function<core::Status(
      std::vector<float>&& data, const sort::SortRunInfo& run, std::uint64_t quarantine_mask)>;

  /// One worker thread is spawned per sorter; `sorters` are borrowed and
  /// must outlive the pipeline. Each sorter must be exclusive to this
  /// pipeline (workers drive them concurrently, one worker per sorter).
  SortPipeline(const PipelineConfig& config, std::vector<sort::Sorter*> sorters,
               DrainFn drain);
  SortPipeline(const PipelineConfig& config, std::vector<sort::Sorter*> sorters,
               BatchDrainFn drain);
  ~SortPipeline();

  SortPipeline(const SortPipeline&) = delete;
  SortPipeline& operator=(const SortPipeline&) = delete;

  /// Hands one window-batch to the pipeline. Blocks while
  /// `max_batches_in_flight` batches are already in flight. Empty batches
  /// are ignored. Returns non-OK — without enqueuing — once the drain
  /// callback has failed (its Status, sticky) or when the backpressure wait
  /// exceeds the configured drain deadline (kDeadlineExceeded).
  core::Status Submit(std::vector<float>&& batch);

  /// Returns a drained batch's storage for reuse (empty, capacity retained),
  /// or an empty vector when none has been recycled yet. Hand the result to
  /// WindowBatcher::TakeBuffer() as the replacement buffer and the ingest
  /// loop stops allocating once the pipeline reaches steady state.
  std::vector<float> AcquireBuffer();

  /// Blocks until every submitted batch has been sorted and drained.
  /// Returns the drain failure Status (sticky) if the drain thread has died,
  /// or kDeadlineExceeded when the configured drain deadline elapses first.
  core::Status WaitIdle();

  /// Snapshot of the wait/overlap accounting. Call after WaitIdle() for a
  /// consistent picture.
  PipelineWaitStats stats() const;

  int num_workers() const { return static_cast<int>(sorters_.size()); }
  int max_batches_in_flight() const { return max_in_flight_; }

 private:
  struct PendingBatch {
    std::uint64_t seq = 0;
    std::vector<float> data;
    double enqueued_at = 0;
  };
  struct SortedBatch {
    std::vector<float> data;
    sort::SortRunInfo run;
    std::uint64_t quarantine_mask = 0;
    double ready_at = 0;
    bool occupied = false;  // ring-slot validity (reorder buffer)
  };

  void WorkerLoop(int worker_index);
  void DrainLoop();

  const std::uint64_t window_size_;
  const std::vector<sort::Sorter*> sorters_;
  const DrainFn drain_;
  obs::TraceRecorder* const trace_;
  const std::string trace_label_;
  obs::FlightRecorder* const flight_;
  const double drain_deadline_seconds_;
  const std::function<unsigned(int)> queue_stall_hook_;
  const decltype(PipelineConfig::worker_stage) worker_stage_;
  int max_in_flight_ = 0;

  mutable std::mutex mu_;
  std::condition_variable slot_free_;     // in_flight_ dropped below the cap
  std::condition_variable work_ready_;    // pending ring non-empty (or stopping)
  std::condition_variable sorted_ready_;  // reorder buffer advanced (or stopping)
  std::condition_variable idle_;          // a batch finished draining

  bool stop_ = false;
  // First drain failure (sticky). While non-OK the drain thread is gone:
  // Submit()/WaitIdle() return it instead of waiting on progress that will
  // never come (the ISSUE's forever-block bug).
  core::Status failed_;
  int in_flight_ = 0;
  std::uint64_t next_submit_seq_ = 0;
  std::uint64_t next_drain_seq_ = 0;

  // Submit queue: fixed ring of max_in_flight_ slots (the in-flight cap
  // bounds its population), consumed FIFO by the workers.
  std::vector<PendingBatch> pending_ring_;
  std::size_t pending_head_ = 0;
  std::size_t pending_count_ = 0;

  // Reorder buffer: slot seq % max_in_flight_ holds batch seq. The in-flight
  // cap keeps outstanding sequence numbers within one ring revolution, so a
  // slot is always free when a worker stores into it.
  std::vector<SortedBatch> sorted_ring_;

  // Storage of drained batches, recycled to the ingest thread (bounded by
  // the in-flight cap plus the one buffer the ingest thread is filling).
  std::vector<std::vector<float>> free_buffers_;

  bool pool_primed_ = false;  // free_buffers_ stocked by the first Submit()

  // Worker-stage output of batch seq lives in slot seq % max_in_flight_,
  // like the reorder buffer (empty without a worker stage).
  std::vector<std::vector<float>> stage_outputs_;

  // Per-worker window-span scratch for SortRuns (reused across batches).
  std::vector<std::vector<std::span<float>>> window_scratch_;

  PipelineWaitStats stats_;

  std::vector<std::thread> workers_;
  std::thread drain_thread_;
};

}  // namespace streamgpu::stream

#endif  // STREAMGPU_STREAM_PIPELINE_H_

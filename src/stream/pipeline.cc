#include "stream/pipeline.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/timer.h"

namespace streamgpu::stream {

namespace {

// Monotonic seconds for queue-wait arithmetic.
double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Splits a batch into window-sized runs, mirroring WindowBatcher::Windows()
// (the final run may be partial). Fills caller-owned scratch so the hot loop
// reuses its capacity instead of allocating per batch.
void SplitWindows(std::vector<float>& data, std::uint64_t window_size,
                  std::vector<std::span<float>>* out) {
  out->clear();
  for (std::size_t off = 0; off < data.size(); off += window_size) {
    const std::size_t len = std::min<std::size_t>(window_size, data.size() - off);
    out->emplace_back(data.data() + off, len);
  }
}

}  // namespace

SortPipeline::SortPipeline(const PipelineConfig& config,
                           std::vector<sort::Sorter*> sorters, DrainFn drain)
    : window_size_(config.window_size),
      sorters_(std::move(sorters)),
      drain_(std::move(drain)),
      trace_(config.trace),
      trace_label_(config.trace_label),
      flight_(config.flight),
      drain_deadline_seconds_(config.drain_deadline_seconds),
      queue_stall_hook_(config.queue_stall_hook),
      worker_stage_(config.worker_stage) {
  STREAMGPU_CHECK_MSG(window_size_ >= 1, "pipeline window_size must be >= 1");
  STREAMGPU_CHECK_MSG(!sorters_.empty(), "pipeline needs at least one sorter");
  for (sort::Sorter* sorter : sorters_) STREAMGPU_CHECK(sorter != nullptr);
  STREAMGPU_CHECK_MSG(static_cast<bool>(drain_), "pipeline needs a drain callback");
  max_in_flight_ = config.max_batches_in_flight > 0
                       ? config.max_batches_in_flight
                       : static_cast<int>(sorters_.size()) + 2;

  pending_ring_.resize(static_cast<std::size_t>(max_in_flight_));
  sorted_ring_.resize(static_cast<std::size_t>(max_in_flight_));
  free_buffers_.reserve(static_cast<std::size_t>(max_in_flight_) + 1);
  if (worker_stage_) stage_outputs_.resize(static_cast<std::size_t>(max_in_flight_));
  window_scratch_.resize(sorters_.size());

  workers_.reserve(sorters_.size());
  for (std::size_t i = 0; i < sorters_.size(); ++i) {
    workers_.emplace_back(&SortPipeline::WorkerLoop, this, static_cast<int>(i));
  }
  drain_thread_ = std::thread(&SortPipeline::DrainLoop, this);
}

SortPipeline::SortPipeline(const PipelineConfig& config,
                           std::vector<sort::Sorter*> sorters, BatchDrainFn drain)
    : SortPipeline(config, std::move(sorters),
                   DrainFn([drain = std::move(drain)](
                               std::vector<float>&& data, const sort::SortRunInfo& run,
                               std::uint64_t quarantine_mask, std::span<const float>) {
                     return drain(std::move(data), run, quarantine_mask);
                   })) {
  STREAMGPU_CHECK_MSG(!worker_stage_, "a pipeline with a worker stage needs a DrainFn");
}

SortPipeline::~SortPipeline() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  // Workers finish the pending queue, the drain thread finishes the reorder
  // buffer: destruction flushes rather than drops in-flight batches.
  work_ready_.notify_all();
  sorted_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  sorted_ready_.notify_all();  // workers are gone; wake the drain for its exit check
  drain_thread_.join();
}

core::Status SortPipeline::Submit(std::vector<float>&& batch) {
  if (batch.empty()) return core::Status::Ok();
  std::unique_lock<std::mutex> lock(mu_);
  STREAMGPU_CHECK_MSG(!stop_, "Submit() after destruction began");
  const double wait_start = Now();
  const double trace_start = trace_ != nullptr ? trace_->NowMicros() : 0;
  // A dead drain thread never frees a slot: wake on failure too, so the
  // in-flight cap surfaces the worker's Status instead of blocking forever.
  const auto admissible = [&] { return !failed_.ok() || in_flight_ < max_in_flight_; };
  if (drain_deadline_seconds_ > 0) {
    if (!slot_free_.wait_for(lock, std::chrono::duration<double>(drain_deadline_seconds_),
                             admissible)) {
      return core::Status::DeadlineExceeded(
          "pipeline made no progress within the drain deadline");
    }
  } else {
    slot_free_.wait(lock, admissible);
  }
  if (!failed_.ok()) return failed_;
  stats_.ingest_stall_seconds += Now() - wait_start;
  if (trace_ != nullptr) {
    // Backpressure made visible: only worth a span when Submit() actually
    // blocked (sub-microsecond waits are lock handoff noise).
    const double stall_us = trace_->NowMicros() - trace_start;
    if (stall_us > 1.0) {
      trace_->AddSpan("ingest_stall", "ingest", trace_start, stall_us,
                      {{"seq", static_cast<double>(next_submit_seq_)}});
    }
  }
  if (!pool_primed_) {
    // Stock the recycling pool with every buffer the in-flight cap can ever
    // need, so AcquireBuffer() never comes back empty and steady state does
    // not depend on how full the pipeline happened to get while warming up.
    for (int i = 0; i < max_in_flight_; ++i) {
      free_buffers_.emplace_back().reserve(batch.capacity());
    }
    pool_primed_ = true;
  }
  ++in_flight_;
  PendingBatch& slot =
      pending_ring_[(pending_head_ + pending_count_) % pending_ring_.size()];
  ++pending_count_;
  slot.seq = next_submit_seq_++;
  slot.data = std::move(batch);
  slot.enqueued_at = Now();
  if (flight_ != nullptr) {
    // The recorder takes its own leaf mutex; holding mu_ across it is safe
    // (the recorder never calls back into the pipeline).
    flight_->Record(obs::FlightEventKind::kBatchSubmitted, "pipeline", "submit",
                    slot.seq, in_flight_);
  }
  work_ready_.notify_one();
  return core::Status::Ok();
}

std::vector<float> SortPipeline::AcquireBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  if (free_buffers_.empty()) return {};
  std::vector<float> out = std::move(free_buffers_.back());
  free_buffers_.pop_back();
  return out;
}

core::Status SortPipeline::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  const auto settled = [&] {
    return !failed_.ok() || next_drain_seq_ == next_submit_seq_;
  };
  if (drain_deadline_seconds_ > 0) {
    if (!idle_.wait_for(lock, std::chrono::duration<double>(drain_deadline_seconds_),
                        settled)) {
      return core::Status::DeadlineExceeded(
          "pipeline made no progress within the drain deadline");
    }
  } else {
    idle_.wait(lock, settled);
  }
  return failed_;
}

PipelineWaitStats SortPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void SortPipeline::WorkerLoop(int worker_index) {
  if (trace_ != nullptr) {
    trace_->NameCurrentThread(trace_label_ + ".sort-" + std::to_string(worker_index));
  }
  sort::Sorter* sorter = sorters_[static_cast<std::size_t>(worker_index)];
  std::vector<std::span<float>>& windows =
      window_scratch_[static_cast<std::size_t>(worker_index)];
  PendingBatch batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_ready_.wait(lock, [&] { return stop_ || pending_count_ != 0; });
      if (pending_count_ == 0) return;  // stop_ set and queue drained
      batch = std::move(pending_ring_[pending_head_]);
      pending_head_ = (pending_head_ + 1) % pending_ring_.size();
      --pending_count_;
      stats_.sort_queue_wait_seconds += Now() - batch.enqueued_at;
    }

    // The queue fault site: a stalled dequeue models a descheduled/wedged
    // worker without touching the device (docs/ROBUSTNESS.md).
    if (queue_stall_hook_) {
      const unsigned stall_us = queue_stall_hook_(worker_index);
      if (stall_us > 0) {
        if (flight_ != nullptr) {
          flight_->Record(obs::FlightEventKind::kQueueStall, "pipeline", "queue",
                          batch.seq, stall_us, worker_index);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(stall_us));
      }
    }

    // Sort outside the lock: this is the stage that fans out across workers.
    Timer sort_timer;
    SplitWindows(batch.data, window_size_, &windows);
    sorter->SortRuns(windows);
    const sort::SortRunInfo run = sorter->last_run();
    const std::uint64_t quarantine_mask = sorter->last_quarantine_mask();
    const double sort_wall = sort_timer.ElapsedSeconds();

    double stage_wall = 0;
    if (worker_stage_) {
      // The batch's reorder slot index also picks its stage buffer, which the
      // in-flight cap keeps exclusive to this batch until it has drained.
      std::vector<float>& stage_output = stage_outputs_[batch.seq % stage_outputs_.size()];
      const bool traced = trace_ != nullptr && trace_->Sampled(batch.seq);
      const double trace_start = traced ? trace_->NowMicros() : 0;
      Timer stage_timer;
      stage_output.clear();
      worker_stage_(batch.data, quarantine_mask, &stage_output);
      stage_wall = stage_timer.ElapsedSeconds();
      if (traced) {
        trace_->AddSpan("stage_batch", "stage", trace_start,
                        trace_->NowMicros() - trace_start,
                        {{"seq", static_cast<double>(batch.seq)},
                         {"output", static_cast<double>(stage_output.size())}});
      }
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.sort_wall_seconds += sort_wall;
      stats_.stage_wall_seconds += stage_wall;
      SortedBatch& slot = sorted_ring_[batch.seq % sorted_ring_.size()];
      STREAMGPU_DCHECK(!slot.occupied);
      slot.data = std::move(batch.data);
      slot.run = run;
      slot.quarantine_mask = quarantine_mask;
      slot.ready_at = Now();
      slot.occupied = true;
    }
    sorted_ready_.notify_one();
  }
}

void SortPipeline::DrainLoop() {
  if (trace_ != nullptr) trace_->NameCurrentThread(trace_label_ + ".drain");
  SortedBatch batch;
  for (;;) {
    std::uint64_t seq;
    {
      std::unique_lock<std::mutex> lock(mu_);
      sorted_ready_.wait(lock, [&] {
        // Exit only once every submitted batch has been drained; workers
        // keep feeding the reorder buffer after stop_ is set.
        return sorted_ring_[next_drain_seq_ % sorted_ring_.size()].occupied ||
               (stop_ && next_drain_seq_ == next_submit_seq_);
      });
      SortedBatch& slot = sorted_ring_[next_drain_seq_ % sorted_ring_.size()];
      if (!slot.occupied) return;
      seq = next_drain_seq_;
      batch = std::move(slot);
      slot.occupied = false;
      stats_.drain_queue_wait_seconds += Now() - batch.ready_at;
    }

    // Merge into the summaries outside the lock, overlapping the workers'
    // sorting of later batches. Strict submission order keeps the summary
    // sequence — and thus every query answer and every accumulated cost
    // record — identical to serial execution.
    const std::size_t batch_elements = batch.data.size();
    const bool traced = trace_ != nullptr && trace_->Sampled(seq);
    const double trace_start = traced ? trace_->NowMicros() : 0;
    Timer drain_timer;
    const std::span<const float> stage_output =
        worker_stage_ ? std::span<const float>(stage_outputs_[seq % stage_outputs_.size()])
                      : std::span<const float>();
    core::Status drain_status =
        drain_(std::move(batch.data), batch.run, batch.quarantine_mask, stage_output);
    const double drain_wall = drain_timer.ElapsedSeconds();
    if (!drain_status.ok()) {
      // The summary stage is broken; draining further batches into it would
      // compound the damage. Latch the Status and stop — Submit()/WaitIdle()
      // report it from here on.
      if (flight_ != nullptr) {
        flight_->Record(obs::FlightEventKind::kDrainFailed, "pipeline", "drain",
                        seq, static_cast<std::int64_t>(batch_elements));
        flight_->Dump("drain_failed");
      }
      std::lock_guard<std::mutex> lock(mu_);
      failed_ = std::move(drain_status);
      slot_free_.notify_all();
      idle_.notify_all();
      return;
    }
    if (traced) {
      trace_->AddSpan("drain_batch", "drain", trace_start,
                      trace_->NowMicros() - trace_start,
                      {{"seq", static_cast<double>(seq)},
                       {"elements", static_cast<double>(batch_elements)}});
    }

    if (flight_ != nullptr) {
      // Drain is strictly ordered, so seq + 1 == batches drained so far.
      flight_->Record(obs::FlightEventKind::kBatchDrained, "pipeline", "drain",
                      seq, static_cast<std::int64_t>(seq + 1));
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.drain_wall_seconds += drain_wall;
      ++stats_.batches;
      ++next_drain_seq_;
      --in_flight_;
      // Recycle the batch storage (the drain callback reads it but leaves
      // the vector intact) for reissue through AcquireBuffer().
      if (free_buffers_.size() < free_buffers_.capacity()) {
        batch.data.clear();
        free_buffers_.push_back(std::move(batch.data));
      }
    }
    slot_free_.notify_one();
    idle_.notify_all();
  }
}

}  // namespace streamgpu::stream

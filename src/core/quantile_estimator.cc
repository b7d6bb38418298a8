#include "core/quantile_estimator.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "gpu/half.h"
#include "hwmodel/hardware_profiles.h"
#include "sketch/gk_summary.h"

namespace streamgpu::core {

namespace {

constexpr char kPrefix[] = "quant";

sort::ResilienceOptions MakeResilienceOptions(const FaultTolerance& fault) {
  sort::ResilienceOptions out;
  out.max_retries = fault.max_retries;
  out.max_device_losses = fault.max_device_losses;
  out.cpu_fallback = fault.cpu_fallback;
  out.backoff_initial_us = fault.backoff_initial_us;
  out.backoff_max_us = fault.backoff_max_us;
  return out;
}

// Validates user-provided options at the API boundary; constructor path, so
// violations abort (Create() returns them as Status instead).
const Options& ValidatedOptions(const Options& options) {
  const Status status = options.Validate();
  STREAMGPU_CHECK_MSG(status.ok(), status.ToString().c_str());
  return options;
}

std::uint64_t NaturalWindow(const Options& options) {
  return NaturalQuantileWindow(options.epsilon, options.window_size,
                               options.sliding_window);
}

/// The exact-run width (ExactRunWindows) when batches that wide can carry
/// runs, i.e. it is at least the engine's own batch width; 0 otherwise, and
/// batches keep the engine's width. Stores the runs' prune budget in
/// `prune_tuples`. Nothing here depends on the worker count or the in-flight
/// cap, so a serial estimator and its pipelined twin batch alike and their
/// cost records stay bit-identical.
std::uint64_t RunWindows(const Options& options, int engine_batch_windows,
                         std::size_t* prune_tuples) {
  const std::uint64_t run = ExactRunWindows(options.epsilon, NaturalWindow(options),
                                            options.sliding_window,
                                            options.expected_stream_length,
                                            options.quantile_sketch, prune_tuples);
  return run >= static_cast<std::uint64_t>(engine_batch_windows) ? run : 0;
}

}  // namespace

StatusOr<std::unique_ptr<QuantileEstimator>> QuantileEstimator::Create(
    const Options& options) {
  Status status = options.Validate();
  if (!status.ok()) return status;
  return std::make_unique<QuantileEstimator>(options);
}

QuantileEstimator::QuantileEstimator(const Options& options)
    : options_(ValidatedOptions(options)),
      obs_(options.obs),
      engine_(options),
      // engine_ and run_windows_ are declared (and therefore initialized)
      // before batcher_.
      run_windows_(RunWindows(options, engine_.batch_windows(), &run_prune_tuples_)),
      batcher_(NaturalWindow(options),
               run_windows_ != 0 ? static_cast<int>(run_windows_) : engine_.batch_windows()),
      core_(options.epsilon, batcher_.window_size(), options.sliding_window,
            options.expected_stream_length, options.quantile_sketch),
      cpu_model_(hwmodel::kPentium4_3400) {
  ids_ = EstimatorMetricIds::Register(obs_.metrics, kPrefix, batcher_.window_size());
  if (obs_.metrics != nullptr) {
    run_windows_merged_ = obs_.metrics->Counter(std::string(kPrefix) + ".merge.run_windows");
  }
  if (obs_.trace != nullptr) obs_.trace->NameCurrentThread("ingest");
  if (obs_.trace != nullptr && obs_.metrics != nullptr) {
    // Span-cap overflow becomes visible as obs.trace.spans_dropped.
    obs_.trace->BindDropCounter(obs_.metrics);
  }
  if (!options.checkpoint_dir.empty()) {
    checkpoint_writer_ = std::make_unique<durable::CheckpointWriter>(options.checkpoint_dir);
    checkpoint_writer_->SetObservability(obs_);
  }
  sort_front_ = &engine_.sorter();
  if (options.fault.enabled()) {
    // Recovery wraps the raw backend; tracing (below) wraps recovery, so
    // retried sorts appear in the trace as the longer sort spans they are.
    fault_injector_ = std::make_unique<FaultInjector>(options.fault.plan, /*stream_id=*/0);
    fault_injector_->set_flight_recorder(obs_.flight);
    if (engine_.device() != nullptr) engine_.device()->set_fault_hook(fault_injector_.get());
    if (options.fault.cpu_fallback) {
      fallback_sorter_ = std::make_unique<sort::RadixMergeSorter>(hwmodel::kPentium4_3400);
    }
    resilient_sorter_ = std::make_unique<sort::ResilientSorter>(
        sort_front_, fallback_sorter_.get(), engine_.device(), fault_injector_.get(),
        obs_, std::string(kPrefix) + ".", MakeResilienceOptions(options.fault));
    sort_front_ = resilient_sorter_.get();
  }
  if (obs_.any()) {
    traced_sorter_ =
        std::make_unique<TracingSorter>(sort_front_, engine_.device(), obs_, kPrefix);
    sort_front_ = traced_sorter_.get();
  }

  if (options.num_sort_workers >= 2) {
    worker_engines_ = MakeWorkerEngines(options, options.num_sort_workers);
    std::vector<sort::Sorter*> sorters;
    sorters.reserve(worker_engines_.size());
    for (std::size_t i = 0; i < worker_engines_.size(); ++i) {
      SortEngine& engine = *worker_engines_[i];
      sort::Sorter* front = &engine.sorter();
      if (options.fault.enabled()) {
        // Worker i seeds its injector with stream id i+1 (the serial path is
        // 0): decorrelated fault sequences, each still reproducible.
        worker_injectors_.push_back(
            std::make_unique<FaultInjector>(options.fault.plan, i + 1));
        worker_injectors_.back()->set_flight_recorder(obs_.flight);
        if (engine.device() != nullptr) {
          engine.device()->set_fault_hook(worker_injectors_.back().get());
        }
        worker_fallbacks_.push_back(
            options.fault.cpu_fallback
                ? std::make_unique<sort::RadixMergeSorter>(hwmodel::kPentium4_3400)
                : nullptr);
        worker_resilient_.push_back(std::make_unique<sort::ResilientSorter>(
            front, worker_fallbacks_.back().get(), engine.device(),
            worker_injectors_.back().get(), obs_, std::string(kPrefix) + ".",
            MakeResilienceOptions(options.fault)));
        front = worker_resilient_.back().get();
      }
      if (obs_.any()) {
        traced_workers_.push_back(
            std::make_unique<TracingSorter>(front, engine.device(), obs_, kPrefix));
        front = traced_workers_.back().get();
      }
      sorters.push_back(front);
    }
    stream::PipelineConfig config = MakePipelineConfig(
        options, batcher_.window_size(), batcher_.batch_windows(), kPrefix);
    if (options.fault.enabled()) {
      config.queue_stall_hook = [this](int worker_index) {
        return worker_injectors_[static_cast<std::size_t>(worker_index)]->PollQueueStall();
      };
    }
    if (run_windows_ != 0) {
      config.worker_stage = [this](std::span<const float> sorted_batch,
                                   std::uint64_t quarantine_mask, std::vector<float>* out) {
        BuildExactRun(sorted_batch, quarantine_mask, out);
      };
    }
    pipeline_ = std::make_unique<stream::SortPipeline>(
        config, std::move(sorters),
        [this](std::vector<float>&& data, const sort::SortRunInfo& run,
               std::uint64_t quarantine_mask, std::span<const float> exact_run) {
          return DrainSortedBatch(std::move(data), run, quarantine_mask, exact_run);
        });
  }
}

Status QuantileEstimator::Observe(float value) {
  if (finalized_) {
    return Status::FailedPrecondition(
        "Observe() after Flush(): the estimator is finalized and query-only");
  }
  return ObserveValue(value);
}

Status QuantileEstimator::ObserveBatch(std::span<const float> values) {
  if (finalized_) {
    return Status::FailedPrecondition(
        "ObserveBatch() after Flush(): the estimator is finalized and query-only");
  }
  // Bulk fast path: the lifecycle and backend checks above are hoisted out
  // of the loop, and whole spans are copied (or binary16-quantized) straight
  // into batch storage instead of pushing one element at a time. Batch
  // boundaries, counters, and trace spans land exactly as the per-element
  // path produces them.
  const bool quantize =
      engine_.is_gpu() && options_.gpu_format == gpu::Format::kFloat16;
  std::size_t consumed = 0;
  while (consumed < values.size()) {
    if (obs_.trace != nullptr && ingest_start_us_ < 0) {
      ingest_start_us_ = obs_.trace->NowMicros();
    }
    const std::span<float> slot = batcher_.Claim(values.size() - consumed);
    if (quantize) {
      for (std::size_t i = 0; i < slot.size(); ++i) {
        slot[i] = gpu::QuantizeToHalf(values[consumed + i]);
      }
    } else {
      std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(consumed),
                  slot.size(), slot.begin());
    }
    consumed += slot.size();
    observed_ += slot.size();
    if (obs_.metrics != nullptr) {
      obs_.metrics->Add(ids_.elements_observed, slot.size());
    }
    if (batcher_.full()) {
      const Status status = SubmitFullBatch();
      if (!status.ok()) return status;
      const Status checkpoint = MaybeAutoCheckpoint();
      if (!checkpoint.ok()) return checkpoint;
    }
  }
  return Status::Ok();
}

Status QuantileEstimator::ObserveValue(float value) {
  ++observed_;
  if (obs_.metrics != nullptr) obs_.metrics->Add(ids_.elements_observed);
  if (obs_.trace != nullptr && ingest_start_us_ < 0) {
    ingest_start_us_ = obs_.trace->NowMicros();
  }
  if (engine_.is_gpu() && options_.gpu_format == gpu::Format::kFloat16) {
    value = gpu::QuantizeToHalf(value);
  }
  if (batcher_.Push(value)) {
    const Status status = SubmitFullBatch();
    if (!status.ok()) return status;
    return MaybeAutoCheckpoint();
  }
  return Status::Ok();
}

Status QuantileEstimator::SubmitFullBatch() {
  EndIngestSpan(batcher_.window_size() * batcher_.batch_windows());
  if (pipeline_ != nullptr) {
    const Status status =
        pipeline_->Submit(batcher_.TakeBuffer(pipeline_->AcquireBuffer()));
    if (!status.ok()) {
      // The pipeline is wedged or its drain died; surface the Status to
      // the caller instead of blocking on a cap nobody will ever free
      // (satellite bugfix — see docs/ROBUSTNESS.md).
      if (pipeline_status_.ok()) pipeline_status_ = status;
      return status;
    }
  } else {
    ProcessBuffered();
  }
  return Status::Ok();
}

void QuantileEstimator::EndIngestSpan(std::size_t elements) {
  if (obs_.trace == nullptr) return;
  const std::uint64_t seq = ingest_seq_++;
  if (ingest_start_us_ >= 0 && obs_.trace->Sampled(seq)) {
    obs_.trace->AddSpan("ingest_batch", "ingest", ingest_start_us_,
                        obs_.trace->NowMicros() - ingest_start_us_,
                        {{"seq", static_cast<double>(seq)},
                         {"elements", static_cast<double>(elements)}});
  }
  ingest_start_us_ = -1;
}

Status QuantileEstimator::Flush() {
  if (finalized_) return pipeline_status_;
  finalized_ = true;
  if (!batcher_.empty()) EndIngestSpan(batcher_.buffered());
  if (pipeline_ != nullptr) {
    if (!batcher_.empty()) {
      const Status status =
          pipeline_->Submit(batcher_.TakeBuffer(pipeline_->AcquireBuffer()));
      if (!status.ok() && pipeline_status_.ok()) pipeline_status_ = status;
    }
    Sync();
    return pipeline_status_;
  }
  if (!batcher_.empty()) ProcessBuffered();
  return Status::Ok();
}

void QuantileEstimator::ProcessBuffered() {
  std::vector<std::span<float>> windows = batcher_.Windows();

  sort_front_->SortRuns(windows);
  costs_.sort += sort_front_->last_run();
  const std::uint64_t quarantine_mask = sort_front_->last_quarantine_mask();
  BuildExactRun(batcher_.contents(), quarantine_mask, &serial_run_);

  const std::uint64_t seq = drain_seq_++;
  const bool traced = obs_.trace != nullptr && obs_.trace->Sampled(seq);
  const double t0 = traced ? obs_.trace->NowMicros() : 0;
  Timer drain_timer;
  const std::size_t elements =
      MergeSortedBatch(batcher_.contents(), quarantine_mask, serial_run_);
  if (obs_.metrics != nullptr) {
    obs_.metrics->Observe(ids_.drain_latency, drain_timer.ElapsedSeconds() * 1e6);
  }
  if (traced) {
    obs_.trace->AddSpan("drain_batch", "drain", t0, obs_.trace->NowMicros() - t0,
                        {{"seq", static_cast<double>(seq)},
                         {"elements", static_cast<double>(elements)}});
  }
  batcher_.Clear();
}

Status QuantileEstimator::DrainSortedBatch(std::vector<float>&& data,
                                           const sort::SortRunInfo& run,
                                           std::uint64_t quarantine_mask,
                                           std::span<const float> exact_run) {
  // Runs on the pipeline's summary thread, in submission order — the same
  // accumulation order as serial execution, so the cost record (including
  // the floating-point simulated-seconds sums) stays bit-identical.
  costs_.sort += run;
  Timer drain_timer;
  MergeSortedBatch(data, quarantine_mask, exact_run);
  if (obs_.metrics != nullptr) {
    obs_.metrics->Observe(ids_.drain_latency, drain_timer.ElapsedSeconds() * 1e6);
  }
  return Status::Ok();
}

void QuantileEstimator::BuildExactRun(std::span<const float> sorted_batch,
                                      std::uint64_t quarantine_mask,
                                      std::vector<float>* out) const {
  out->clear();
  if (run_windows_ == 0 || quarantine_mask != 0 ||
      sorted_batch.size() != run_windows_ * batcher_.window_size() ||
      runs_refused_.load()) {
    return;
  }
  sketch::GkSummary::MergeWindowsInCascadeOrder(sorted_batch, batcher_.window_size(), out);
  sketch::GkSummary::PruneExactRun(run_prune_tuples_, out);
}

std::size_t QuantileEstimator::MergeSortedBatch(std::span<const float> data,
                                                std::uint64_t quarantine_mask,
                                                std::span<const float> exact_run) {
  const std::uint64_t window_size = batcher_.window_size();
  if (!exact_run.empty()) {
    const std::uint64_t run_elements = run_windows_ * window_size;
    const std::uint64_t seq = window_seq_;
    const bool traced = obs_.trace != nullptr && obs_.trace->Sampled(seq);
    const double t0 = traced ? obs_.trace->NowMicros() : 0;
    Timer merge_timer;
    if (core_.MergeExactRun(exact_run, run_windows_)) {
      window_seq_ += run_windows_;
      if (obs_.metrics != nullptr) {
        // Per-window counters and histograms advance exactly as the
        // per-window path advances them; the latency is the node insert's.
        obs_.metrics->Add(ids_.windows_merged, run_windows_);
        obs_.metrics->Add(ids_.elements_merged, run_elements);
        for (std::uint64_t i = 0; i < run_windows_; ++i) {
          obs_.metrics->Record(ids_.window_elements, static_cast<double>(window_size));
        }
        obs_.metrics->Add(run_windows_merged_, run_windows_);
        obs_.metrics->Observe(ids_.merge_latency, merge_timer.ElapsedSeconds() * 1e6);
      }
      if (traced) {
        obs_.trace->AddSpan("run_merge", "merge", t0, obs_.trace->NowMicros() - t0,
                            {{"window", static_cast<double>(seq)},
                             {"windows", static_cast<double>(run_windows_)},
                             {"elements", static_cast<double>(run_elements)}});
      }
      return run_elements;
    }
    // A misaligned window counter stays misaligned: stop building runs.
    runs_refused_.store(true);
  }
  std::size_t elements = 0;
  std::size_t window_index = 0;
  for (std::size_t off = 0; off < data.size(); off += window_size, ++window_index) {
    const std::size_t len = std::min<std::size_t>(window_size, data.size() - off);
    if ((quarantine_mask >> window_index) & 1) {
      QuarantineWindow(len);
      continue;
    }
    elements += len;
    MergeSortedWindow(data.subspan(off, len));
  }
  return elements;
}

void QuantileEstimator::QuarantineWindow(std::size_t elements) {
  core_.QuarantineWindow(elements);
}

void QuantileEstimator::MergeSortedWindow(std::span<const float> window) {
  const std::uint64_t seq = window_seq_++;
  const bool traced = obs_.trace != nullptr && obs_.trace->Sampled(seq);
  const double t0 = traced ? obs_.trace->NowMicros() : 0;

  Timer merge_timer;
  const std::size_t summary_tuples = core_.MergeSortedWindow(window);

  if (obs_.metrics != nullptr) {
    obs_.metrics->Add(ids_.windows_merged);
    obs_.metrics->Add(ids_.elements_merged, window.size());
    obs_.metrics->Record(ids_.window_elements, static_cast<double>(window.size()));
    obs_.metrics->Observe(ids_.merge_latency, merge_timer.ElapsedSeconds() * 1e6);
  }
  if (traced) {
    obs_.trace->AddSpan("window_merge", "merge", t0, obs_.trace->NowMicros() - t0,
                        {{"window", static_cast<double>(seq)},
                         {"elements", static_cast<double>(window.size())},
                         {"summary_tuples", static_cast<double>(summary_tuples)}});
  }
}

void QuantileEstimator::Sync() const {
  if (pipeline_ == nullptr) return;
  const Status status = pipeline_->WaitIdle();
  if (!status.ok() && pipeline_status_.ok()) pipeline_status_ = status;
  const stream::PipelineWaitStats stats = pipeline_->stats();
  costs_.ingest_stall_seconds = stats.ingest_stall_seconds;
  costs_.sort_queue_wait_seconds = stats.sort_queue_wait_seconds;
  costs_.drain_queue_wait_seconds = stats.drain_queue_wait_seconds;
  costs_.sort_wall_seconds = stats.sort_wall_seconds;
  costs_.stage_wall_seconds = stats.stage_wall_seconds;
  costs_.drain_wall_seconds = stats.drain_wall_seconds;
  costs_.pipelined_batches = stats.batches;
}

QuantileReport QuantileEstimator::Quantile(double phi, std::uint64_t window) const {
  Sync();
  const QuantileReport report = core_.Quantile(phi, window);
  if (obs_.metrics != nullptr) {
    obs_.metrics->Add(ids_.queries);
    ExportQuantileReport(obs_.metrics, kPrefix, report);
  }
  return report;
}

Status QuantileEstimator::MaybeAutoCheckpoint() {
  if (options_.checkpoint_every_windows == 0) return Status::Ok();
  windows_since_checkpoint_ += static_cast<std::uint64_t>(batcher_.batch_windows());
  if (windows_since_checkpoint_ < options_.checkpoint_every_windows) {
    return Status::Ok();
  }
  return Checkpoint();
}

Status QuantileEstimator::Checkpoint() {
  if (checkpoint_writer_ == nullptr) {
    return Status::FailedPrecondition(
        "Checkpoint() requires Options::checkpoint_dir");
  }
  // A consistent cut: every submitted batch is merged before the snapshot,
  // so the summary core, the staged partial window, and observed_ agree.
  Sync();
  if (!pipeline_status_.ok()) return pipeline_status_;

  checkpoint_writer_->Begin();
  durable::SnapshotHeader header;
  header.mode = durable::kSnapshotModeQuantile;
  header.kind = static_cast<std::uint16_t>(core_.kind());
  header.epsilon = options_.epsilon;
  header.window_size = batcher_.window_size();
  header.aux = options_.expected_stream_length;
  std::vector<std::uint8_t> header_payload;
  durable::AppendSnapshotHeader(header, &header_payload);
  checkpoint_writer_->Add(durable::RecordType::kSnapshotHeader, header_payload);

  std::vector<std::uint8_t> state;
  if (Status s = core_.AppendCheckpointState(&state); !s.ok()) return s;
  checkpoint_writer_->Add(durable::RecordType::kQuantileState, state);

  if (!batcher_.empty()) {
    std::vector<std::uint8_t> staged;
    durable::AppendWindowBuffer(batcher_.contents(), &staged);
    checkpoint_writer_->Add(durable::RecordType::kWindowBuffer, staged);
  }
  const Status status = checkpoint_writer_->Commit(observed_);
  if (status.ok()) windows_since_checkpoint_ = 0;
  return status;
}

StatusOr<std::unique_ptr<QuantileEstimator>> QuantileEstimator::Restore(
    const Options& options) {
  Status status = options.Validate();
  if (!status.ok()) return status;
  if (options.checkpoint_dir.empty()) {
    return Status::InvalidArgument("Restore() requires Options::checkpoint_dir");
  }
  StatusOr<durable::Snapshot> snapshot =
      durable::LoadLatestSnapshot(options.checkpoint_dir);
  if (!snapshot.ok()) return snapshot.status();
  auto estimator = std::make_unique<QuantileEstimator>(options);
  status = estimator->InstallSnapshot(snapshot.value());
  if (!status.ok()) return status;
  durable::RecordRestore(options.obs, snapshot.value());
  return estimator;
}

Status QuantileEstimator::InstallSnapshot(const durable::Snapshot& snapshot) {
  if (snapshot.records.empty()) {
    return Status::InvalidArgument("snapshot has no records");
  }
  durable::SnapshotHeader header;
  if (!durable::ReadSnapshotHeader(snapshot.records[0].payload, &header)) {
    return Status::InvalidArgument("malformed snapshot header");
  }
  if (header.mode != durable::kSnapshotModeQuantile) {
    return Status::InvalidArgument(
        "checkpoint was written by a different subsystem (header mode " +
        std::to_string(header.mode) + ")");
  }
  if (header.kind != static_cast<std::uint16_t>(core_.kind()) ||
      header.epsilon != options_.epsilon ||
      header.window_size != batcher_.window_size() ||
      header.aux != options_.expected_stream_length) {
    return Status::InvalidArgument(
        "checkpoint configuration does not match Options (epsilon, window "
        "size, sketch kind, and expected stream length must equal the "
        "writer's)");
  }

  const durable::OwnedRecord* state = nullptr;
  const durable::OwnedRecord* staged = nullptr;
  for (std::size_t i = 1; i < snapshot.records.size(); ++i) {
    const durable::OwnedRecord& record = snapshot.records[i];
    switch (record.type) {
      case durable::RecordType::kQuantileState:
        if (state != nullptr) {
          return Status::InvalidArgument("duplicate quantile-state record");
        }
        state = &record;
        break;
      case durable::RecordType::kWindowBuffer:
        if (staged != nullptr) {
          return Status::InvalidArgument("duplicate window-buffer record");
        }
        staged = &record;
        break;
      default:
        return Status::InvalidArgument(
            std::string("unexpected ") + durable::RecordTypeName(record.type) +
            " record in a quantile-estimator snapshot");
    }
  }
  if (state == nullptr) {
    return Status::InvalidArgument("snapshot is missing its quantile-state record");
  }
  if (Status s = core_.RestoreCheckpointState(state->payload); !s.ok()) return s;

  if (staged != nullptr) {
    std::vector<float> buffered;
    if (!durable::ReadWindowBuffer(staged->payload, &buffered)) {
      return Status::InvalidArgument("malformed window-buffer record");
    }
    // A checkpoint stages less than one of its writer's batches, and no
    // batch exceeds 64 windows (the quarantine mask's width). A writer with
    // wider batches than this estimator's (the width follows the sort
    // backend and the sketch configuration, docs/ARCHITECTURE.md) can stage
    // more than one of ours: the full ones are submitted here.
    const std::size_t limit = batcher_.window_size() * 64;
    if (buffered.empty() || buffered.size() >= limit) {
      return Status::InvalidArgument(
          "window-buffer record stages " + std::to_string(buffered.size()) +
          " elements; a checkpoint stages between 1 and " + std::to_string(limit - 1));
    }
    // The staged elements were quantized at original ingest; copy them back
    // verbatim instead of re-quantizing.
    for (std::size_t done = 0; done < buffered.size();) {
      const std::span<float> slot = batcher_.Claim(buffered.size() - done);
      std::copy_n(buffered.begin() + static_cast<std::ptrdiff_t>(done), slot.size(),
                  slot.begin());
      done += slot.size();
      if (batcher_.full()) {
        if (Status s = SubmitFullBatch(); !s.ok()) return s;
      }
    }
  }

  const std::uint64_t covered = processed_length() + core_.elements_dropped() +
                                core_.elements_shed() + batcher_.buffered();
  if (snapshot.watermark != covered) {
    return Status::InvalidArgument(
        "snapshot watermark " + std::to_string(snapshot.watermark) +
        " does not cover the restored state (" + std::to_string(covered) + ")");
  }
  observed_ = snapshot.watermark;
  if (obs_.metrics != nullptr && observed_ > 0) {
    // Re-seed the live counter so exports stay continuous across restarts.
    obs_.metrics->Add(ids_.elements_observed, observed_);
  }
  return Status::Ok();
}

StatusOr<std::vector<std::uint8_t>> QuantileEstimator::SerializedSummary() const {
  if (!finalized_) {
    return Status::FailedPrecondition(
        "shard summaries are exported from a finalized estimator; call "
        "Flush() first so buffered windows are covered");
  }
  std::vector<std::uint8_t> bytes;
  const Status status = core_.AppendWireSummary(&bytes);
  if (!status.ok()) return status;
  return bytes;
}

std::size_t QuantileEstimator::summary_size() const {
  Sync();
  return core_.summary_size();
}

gpu::GpuStats QuantileEstimator::device_stats() const {
  Sync();
  gpu::GpuStats total;
  if (pipeline_ != nullptr) {
    for (const auto& engine : worker_engines_) {
      if (engine->device() != nullptr) total += engine->device()->stats();
    }
  } else if (engine_.device() != nullptr) {
    total += engine_.device()->stats();
  }
  return total;
}

FaultStats QuantileEstimator::fault_stats() const {
  Sync();
  FaultStats stats;
  if (fault_injector_ != nullptr) stats.faults_injected += fault_injector_->fires();
  for (const auto& injector : worker_injectors_) stats.faults_injected += injector->fires();
  const auto add = [&stats](const sort::ResilientSorter* sorter) {
    if (sorter == nullptr) return;
    stats.sort_retries += sorter->stats().sort_retries;
    stats.cpu_fallbacks += sorter->stats().cpu_fallbacks;
  };
  add(resilient_sorter_.get());
  for (const auto& sorter : worker_resilient_) add(sorter.get());
  // Quarantine is taken from the summary core's drain-side counters — the
  // same numbers the reports state — rather than the sorters' totals.
  stats.windows_quarantined = core_.windows_quarantined();
  stats.elements_dropped = core_.elements_dropped();
  return stats;
}

const PipelineCosts& QuantileEstimator::costs() const {
  Sync();
  costs_.histogram_wall_seconds = core_.histogram_wall_seconds();
  costs_.histogram_elements = core_.histogram_elements();
  if (!core_.sliding()) {
    costs_.merge_wall_seconds = core_.merge_seconds();
    costs_.compress_wall_seconds = core_.compress_seconds();
    costs_.merged_entries = core_.merged_tuples();
    costs_.compressed_entries = core_.pruned_tuples();
  }
  return costs_;
}

void QuantileEstimator::ExportMetrics() const {
  if (obs_.metrics == nullptr) return;
  ExportPipelineCosts(obs_.metrics, kPrefix, costs(), cpu_model_);
  const auto set = [&](const char* name, double value) {
    obs_.metrics->Set(obs_.metrics->Gauge(std::string(kPrefix) + name), value);
  };
  set(".stream.observed", static_cast<double>(observed_));
  set(".stream.processed", static_cast<double>(processed_length()));
  set(".summary.entries", static_cast<double>(summary_size()));
}

double QuantileEstimator::SimulatedSeconds() const {
  return costs().SimulatedTotalSeconds(cpu_model_);
}

}  // namespace streamgpu::core

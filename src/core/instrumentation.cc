#include "core/instrumentation.h"

#include <utility>

#include "common/timer.h"

namespace streamgpu::core {

EstimatorMetricIds EstimatorMetricIds::Register(obs::MetricsRegistry* metrics,
                                                const std::string& prefix,
                                                std::uint64_t window_size) {
  EstimatorMetricIds ids;
  if (metrics == nullptr) return ids;
  ids.elements_observed = metrics->Counter(prefix + ".observe.elements");
  ids.windows_merged = metrics->Counter(prefix + ".merge.windows");
  ids.elements_merged = metrics->Counter(prefix + ".merge.elements");
  ids.queries = metrics->Counter(prefix + ".query.count");
  const double w = static_cast<double>(window_size);
  ids.window_elements = metrics->Histogram(prefix + ".merge.window_elements",
                                           {w / 4.0, w / 2.0, w});
  ids.merge_latency = metrics->Summary(prefix + ".merge.latency_us");
  ids.drain_latency = metrics->Summary(prefix + ".drain.latency_us");
  return ids;
}

TracingSorter::TracingSorter(sort::Sorter* inner, const gpu::GpuDevice* device,
                             const obs::Observability& obs, const std::string& prefix)
    : inner_(inner),
      device_(device),
      metrics_(obs.metrics),
      trace_(obs.trace),
      flight_(obs.flight) {
  if (metrics_ != nullptr) {
    batches_ = metrics_->Counter(prefix + ".sort.batches");
    windows_ = metrics_->Counter(prefix + ".sort.windows");
    elements_ = metrics_->Counter(prefix + ".sort.elements");
    comparisons_ = metrics_->Counter(prefix + ".sort.comparisons");
    elements_by_backend_ = metrics_->Counter(prefix + ".sort.elements",
                                             {{"backend", inner_->name()}});
    latency_ = metrics_->Summary(prefix + ".sort.latency_us",
                                 {{"backend", inner_->name()}});
  }
}

void TracingSorter::Sort(std::span<float> data) {
  const bool traced = trace_ != nullptr && trace_->Sampled(seq_);
  const gpu::GpuStats before =
      (traced && device_ != nullptr) ? device_->stats() : gpu::GpuStats{};
  const double t0 = traced ? trace_->NowMicros() : 0;

  Timer batch_timer;
  inner_->Sort(data);
  FinishBatch(data.size(), 1, batch_timer, before, traced, t0);
}

void TracingSorter::SortRuns(std::span<std::span<float>> runs) {
  std::uint64_t elements = 0;
  for (const auto& run : runs) elements += run.size();

  const bool traced = trace_ != nullptr && trace_->Sampled(seq_);
  const gpu::GpuStats before =
      (traced && device_ != nullptr) ? device_->stats() : gpu::GpuStats{};
  const double t0 = traced ? trace_->NowMicros() : 0;

  Timer batch_timer;
  inner_->SortRuns(runs);
  FinishBatch(elements, runs.size(), batch_timer, before, traced, t0);
}

void TracingSorter::FinishBatch(std::uint64_t elements, std::size_t windows,
                                const Timer& batch_timer,
                                const gpu::GpuStats& before, bool traced,
                                double t0) {
  const sort::SortRunInfo& run = inner_->last_run();

  if (metrics_ != nullptr) {
    metrics_->Add(batches_);
    metrics_->Add(windows_, windows);
    metrics_->Add(elements_, elements);
    metrics_->Add(comparisons_, run.comparisons);
    metrics_->Add(elements_by_backend_, elements);
    metrics_->Observe(latency_, batch_timer.ElapsedSeconds() * 1e6);
  }
  if (flight_ != nullptr) {
    flight_->Record(obs::FlightEventKind::kBatchSorted, "sort", inner_->name(),
                    seq_, static_cast<std::int64_t>(elements),
                    static_cast<std::int64_t>(windows));
  }

  if (traced) {
    const double t1 = trace_->NowMicros();
    trace_->AddSpan("sort_batch", "sort", t0, t1 - t0,
                    {{"batch", static_cast<double>(seq_)},
                     {"windows", static_cast<double>(windows)},
                     {"elements", static_cast<double>(elements)},
                     {"comparisons", static_cast<double>(run.comparisons)},
                     {"simulated_ms", run.simulated_seconds * 1e3}});

    if (device_ != nullptr) {
      // Sub-spans: the simulator interleaves upload / render passes /
      // readback / CPU run-merge inside one call, so apportion the measured
      // wall interval by each stage's share of the simulated time. The args
      // carry the true simulated figures and the device-counter deltas.
      const gpu::GpuStats delta = device_->stats() - before;
      const double sim_total =
          run.sim_transfer_seconds + run.sim_device_seconds + run.sim_merge_seconds;
      if (sim_total > 0) {
        const double wall = t1 - t0;
        const double total_bytes =
            static_cast<double>(delta.bytes_uploaded + delta.bytes_readback);
        const double up_frac =
            total_bytes > 0 ? static_cast<double>(delta.bytes_uploaded) / total_bytes
                            : 0.5;
        double at = t0;
        const double up_us =
            wall * run.sim_transfer_seconds * up_frac / sim_total;
        trace_->AddSpan("gpu_upload", "gpu", at, up_us,
                        {{"bytes", static_cast<double>(delta.bytes_uploaded)},
                         {"simulated_ms", run.sim_transfer_seconds * up_frac * 1e3}});
        at += up_us;
        const double dev_us = wall * run.sim_device_seconds / sim_total;
        trace_->AddSpan("gpu_passes", "gpu", at, dev_us,
                        {{"draw_calls", static_cast<double>(delta.draw_calls)},
                         {"blend_fragments", static_cast<double>(delta.blend_fragments)},
                         {"bytes_vram", static_cast<double>(delta.bytes_vram)},
                         {"simulated_ms", run.sim_device_seconds * 1e3}});
        at += dev_us;
        const double down_us =
            wall * run.sim_transfer_seconds * (1.0 - up_frac) / sim_total;
        trace_->AddSpan("gpu_readback", "gpu", at, down_us,
                        {{"bytes", static_cast<double>(delta.bytes_readback)},
                         {"simulated_ms",
                          run.sim_transfer_seconds * (1.0 - up_frac) * 1e3}});
        at += down_us;
        if (run.sim_merge_seconds > 0) {
          trace_->AddSpan("cpu_merge_runs", "gpu", at,
                          wall * run.sim_merge_seconds / sim_total,
                          {{"simulated_ms", run.sim_merge_seconds * 1e3}});
        }
      }
    }
  }
  ++seq_;
}

void ExportPipelineCosts(obs::MetricsRegistry* metrics, const std::string& prefix,
                         const PipelineCosts& costs, const hwmodel::CpuModel& model) {
  if (metrics == nullptr) return;
  const auto set = [&](const char* name, double value) {
    metrics->Set(metrics->Gauge(prefix + name), value);
  };
  set(".cost.sort.wall_seconds", costs.sort.wall_seconds);
  set(".cost.sort.simulated_seconds", costs.sort.simulated_seconds);
  set(".cost.sort.sim_device_seconds", costs.sort.sim_device_seconds);
  set(".cost.sort.sim_transfer_seconds", costs.sort.sim_transfer_seconds);
  set(".cost.sort.sim_merge_seconds", costs.sort.sim_merge_seconds);
  set(".cost.sort.comparisons", static_cast<double>(costs.sort.comparisons));
  set(".cost.histogram.wall_seconds", costs.histogram_wall_seconds);
  set(".cost.histogram.elements", static_cast<double>(costs.histogram_elements));
  set(".cost.merge.wall_seconds", costs.merge_wall_seconds);
  set(".cost.merge.entries", static_cast<double>(costs.merged_entries));
  set(".cost.compress.wall_seconds", costs.compress_wall_seconds);
  set(".cost.compress.entries", static_cast<double>(costs.compressed_entries));
  set(".cost.pipeline.ingest_stall_seconds", costs.ingest_stall_seconds);
  set(".cost.pipeline.sort_queue_wait_seconds", costs.sort_queue_wait_seconds);
  set(".cost.pipeline.drain_queue_wait_seconds", costs.drain_queue_wait_seconds);
  set(".cost.pipeline.sort_wall_seconds", costs.sort_wall_seconds);
  set(".cost.pipeline.stage_wall_seconds", costs.stage_wall_seconds);
  set(".cost.pipeline.drain_wall_seconds", costs.drain_wall_seconds);
  set(".cost.pipeline.batches", static_cast<double>(costs.pipelined_batches));
  set(".cost.simulated.histogram_seconds", costs.SimulatedHistogramSeconds(model));
  set(".cost.simulated.merge_seconds", costs.SimulatedMergeSeconds(model));
  set(".cost.simulated.compress_seconds", costs.SimulatedCompressSeconds(model));
  set(".cost.simulated.total_seconds", costs.SimulatedTotalSeconds(model));
}

void ExportFrequencyReport(obs::MetricsRegistry* metrics, const std::string& prefix,
                           const FrequencyReport& report) {
  if (metrics == nullptr) return;
  const auto set = [&](const char* name, double value) {
    metrics->Set(metrics->Gauge(prefix + name), value);
  };
  set(".query.frequency.items", static_cast<double>(report.items.size()));
  set(".query.frequency.support", report.support);
  set(".query.frequency.epsilon", report.epsilon);
  set(".query.frequency.error_bound", static_cast<double>(report.error_bound));
  set(".query.frequency.window_coverage",
      static_cast<double>(report.window_coverage));
  set(".query.frequency.stream_length", static_cast<double>(report.stream_length));
  set(".query.frequency.windows_quarantined",
      static_cast<double>(report.windows_quarantined));
  set(".query.frequency.elements_dropped",
      static_cast<double>(report.elements_dropped));
  set(".query.frequency.elements_shed",
      static_cast<double>(report.elements_shed));
}

void ExportQuantileReport(obs::MetricsRegistry* metrics, const std::string& prefix,
                          const QuantileReport& report) {
  if (metrics == nullptr) return;
  const auto set = [&](const char* name, double value) {
    metrics->Set(metrics->Gauge(prefix + name), value);
  };
  set(".query.quantile.value", report.value);
  set(".query.quantile.phi", report.phi);
  set(".query.quantile.epsilon", report.epsilon);
  set(".query.quantile.rank_error_bound",
      static_cast<double>(report.rank_error_bound));
  set(".query.quantile.window_coverage",
      static_cast<double>(report.window_coverage));
  set(".query.quantile.stream_length", static_cast<double>(report.stream_length));
  set(".query.quantile.windows_quarantined",
      static_cast<double>(report.windows_quarantined));
  set(".query.quantile.elements_dropped",
      static_cast<double>(report.elements_dropped));
  set(".query.quantile.elements_shed",
      static_cast<double>(report.elements_shed));
}

}  // namespace streamgpu::core

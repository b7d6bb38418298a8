// Pipeline determinism suite: the parallel multi-window ingest pipeline
// (stream::SortPipeline and its wiring through the core estimators) must be
// an execution-mode change only. For every backend, worker count, and seed,
// pipelined execution has to produce byte-identical query answers and
// identical operation counts / simulated-2005 times to serial execution,
// because the single summary thread drains sorted windows in submission
// order. Plus shutdown/flush-mid-window edge cases.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/stream_miner.h"
#include "durable/checkpoint.h"
#include "hwmodel/hardware_profiles.h"
#include "obs/metrics.h"
#include "sort/cpu_sort.h"
#include "sort/resilient.h"
#include "stream/generator.h"
#include "stream/pipeline.h"
#include "stream/window_buffer.h"

namespace streamgpu::core {
namespace {

std::vector<float> ZipfStream(std::size_t n, unsigned seed) {
  stream::StreamGenerator gen({.distribution = stream::Distribution::kZipf,
                               .seed = seed,
                               .domain_size = 400});
  return gen.Take(n);
}

// Everything observable about a StreamMiner after a run: query answers,
// space, and the full deterministic slice of the cost records (wall-clock
// fields excluded — those legitimately differ across execution modes).
struct Snapshot {
  FrequencyReport hitters;
  FrequencyReport top3;
  std::vector<float> quantiles;
  std::vector<std::uint64_t> probe_counts;
  std::uint64_t freq_processed = 0;
  std::uint64_t quant_processed = 0;
  std::size_t freq_summary = 0;
  std::size_t quant_summary = 0;
  double freq_sim_seconds = 0;
  double quant_sim_seconds = 0;
  double freq_sort_sim = 0;
  double quant_sort_sim = 0;
  std::uint64_t freq_comparisons = 0;
  std::uint64_t quant_comparisons = 0;
  std::uint64_t freq_hist_elements = 0;
  std::uint64_t quant_hist_elements = 0;
  std::uint64_t freq_merged = 0;
  std::uint64_t freq_compressed = 0;
  gpu::GpuStats freq_device;
  gpu::GpuStats quant_device;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

Snapshot Capture(const StreamMiner& miner) {
  Snapshot s;
  const auto& fe = miner.frequencies();
  const auto& qe = miner.quantiles();
  s.hitters = fe.HeavyHitters(0.02);
  s.top3 = fe.TopK(3);
  for (double phi : {0.1, 0.5, 0.9, 0.99}) {
    s.quantiles.push_back(qe.Quantile(phi).value);
  }
  for (float probe : {0.0f, 1.0f, 5.0f, 123.0f}) {
    s.probe_counts.push_back(fe.EstimateCount(probe));
  }
  s.freq_processed = fe.processed_length();
  s.quant_processed = qe.processed_length();
  s.freq_summary = fe.summary_size();
  s.quant_summary = qe.summary_size();
  s.freq_sim_seconds = fe.SimulatedSeconds();
  s.quant_sim_seconds = qe.SimulatedSeconds();
  s.freq_sort_sim = fe.costs().sort.simulated_seconds;
  s.quant_sort_sim = qe.costs().sort.simulated_seconds;
  s.freq_comparisons = fe.costs().sort.comparisons;
  s.quant_comparisons = qe.costs().sort.comparisons;
  s.freq_hist_elements = fe.costs().histogram_elements;
  s.quant_hist_elements = qe.costs().histogram_elements;
  s.freq_merged = fe.costs().merged_entries;
  s.freq_compressed = fe.costs().compressed_entries;
  s.freq_device = fe.device_stats();
  s.quant_device = qe.device_stats();
  return s;
}

Snapshot RunMiner(Options opt, const std::vector<float>& data) {
  StreamMiner miner(opt);
  miner.ObserveBatch(data);
  miner.Flush();
  return Capture(miner);
}

constexpr Backend kAllBackends[] = {Backend::kGpuPbsn, Backend::kGpuBitonic,
                                    Backend::kCpuQuicksort, Backend::kCpuStdSort};

TEST(PipelineDeterminismTest, MatchesSerialAcrossBackendsWorkersAndSeeds) {
  for (unsigned seed : {1u, 2u}) {
    const auto data = ZipfStream(12000, seed);
    for (Backend backend : kAllBackends) {
      Options opt;
      opt.epsilon = 0.01;
      opt.backend = backend;

      opt.num_sort_workers = 1;  // serial reference
      const Snapshot serial = RunMiner(opt, data);

      for (int workers : {2, 8}) {
        opt.num_sort_workers = workers;
        const Snapshot pipelined = RunMiner(opt, data);
        EXPECT_EQ(pipelined, serial)
            << BackendName(backend) << " seed=" << seed << " workers=" << workers;
      }
    }
  }
}

TEST(PipelineDeterminismTest, MatchesSerialInSlidingMode) {
  const auto data = ZipfStream(15000, 3);
  for (Backend backend : {Backend::kGpuPbsn, Backend::kCpuQuicksort}) {
    Options opt;
    opt.epsilon = 0.01;
    opt.backend = backend;
    opt.sliding_window = 5000;

    opt.num_sort_workers = 1;
    const Snapshot serial = RunMiner(opt, data);

    opt.num_sort_workers = 4;
    const Snapshot pipelined = RunMiner(opt, data);
    EXPECT_EQ(pipelined, serial) << BackendName(backend);
  }
}

TEST(PipelineDeterminismTest, MidStreamQueriesMatchSerial) {
  // Queries synchronize with the pipeline (drain everything in flight), so a
  // mid-stream query sees exactly the serial state at the same point.
  const auto data = ZipfStream(9000, 4);
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kGpuPbsn;

  Options serial_opt = opt;
  serial_opt.num_sort_workers = 1;
  Options pipe_opt = opt;
  pipe_opt.num_sort_workers = 3;

  FrequencyEstimator serial(serial_opt);
  FrequencyEstimator pipelined(pipe_opt);
  for (std::size_t i = 0; i < data.size(); ++i) {
    serial.Observe(data[i]);
    pipelined.Observe(data[i]);
    if (i == data.size() / 3 || i == 2 * data.size() / 3) {
      EXPECT_EQ(pipelined.HeavyHitters(0.03), serial.HeavyHitters(0.03)) << i;
      EXPECT_EQ(pipelined.processed_length(), serial.processed_length()) << i;
      EXPECT_EQ(pipelined.SimulatedSeconds(), serial.SimulatedSeconds()) << i;
    }
  }
  serial.Flush();
  pipelined.Flush();
  EXPECT_EQ(pipelined.HeavyHitters(0.02), serial.HeavyHitters(0.02));
}

TEST(PipelineDeterminismTest, SplitIngestAndTerminalFlushMatchSerial) {
  // Ingest in unaligned spans (the final window is partial), finalize once,
  // and hit the post-Flush lifecycle: both modes must chunk the stream
  // identically and reject late observations the same way.
  const auto data = ZipfStream(1234, 5);
  for (Backend backend : {Backend::kGpuPbsn, Backend::kCpuStdSort}) {
    Options opt;
    opt.epsilon = 0.02;  // window 50: 1234 is mid-window for any batch size
    opt.backend = backend;

    auto run_split = [&](int workers) {
      Options o = opt;
      o.num_sort_workers = workers;
      StreamMiner miner(o);
      const std::size_t cut = 533;  // mid-window split
      EXPECT_TRUE(miner.ObserveBatch(std::span(data.data(), cut)).ok());
      EXPECT_TRUE(
          miner.ObserveBatch(std::span(data.data() + cut, data.size() - cut)).ok());
      miner.Flush();
      miner.Flush();  // idempotent
      EXPECT_TRUE(miner.finalized());
      EXPECT_EQ(miner.Observe(1.0f).code(), Status::Code::kFailedPrecondition);
      return Capture(miner);
    };
    EXPECT_EQ(run_split(4), run_split(1)) << BackendName(backend);
  }
}

TEST(PipelineDeterminismTest, PipelineCostsRecordWaitAccounting) {
  const auto data = ZipfStream(8000, 6);
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuStdSort;
  opt.num_sort_workers = 2;
  FrequencyEstimator fe(opt);
  fe.ObserveBatch(data);
  fe.Flush();
  const PipelineCosts& costs = fe.costs();
  EXPECT_GT(costs.pipelined_batches, 0u);
  EXPECT_GT(costs.sort_wall_seconds, 0.0);
  EXPECT_GT(costs.drain_wall_seconds, 0.0);
  EXPECT_GE(costs.ingest_stall_seconds, 0.0);

  // Serial mode leaves the pipeline fields untouched.
  opt.num_sort_workers = 1;
  FrequencyEstimator serial(opt);
  serial.ObserveBatch(data);
  serial.Flush();
  EXPECT_EQ(serial.costs().pipelined_batches, 0u);
  EXPECT_EQ(serial.costs().sort_wall_seconds, 0.0);
}

TEST(PipelineDeterminismTest, BackpressureCapStillDeterministic) {
  const auto data = ZipfStream(6000, 7);
  Options opt;
  opt.epsilon = 0.01;
  opt.backend = Backend::kCpuQuicksort;

  opt.num_sort_workers = 1;
  const Snapshot serial = RunMiner(opt, data);

  opt.num_sort_workers = 4;
  opt.max_windows_in_flight = 4;  // one batch in flight: fully serialized flow
  const Snapshot pipelined = RunMiner(opt, data);
  EXPECT_EQ(pipelined, serial);
}

// --- The exact-run path: GK+EH at epsilon 1e-3 with natural 1000-element
// windows batches 64 windows, and the sort workers merge each batch into one
// cascade-order run and sample it at the ranks its node's prune keeps; the
// drain inserts that sample as one node. Every byte must equal the
// per-window cascade's, in every mode, backend and fallback. ---

constexpr double kRunEpsilon = 1e-3;
constexpr std::uint64_t kRunWindows = 64;
constexpr std::size_t kRunBatch = kRunWindows * 1000;

std::vector<float> UniformStream(std::size_t n, unsigned seed) {
  stream::StreamGenerator gen(
      {.distribution = stream::Distribution::kUniformReal, .seed = seed});
  return gen.Take(n);
}

std::string FreshDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("pipeline_" + name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::uint64_t CounterValue(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [counter, value] : snapshot.counters) {
    if (counter == name) return value;
  }
  return 0;
}

// Everything durable or exported about a quantile estimator.
struct RunPathOutcome {
  std::vector<std::pair<durable::RecordType, std::vector<std::uint8_t>>> records;
  std::uint64_t watermark = 0;
  std::vector<std::uint8_t> summary;
  std::vector<float> answers;
  double sim_seconds = 0;
  std::uint64_t windows_merged = 0;
  std::uint64_t run_windows = 0;

  // The counters record how the windows got in, not what they built.
  bool SameState(const RunPathOutcome& o) const {
    return records == o.records && watermark == o.watermark && summary == o.summary &&
           answers == o.answers && sim_seconds == o.sim_seconds &&
           windows_merged == o.windows_merged;
  }
};

// Latest checkpoint of `dir`: every record, and the watermark.
void ReadCheckpoint(const std::string& dir, RunPathOutcome* out) {
  const auto snapshot = durable::LoadLatestSnapshot(dir);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().message();
  out->records.clear();
  for (const auto& record : snapshot->records) out->records.emplace_back(record.type, record.payload);
  out->watermark = snapshot->watermark;
}

// Observes `data`, checkpoints with the partial final batch staged, then
// flushes and exports.
RunPathOutcome RunExactRunEstimator(Options opt, const std::vector<float>& data,
                                    const std::string& name) {
  RunPathOutcome out;
  obs::MetricsRegistry metrics;
  opt.obs.metrics = &metrics;
  opt.checkpoint_dir = FreshDir(name);
  auto created = QuantileEstimator::Create(opt);
  EXPECT_TRUE(created.ok());
  if (!created.ok()) return out;
  QuantileEstimator& qe = **created;
  EXPECT_TRUE(qe.ObserveBatch(data).ok());
  EXPECT_TRUE(qe.Checkpoint().ok());
  ReadCheckpoint(opt.checkpoint_dir, &out);
  EXPECT_TRUE(qe.Flush().ok());
  const auto summary = qe.SerializedSummary();
  EXPECT_TRUE(summary.ok());
  if (summary.ok()) out.summary = *summary;
  for (double phi : {0.01, 0.5, 0.99, 1.0}) out.answers.push_back(qe.Quantile(phi).value);
  out.sim_seconds = qe.SimulatedSeconds();
  const obs::MetricsSnapshot counters = metrics.Snapshot();
  out.windows_merged = CounterValue(counters, "quant.merge.windows");
  out.run_windows = CounterValue(counters, "quant.merge.run_windows");
  return out;
}

TEST(ExactRunPathTest, MatchesSerialAcrossWorkersAndBackends) {
  // Five full batches, then a partial batch that ends mid-window.
  const auto data = UniformStream(5 * kRunBatch + 12345, 21);
  Options opt;
  opt.epsilon = kRunEpsilon;
  opt.gpu_format = gpu::Format::kFloat32;  // every backend sees the same values
  RunPathOutcome reference;
  for (Backend backend : {Backend::kCpuRadixMerge, Backend::kAuto, Backend::kGpuPbsn}) {
    opt.backend = backend;
    opt.num_sort_workers = 1;
    const RunPathOutcome serial =
        RunExactRunEstimator(opt, data, std::string("serial_") + BackendName(backend));
    // The five full batches took the run path; the staged partial one did
    // not, and Flush merged it window by window.
    EXPECT_EQ(serial.run_windows, 5u * kRunWindows) << BackendName(backend);
    EXPECT_EQ(serial.windows_merged, 5u * kRunWindows + 13u) << BackendName(backend);
    ASSERT_EQ(serial.records.size(), 3u) << "header, state, staged partial batch";
    EXPECT_EQ(serial.records[2].first, durable::RecordType::kWindowBuffer);
    if (reference.records.empty()) reference = serial;
    // Sort backends agree on the canonical order, so the summaries do too.
    EXPECT_EQ(serial.records[1], reference.records[1]) << BackendName(backend);
    EXPECT_EQ(serial.summary, reference.summary) << BackendName(backend);

    for (int workers : {2, 4}) {
      opt.num_sort_workers = workers;
      const RunPathOutcome pipelined = RunExactRunEstimator(
          opt, data, std::string("pipelined_") + BackendName(backend));
      EXPECT_TRUE(pipelined.SameState(serial))
          << BackendName(backend) << " workers=" << workers;
      EXPECT_EQ(pipelined.run_windows, serial.run_windows)
          << BackendName(backend) << " workers=" << workers;
    }
  }
}

// The serial estimator's own sort stack (its engine, a fault injector seeded
// with stream 0, a resilient sorter without CPU fallback) feeding a summary
// core window by window in `batch_windows`-window batches: the per-window
// reference for a faulty serial run.
std::vector<std::uint8_t> PerWindowReference(const Options& opt, const std::vector<float>& data,
                                             std::size_t batch_windows) {
  SortEngine engine(opt);
  FaultInjector injector(opt.fault.plan, /*stream_id=*/0);
  if (engine.device() != nullptr) engine.device()->set_fault_hook(&injector);
  sort::ResilienceOptions resilience;
  resilience.max_retries = opt.fault.max_retries;
  resilience.max_device_losses = opt.fault.max_device_losses;
  resilience.cpu_fallback = false;
  sort::ResilientSorter sorter(&engine.sorter(), nullptr, engine.device(), &injector,
                               obs::Observability{}, "quant.", resilience);
  const std::size_t window = 1000;
  QuantileSummaryCore core(opt.epsilon, window, 0, 0);
  for (std::size_t off = 0; off < data.size(); off += window * batch_windows) {
    std::vector<float> batch(data.begin() + static_cast<std::ptrdiff_t>(off),
                             data.begin() + static_cast<std::ptrdiff_t>(std::min(
                                                data.size(), off + window * batch_windows)));
    std::vector<std::span<float>> windows;
    for (std::size_t w = 0; w < batch.size(); w += window) {
      windows.emplace_back(batch.data() + w, std::min(window, batch.size() - w));
    }
    sorter.SortRuns(windows);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if ((sorter.last_quarantine_mask() >> i) & 1) {
        core.QuarantineWindow(windows[i].size());
      } else {
        core.MergeSortedWindow(windows[i]);
      }
    }
  }
  std::vector<std::uint8_t> state;
  EXPECT_TRUE(core.AppendCheckpointState(&state).ok());
  return state;
}

TEST(ExactRunPathTest, QuarantineMisalignsTheCounterAndTheFallbackIsPerWindow) {
  // One corrupted render pass in the second batch with no CPU fallback: its
  // window is quarantined, the window counter falls out of step with the
  // batches for good, and every later batch merges window by window.
  const auto data = UniformStream(3 * kRunBatch + 4321, 22);
  Options opt;
  opt.epsilon = kRunEpsilon;
  opt.backend = Backend::kGpuPbsn;
  opt.gpu_format = gpu::Format::kFloat32;  // the reference sorts unquantized input
  auto plan = FaultPlan::Parse("pass:bitflip:after=20000,max=1", 5);
  ASSERT_TRUE(plan.ok());
  opt.fault.plan = *plan;
  opt.fault.max_retries = 0;
  opt.fault.cpu_fallback = false;

  const RunPathOutcome faulty = RunExactRunEstimator(opt, data, "quarantine");
  const std::uint64_t quarantined = 3 * kRunWindows + 5 - faulty.windows_merged;
  ASSERT_GT(quarantined, 0u);
  // The first batch took a run; none did from the quarantined batch on,
  // though another full batch followed it.
  EXPECT_EQ(faulty.run_windows, kRunWindows);

  // A checkpoint taken after Flush holds the final state.
  opt.checkpoint_dir = FreshDir("quarantine_final");
  auto again = QuantileEstimator::Create(opt);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE((*again)->ObserveBatch(data).ok());
  ASSERT_TRUE((*again)->Flush().ok());
  ASSERT_TRUE((*again)->Checkpoint().ok());
  RunPathOutcome final_state;
  ReadCheckpoint(opt.checkpoint_dir, &final_state);
  ASSERT_EQ(final_state.records.size(), 2u);
  EXPECT_EQ(final_state.records[1].second, PerWindowReference(opt, data, kRunWindows));
}

TEST(ExactRunPathTest, NanBearingStreamMatchesThePerWindowPath) {
  // +-NaN, +-0 and +-inf among ordinary values: the sorters put the NaNs at
  // both ends of each window, where operator<= is false. The sampled runs of
  // the full batches and the per-window tail must still leave the per-window
  // cascade's bytes (a Debug build also cross-checks every run and sample).
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {nan, -nan, 0.0f, -0.0f, inf, -inf};
  auto data = UniformStream(3 * kRunBatch + 2500, 24);
  for (std::size_t i = 0; i < data.size(); i += 7) data[i] = specials[(i / 7) % 6];
  Options opt;
  opt.epsilon = kRunEpsilon;
  opt.backend = Backend::kCpuRadixMerge;
  // The per-window reference: the engine's own sorter, window by window
  // (PerWindowReference's resilient sorter would quarantine every window
  // holding a NaN).
  SortEngine engine(opt);
  QuantileSummaryCore core(opt.epsilon, 1000, 0, 0);
  for (std::size_t off = 0; off < data.size(); off += 1000) {
    std::vector<float> window(data.begin() + static_cast<std::ptrdiff_t>(off),
                              data.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(data.size(), off + 1000)));
    engine.sorter().Sort(window);
    core.MergeSortedWindow(window);
  }
  std::vector<std::uint8_t> reference;
  ASSERT_TRUE(core.AppendCheckpointState(&reference).ok());
  for (int workers : {1, 4}) {
    obs::MetricsRegistry metrics;
    opt.obs.metrics = &metrics;
    opt.num_sort_workers = workers;
    opt.checkpoint_dir = FreshDir("nan_workers" + std::to_string(workers));
    auto created = QuantileEstimator::Create(opt);
    ASSERT_TRUE(created.ok());
    ASSERT_TRUE((*created)->ObserveBatch(data).ok());
    ASSERT_TRUE((*created)->Flush().ok());
    ASSERT_TRUE((*created)->Checkpoint().ok());
    RunPathOutcome final_state;
    ReadCheckpoint(opt.checkpoint_dir, &final_state);
    ASSERT_EQ(final_state.records.size(), 2u);
    EXPECT_EQ(final_state.records[1].second, reference) << "workers=" << workers;
    EXPECT_EQ(CounterValue(metrics.Snapshot(), "quant.merge.run_windows"), 3u * kRunWindows)
        << "workers=" << workers;
  }
}

TEST(ExactRunPathTest, RestoreFromMidBatchCheckpointContinuesByteIdentically) {
  const auto data = UniformStream(4 * kRunBatch + 999, 23);
  Options opt;
  opt.epsilon = kRunEpsilon;
  opt.backend = Backend::kCpuRadixMerge;
  opt.num_sort_workers = 4;
  const RunPathOutcome uninterrupted = RunExactRunEstimator(opt, data, "uninterrupted");

  // Cut two batches and a few windows in: the checkpoint stages a partial
  // batch that ends mid-window.
  const std::size_t cut = 2 * kRunBatch + 7777;
  obs::MetricsRegistry metrics;
  opt.obs.metrics = &metrics;
  opt.checkpoint_dir = FreshDir("midbatch");
  {
    auto first = QuantileEstimator::Create(opt);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE((*first)->ObserveBatch(std::span(data).first(cut)).ok());
    ASSERT_TRUE((*first)->Checkpoint().ok());
  }
  auto restored = QuantileEstimator::Restore(opt);
  ASSERT_TRUE(restored.ok()) << restored.status().message();
  ASSERT_EQ((*restored)->observed_length(), cut);
  ASSERT_TRUE((*restored)->ObserveBatch(std::span(data).subspan(cut)).ok());
  ASSERT_TRUE((*restored)->Checkpoint().ok());
  RunPathOutcome resumed;
  ReadCheckpoint(opt.checkpoint_dir, &resumed);
  ASSERT_TRUE((*restored)->Flush().ok());
  const auto summary = (*restored)->SerializedSummary();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(resumed.records, uninterrupted.records);
  EXPECT_EQ(resumed.watermark, uninterrupted.watermark);
  EXPECT_EQ(*summary, uninterrupted.summary);
  // Both estimators took runs: the first for its two full batches, the
  // restored one (still aligned) for the staged batch it completed and the
  // next.
  EXPECT_EQ(CounterValue(metrics.Snapshot(), "quant.merge.run_windows"), 4u * kRunWindows);
}

TEST(PipelineShutdownTest, DestructionFlushesInFlightBatchesCleanly) {
  // Destroying a pipelined estimator with batches still in flight (no
  // Flush) must join all threads without deadlock, crash, or leak (TSan/
  // ASan-observable). Queries are deliberately skipped.
  const auto data = ZipfStream(10000, 8);
  for (int workers : {2, 8}) {
    Options opt;
    opt.epsilon = 0.005;
    opt.backend = Backend::kCpuStdSort;
    opt.num_sort_workers = workers;
    QuantileEstimator qe(opt);
    qe.ObserveBatch(data);
    // ~50 batches were submitted; destructor runs with work in flight.
  }
  SUCCEED();
}

TEST(PipelineShutdownTest, WaitIdleOnEmptyPipelineReturnsImmediately) {
  Options opt;
  opt.epsilon = 0.01;
  opt.num_sort_workers = 2;
  opt.backend = Backend::kCpuStdSort;
  FrequencyEstimator fe(opt);
  fe.Flush();                                // nothing buffered
  EXPECT_EQ(fe.processed_length(), 0u);      // queries sync against idle pipeline
  EXPECT_TRUE(fe.HeavyHitters(0.01).items.empty());
  EXPECT_EQ(fe.costs().pipelined_batches, 0u);
}

TEST(PipelineObservabilityTest, CountersBitIdenticalAcrossWorkerCounts) {
  // The metrics determinism contract (docs/OBSERVABILITY.md): counters and
  // histograms record operation counts, so their merged totals are
  // bit-identical between serial and pipelined execution — even though the
  // pipelined run shards them across 8 worker threads plus ingest and drain.
  const auto data = ZipfStream(20000, 9);
  auto run = [&](int workers) {
    obs::MetricsRegistry metrics;
    Options opt;
    opt.epsilon = 0.005;
    opt.backend = Backend::kGpuPbsn;
    opt.num_sort_workers = workers;
    opt.obs.metrics = &metrics;
    StreamMiner miner(opt);
    miner.ObserveBatch(data);
    miner.Flush();
    (void)miner.frequencies().HeavyHitters(0.02);
    (void)miner.quantiles().Quantile(0.5);
    return metrics.Snapshot();
  };

  const obs::MetricsSnapshot serial = run(1);
  const obs::MetricsSnapshot pipelined = run(8);

  ASSERT_FALSE(serial.counters.empty());
  EXPECT_EQ(pipelined.counters, serial.counters);
  ASSERT_FALSE(serial.histograms.empty());
  ASSERT_EQ(pipelined.histograms.size(), serial.histograms.size());
  for (std::size_t i = 0; i < serial.histograms.size(); ++i) {
    EXPECT_EQ(pipelined.histograms[i].name, serial.histograms[i].name);
    EXPECT_EQ(pipelined.histograms[i].counts, serial.histograms[i].counts) << i;
    EXPECT_EQ(pipelined.histograms[i].sum, serial.histograms[i].sum) << i;
  }
  // Gauges (wall-clock readings) carry no such guarantee — only their names.
}

// Direct SortPipeline exercise: drain order must equal submission order even
// with many workers racing, and every window must come back sorted.
TEST(SortPipelineTest, DrainsInSubmissionOrderAndSortsEveryWindow) {
  constexpr int kWorkers = 4;
  constexpr std::uint64_t kWindow = 64;
  constexpr int kBatches = 50;

  std::vector<sort::StdSortSorter> sorters(
      static_cast<std::size_t>(kWorkers),
      sort::StdSortSorter(hwmodel::kPentium4_3400));
  std::vector<sort::Sorter*> sorter_ptrs;
  for (auto& s : sorters) sorter_ptrs.push_back(&s);

  std::vector<float> drained_markers;  // first element of each drained batch
  std::uint64_t drained_elements = 0;
  bool all_sorted = true;
  stream::PipelineConfig config;
  config.window_size = kWindow;
  stream::SortPipeline pipeline(
      config, sorter_ptrs,
      [&](std::vector<float>&& batch, const sort::SortRunInfo& run,
          std::uint64_t) {
        // Batches are marked by their first window's minimum: batch i holds
        // values in [i*1000, i*1000 + size).
        drained_markers.push_back(batch.front());
        drained_elements += batch.size();
        for (std::size_t off = 0; off < batch.size(); off += kWindow) {
          const std::size_t end = std::min(batch.size(), off + kWindow);
          for (std::size_t j = off + 1; j < end; ++j) {
            if (batch[j - 1] > batch[j]) all_sorted = false;
          }
        }
        EXPECT_GT(run.comparisons, 0u);
        return core::Status::Ok();
      });

  std::uint64_t submitted_elements = 0;
  for (int b = 0; b < kBatches; ++b) {
    // Descending input so sorting has to do real work; size varies so the
    // final window of most batches is partial.
    const std::size_t size = 3 * kWindow + static_cast<std::size_t>(b % 17);
    std::vector<float> batch(size);
    for (std::size_t j = 0; j < size; ++j) {
      batch[j] = static_cast<float>(b * 1000 + (size - 1 - j));
    }
    submitted_elements += size;
    pipeline.Submit(std::move(batch));
  }
  pipeline.WaitIdle();

  ASSERT_EQ(drained_markers.size(), static_cast<std::size_t>(kBatches));
  for (int b = 0; b < kBatches; ++b) {
    // After per-window sorting, the batch front is the first window's
    // minimum: the descending fill put values [2*kWindow + b%17, ...) there.
    const float expected =
        static_cast<float>(b * 1000 + 2 * kWindow + static_cast<std::uint64_t>(b % 17));
    EXPECT_EQ(drained_markers[static_cast<std::size_t>(b)], expected)
        << "batch drained out of order";
  }
  EXPECT_TRUE(all_sorted);
  EXPECT_EQ(drained_elements, submitted_elements);
  EXPECT_EQ(pipeline.stats().batches, static_cast<std::uint64_t>(kBatches));
}

TEST(SortPipelineTest, WindowBatcherTakeBufferMovesAndResets) {
  stream::WindowBatcher batcher(4, 2);
  for (int i = 0; i < 7; ++i) EXPECT_FALSE(batcher.Push(static_cast<float>(i)));
  EXPECT_TRUE(batcher.Push(7.0f));
  std::vector<float> taken = batcher.TakeBuffer();
  EXPECT_EQ(taken.size(), 8u);
  EXPECT_TRUE(batcher.empty());
  // The batcher is immediately reusable.
  for (int i = 0; i < 3; ++i) batcher.Push(static_cast<float>(i));
  EXPECT_EQ(batcher.buffered(), 3u);
}

}  // namespace
}  // namespace streamgpu::core

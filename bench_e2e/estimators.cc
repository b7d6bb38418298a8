// The two dedicated-estimator workloads: quantile_gk (drain-bound GK+EH
// quantiles on the planner-chosen backend) and frequency_pbsn (sort-bound
// heavy hitters on the paper's simulated-GPU PBSN sort). README.md gives
// the measured splits that justify them.
//
// Untraced runs time the public estimator API in rounds until --seconds
// have elapsed: set-up, ingest, quiescent queries, a verified
// Checkpoint()/Restore() pair and Restore() samples. The traced run
// replays the estimator path from its public parts (WindowBatcher ->
// SortPipeline over per-worker SortEngines behind TimedSorter ->
// SummaryCore::MergeSortedWindow in the drain callback), proves the replay
// bit-identical to the estimator, and reports the per-layer ledger.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <random>
#include <tuple>
#include <unordered_map>

#include "bench.h"
#include "core/backend.h"
#include "core/frequency_estimator.h"
#include "core/quantile_estimator.h"
#include "core/summary_core.h"
#include "gpu/half.h"
#include "hwmodel/calibration.h"
#include "sketch/exact.h"
#include "stream/generator.h"
#include "stream/pipeline.h"
#include "stream/window_buffer.h"

namespace bench {

namespace {

namespace core = streamgpu::core;
namespace gpu = streamgpu::gpu;
namespace sketch = streamgpu::sketch;
namespace stream = streamgpu::stream;

constexpr int kWorkers = 4;
constexpr int kMinRounds = 3;
constexpr int kMaxRounds = 200;
/// Rounds go on past --seconds until this many quiescent query latencies
/// are pooled, enough for p99.
constexpr std::size_t kMinQuerySamples = 1000;
/// Queries of the traced run, and restored-estimator answers compared per
/// round (the export bytes cover the rest of the state).
constexpr std::size_t kTracedQueries = 400;
constexpr std::size_t kRestoreChecks = 20;
/// Each quiescent query is timed this many times back to back and its
/// fastest wall time kept, so a descheduled call does not count as latency.
constexpr int kQueryRepeats = 3;
/// Restore() samples per round: at least kMinDurableSamples, more while the
/// round has spent under kDurableBudgetS on them.
constexpr int kMinDurableSamples = 3;
constexpr int kMaxDurableSamples = 40;
constexpr double kDurableBudgetS = 0.3;

/// One estimator workload: stream shape, estimator options, query load.
struct Workload {
  const char* name;
  std::size_t elements;
  stream::Distribution distribution;
  core::Options options;
  std::size_t queries_per_round;
};

/// kAuto set-ups re-measure the memcpy calibration and pin it into the
/// planner (the fixed backends have no planner).
bool Calibrates(const core::Options& options) { return options.backend == core::Backend::kAuto; }

/// The generated stream plus its reference data. `universe` is the stream
/// as the estimator stores it (binary16-quantized on the GPU f16 path).
struct Inputs {
  std::vector<float> raw;
  std::vector<float> universe;
};

Inputs MakeInputs(const Workload& w, std::uint64_t seed, bool quantize) {
  stream::StreamGenerator::Config config;
  config.distribution = w.distribution;
  config.seed = Mix(seed);
  stream::StreamGenerator gen(config);
  Inputs in;
  in.raw = gen.Take(w.elements);
  in.universe = in.raw;
  if (quantize) gpu::QuantizeToHalfN(in.raw.data(), in.universe.data(), in.raw.size());
  return in;
}

bool Quantizes(const core::Options& options) {
  const core::SortEngine engine(options);
  return engine.is_gpu() && options.gpu_format == gpu::Format::kFloat16;
}

std::string PlannerChoice(const core::Options& options, std::uint64_t window) {
  const core::SortEngine engine(options);
  if (engine.planner() == nullptr) {
    return std::string(core::BackendName(options.backend)) + " (fixed backend)";
  }
  return std::string(streamgpu::hwmodel::SortBackendName(engine.planner()->Choose(window))) +
         " (planner choice for a " + std::to_string(window) + "-element window)";
}

double SnapshotMb(const std::string& dir) {
  std::error_code ec;
  std::uintmax_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".ckpt") bytes += entry.file_size(ec);
  }
  return static_cast<double>(bytes) / 1e6;
}

bool SameDevice(const gpu::GpuStats& a, const gpu::GpuStats& b) {
  return a.draw_calls == b.draw_calls && a.fragments_shaded == b.fragments_shaded &&
         a.blend_fragments == b.blend_fragments && a.bytes_uploaded == b.bytes_uploaded &&
         a.bytes_readback == b.bytes_readback && a.bytes_vram == b.bytes_vram;
}

/// "rounds: N of E elements, ... ingest s per round: ..." context line.
std::string RoundsLine(const std::vector<double>& ingest_s, std::size_t elements,
                       std::size_t setups, std::size_t restores) {
  return "rounds: " + std::to_string(ingest_s.size()) + " of " + std::to_string(elements) +
         " elements; " + std::to_string(setups) + " set-ups; " + std::to_string(restores) +
         " restore samples; ingest s per round:" + FormatSeconds(ingest_s);
}

// ------------------------------------------------------------- traits

/// What differs between the quantile and the frequency workloads: the query,
/// its correctness check, the export, and the summary-core accounting.
struct QuantileTraits {
  using Estimator = core::QuantileEstimator;
  using Core = core::QuantileSummaryCore;
  using Report = core::QuantileReport;

  /// Reference: the stream's universe, sorted.
  struct Reference {
    std::vector<float> sorted;
    explicit Reference(const std::vector<float>& universe) : sorted(universe) {
      std::sort(sorted.begin(), sorted.end());
    }
  };

  static std::uint64_t Window(const core::Options& o) {
    return core::NaturalQuantileWindow(o.epsilon, o.window_size, o.sliding_window);
  }
  static std::unique_ptr<Core> MakeCore(const core::Options& o) {
    return std::make_unique<Core>(o.epsilon, Window(o), o.sliding_window,
                                  o.expected_stream_length, o.quantile_sketch);
  }
  /// phi in (0, 1].
  static double DrawParam(std::mt19937_64& rng) {
    return 1.0 - std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  }
  static Report Query(const Estimator& e, double phi) { return e.Quantile(phi); }
  static Report Query(const Core& c, double phi) { return c.Quantile(phi, 0); }

  static core::StatusOr<std::vector<std::uint8_t>> Export(const Estimator& e) {
    return e.SerializedSummary();
  }
  static std::vector<std::uint8_t> Export(const Core& c, core::Status* status) {
    std::vector<std::uint8_t> bytes;
    *status = c.AppendWireSummary(&bytes);
    return bytes;
  }

  /// Quiescent answer over the whole stream.
  static void CheckFull(const Report& r, double phi, const Reference& ref, Outcome* out) {
    const std::uint64_t n = ref.sorted.size();
    const std::uint64_t err = RankError(SortedRankRange(ref.sorted, r.value), phi, n);
    out->ObserveError(static_cast<double>(err), static_cast<double>(r.rank_error_bound));
    out->Check(r.window_coverage == n && err <= r.rank_error_bound,
               "quantile phi=" + std::to_string(phi) + " rank error " +
                   std::to_string(err) + " > bound " + std::to_string(r.rank_error_bound));
  }

  struct Accounting {
    double summarize_s, merge_s, compress_s;
    std::uint64_t merged, pruned;
  };
  static Accounting Account(const Core& c) {
    return {c.histogram_wall_seconds(), c.merge_seconds(), c.compress_seconds(),
            c.merged_tuples(), c.pruned_tuples()};
  }
};

struct FrequencyTraits {
  using Estimator = core::FrequencyEstimator;
  using Core = core::FrequencySummaryCore;
  using Report = core::FrequencyReport;

  /// Reference: exact counts (sketch::ExactCounts), by descending count.
  struct Reference {
    std::unordered_map<float, std::uint64_t> counts;
    std::vector<std::pair<float, std::uint64_t>> by_count;
    std::uint64_t n = 0;
    explicit Reference(const std::vector<float>& universe)
        : counts(sketch::ExactCounts(universe)), n(universe.size()) {
      by_count.assign(counts.begin(), counts.end());
      std::sort(by_count.begin(), by_count.end(),
                [](const auto& a, const auto& b) { return a.second > b.second; });
    }
  };

  static std::uint64_t Window(const core::Options& o) {
    return core::NaturalFrequencyWindow(o.epsilon, o.window_size, o.sliding_window);
  }
  static std::unique_ptr<Core> MakeCore(const core::Options& o) {
    return std::make_unique<Core>(o.epsilon, Window(o), o.sliding_window);
  }
  /// Supports between 5 and 200 times epsilon = 1e-4.
  static double DrawParam(std::mt19937_64& rng) {
    return std::uniform_real_distribution<double>(5e-4, 2e-2)(rng);
  }
  static Report Query(const Estimator& e, double support) { return e.HeavyHitters(support); }
  static Report Query(const Core& c, double support) { return c.HeavyHitters(support, 0); }

  /// Checks one report against exact counts: no item is over-counted, none
  /// is under-counted by more than the bound, and every exact heavy hitter
  /// above the support is reported.
  static void CheckFull(const Report& r, double support, const Reference& ref, Outcome* out) {
    const std::uint64_t n = ref.n;
    bool ok = r.window_coverage == n;
    std::uint64_t worst = 0;
    for (const auto& item : r.items) {
      const auto it = ref.counts.find(item.value);
      const std::uint64_t exact = it == ref.counts.end() ? 0 : it->second;
      if (item.estimate > exact) {
        ok = false;
        continue;
      }
      worst = std::max(worst, exact - item.estimate);
    }
    ok = ok && worst <= r.error_bound;
    const double threshold = support * static_cast<double>(n);
    for (const auto& [value, count] : ref.by_count) {
      if (static_cast<double>(count) <= threshold) break;
      const bool found = std::any_of(r.items.begin(), r.items.end(),
                                     [&](const auto& item) { return item.value == value; });
      ok = ok && found;
    }
    out->ObserveError(static_cast<double>(worst), static_cast<double>(r.error_bound));
    out->Check(ok, "heavy hitters at support " + std::to_string(support) + " over " +
                       std::to_string(n) + " elements: worst undercount " +
                       std::to_string(worst) + ", bound " + std::to_string(r.error_bound));
  }

  static core::StatusOr<std::vector<std::uint8_t>> Export(const Estimator&) {
    return std::vector<std::uint8_t>{};  // the frequency core has no wire export
  }
  static std::vector<std::uint8_t> Export(const Core&, core::Status* status) {
    *status = core::Status::Ok();
    return {};
  }

  struct Accounting {
    double summarize_s, merge_s, compress_s;
    std::uint64_t merged, pruned;
  };
  static Accounting Account(const Core& c) {
    const auto* ops = c.op_costs();
    return {c.histogram_wall_seconds(), ops->merge_seconds, ops->compress_seconds,
            ops->merged_entries, ops->compressed_entries};
  }
};

// ------------------------------------------------------ untraced run

template <typename Traits>
void RunUntraced(const Workload& w, const RunConfig& config, Outcome* out) {
  using Estimator = typename Traits::Estimator;
  const std::uint64_t window = Traits::Window(w.options);
  const Inputs in = MakeInputs(w, config.seed, Quantizes(w.options));
  const typename Traits::Reference ref(in.universe);
  out->Info("backend: " + PlannerChoice(w.options, window));
  const double rss_base = PeakRssMb();

  std::mt19937_64 rng(Mix(config.seed ^ 0x51ull));
  std::vector<double> setup_s, ingest_s, query_s, restore_s;
  double snapshot_mb = 0;
  double first_round_rss_mb = 0;

  // Set-up: one setup_s sample (see TimePerCall), then the estimator used.
  const auto set_up = [&](core::Options options) {
    const auto create = [&] {
      if (Calibrates(options)) {
        options.planner.memcpy_ns_per_byte = streamgpu::hwmodel::MeasureMemcpyNsPerByte();
      }
      return Estimator::Create(options);
    };
    setup_s.push_back(TimePerCall(create, [](const auto&) {}));
    return create();
  };

  // A round: set-up, ingest and flush untouched, quiescent queries, then a
  // verified checkpoint/restore pair and timed Restore() samples while the
  // round's durable budget lasts.
  const auto run_round = [&](int round) {
    core::Options options = w.options;
    options.checkpoint_dir = config.workdir + "/ckpt-" + w.name + "-" + std::to_string(round);
    auto created = set_up(options);
    if (!out->CheckStatus(created.status(), "Create")) return;
    Estimator& est = **created;

    const double t = WallSeconds();
    out->CheckStatus(est.ObserveBatch(in.raw), "ObserveBatch");
    out->CheckStatus(est.Flush(), "Flush");
    ingest_s.push_back(WallSeconds() - t);

    std::vector<double> params;
    std::vector<typename Traits::Report> reports;
    for (std::size_t q = 0; q < w.queries_per_round; ++q) {
      const double param = Traits::DrawParam(rng);
      double fastest = INFINITY;
      for (int rep = 0; rep < kQueryRepeats; ++rep) {
        const double t0 = WallSeconds();
        typename Traits::Report report = Traits::Query(est, param);
        fastest = std::min(fastest, WallSeconds() - t0);
        if (rep == 0) {
          reports.push_back(std::move(report));
        } else {
          out->Check(report == reports.back(), "a repeated query answers differently");
        }
      }
      query_s.push_back(fastest);
      params.push_back(param);
      Traits::CheckFull(reports.back(), param, ref, out);
    }
    auto exported = Traits::Export(est);
    out->CheckStatus(exported.status(), "export");

    // The first restore must answer and export exactly as the estimator did.
    out->CheckStatus(est.Checkpoint(), "Checkpoint");
    if (round == 0) snapshot_mb = SnapshotMb(options.checkpoint_dir);
    {
      auto restored = Estimator::Restore(options);
      if (out->CheckStatus(restored.status(), "Restore")) {
        Estimator& again = **restored;
        bool same = true;
        for (std::size_t q = 0; q < std::min(params.size(), kRestoreChecks); ++q) {
          same = same && Traits::Query(again, params[q]) == reports[q];
        }
        out->Check(same, "restored estimator answers differ");
        out->CheckStatus(again.Flush(), "restored Flush");
        auto again_bytes = Traits::Export(again);
        out->Check(again_bytes.ok() && exported.ok() && *again_bytes == *exported,
                   "restored export bytes differ");
      }
    }
    const double durable_start = WallSeconds();
    for (int rep = 0; rep < kMaxDurableSamples &&
                      (rep < kMinDurableSamples || WallSeconds() - durable_start < kDurableBudgetS);
         ++rep) {
      restore_s.push_back(TimePerCall(
          [&] { return Estimator::Restore(options); },
          [&](const auto& restored) { out->CheckStatus(restored.status(), "Restore"); }));
    }
    std::error_code ec;
    std::filesystem::remove_all(options.checkpoint_dir, ec);
    if (round == 0) first_round_rss_mb = PeakRssMb();
  };

  const double loop_start = WallSeconds();
  for (int round = 0;
       round < kMaxRounds && (round < kMinRounds || query_s.size() < kMinQuerySamples ||
                              WallSeconds() - loop_start < config.seconds);
       ++round) {
    run_round(round);
  }

  const double n = static_cast<double>(in.raw.size());
  std::vector<double> meps;
  for (double s : ingest_s) meps.push_back(n / s / 1e6);
  out->Add("ingest_meps", "Mel/s", Median(meps));
  out->Add("setup_s", "s", Median(setup_s));
  out->AddPercentile("query_p50_us", "us", query_s, 0.50, 1e6);
  out->AddPercentile("query_p99_us", "us", query_s, 0.99, 1e6);
  out->Add("restore_s", "s", Median(restore_s));
  out->Add("snapshot_mb", "MB", snapshot_mb);
  out->Add("peak_rss_mb", "MB", first_round_rss_mb - rss_base);
  out->Info(RoundsLine(ingest_s, in.raw.size(), setup_s.size(), restore_s.size()));
}

// -------------------------------------------------------- traced run

/// The estimator path rebuilt from public parts, timed per layer.
template <typename Traits>
struct Replay {
  std::unique_ptr<typename Traits::Core> core;
  double wall_s = 0;        ///< first Claim() to WaitIdle() return
  double ingest_cpu_s = 0;  ///< ingest thread CPU over wall_s
  double proc_cpu_s = 0;    ///< process CPU over wall_s
  double drain_busy_s = 0;
  double sort_busy_s = 0;
  double sort_cpu_s = 0;
  std::uint64_t keys = 0;
  std::uint64_t comparisons = 0;
  stream::PipelineWaitStats stats;
  gpu::GpuStats device;
};

template <typename Traits>
Replay<Traits> RunReplay(const core::Options& options, std::span<const float> raw,
                         Tracer* tracer, Outcome* out) {
  Replay<Traits> r;
  const std::uint64_t window = Traits::Window(options);
  // The estimator's own engine decides batch width and ingest quantization.
  const core::SortEngine front(options);
  const bool quantize = front.is_gpu() && options.gpu_format == gpu::Format::kFloat16;
  r.core = Traits::MakeCore(options);
  auto engines = core::MakeWorkerEngines(options, options.num_sort_workers);

  Track* ingest = tracer->NewTrack("ingest");
  Track* drain = tracer->NewTrack("drain");
  std::vector<std::unique_ptr<TimedSorter>> timed;
  std::vector<Track*> sort_tracks;
  std::vector<streamgpu::sort::Sorter*> sorters;
  for (std::size_t i = 0; i < engines.size(); ++i) {
    sort_tracks.push_back(tracer->NewTrack("sort-" + std::to_string(i)));
    timed.push_back(std::make_unique<TimedSorter>(&engines[i]->sorter(), sort_tracks.back()));
    sorters.push_back(timed.back().get());
  }
  // Batches in submission order (the drain's order): buffer and the time
  // Submit() returned, by which the batch was queued.
  std::vector<BatchCall> submits;
  std::vector<BatchCall> drains;
  RunQueueClock drain_runqueue;
  double drain_runqueue_last = 0;
  auto* core_ptr = r.core.get();
  auto drain_fn = [&](std::vector<float>&& data, const streamgpu::sort::SortRunInfo&,
                      std::uint64_t quarantine_mask) {
    const double t0 = WallSeconds();
    const double runqueue = drain_runqueue.Seconds();
    drain->Begin("drain.batch");
    std::size_t index = 0;
    for (std::size_t off = 0; off < data.size(); off += window, ++index) {
      const std::size_t len = std::min<std::size_t>(window, data.size() - off);
      if ((quarantine_mask >> index) & 1) {
        core_ptr->QuarantineWindow(len);
        continue;
      }
      Scoped span(drain, "core.MergeSortedWindow");
      core_ptr->MergeSortedWindow(std::span<float>(data.data() + off, len));
    }
    drain->End();
    drains.push_back({data.data(), t0, 0, runqueue - drain_runqueue_last});
    drain_runqueue_last = drain_runqueue.Seconds();
    const double t1 = WallSeconds();
    drains.back().end = t1;
    r.drain_busy_s += t1 - t0;
    return core::Status::Ok();
  };
  const double start = WallSeconds();
  auto pipeline = std::make_unique<stream::SortPipeline>(
      core::MakePipelineConfig(options, window, front.batch_windows(), "bench"), sorters,
      drain_fn);
  stream::WindowBatcher batcher(window, front.batch_windows());

  const double cpu0 = ThreadCpuSeconds();
  const double proc0 = ProcessCpuSeconds();
  const double t0 = WallSeconds();
  const auto submit = [&] {
    Scoped span(ingest, "pipeline.Submit");
    std::vector<float> batch = batcher.TakeBuffer(pipeline->AcquireBuffer());
    const float* data = batch.data();
    out->CheckStatus(pipeline->Submit(std::move(batch)), "replay Submit");
    submits.push_back({data, 0, WallSeconds()});
  };
  for (std::size_t consumed = 0; consumed < raw.size();) {
    {
      Scoped span(ingest, "stream.WindowBatcher.Claim");
      const std::span<float> slot = batcher.Claim(raw.size() - consumed);
      if (quantize) {
        gpu::QuantizeToHalfN(raw.data() + consumed, slot.data(), slot.size());
      } else {
        std::copy_n(raw.data() + consumed, slot.size(), slot.data());
      }
      consumed += slot.size();
    }
    if (batcher.full()) submit();
  }
  if (!batcher.empty()) submit();
  {
    Scoped span(ingest, "pipeline.WaitIdle");
    out->CheckStatus(pipeline->WaitIdle(), "replay WaitIdle");
  }
  const double t1 = WallSeconds();
  r.wall_s = t1 - t0;
  r.ingest_cpu_s = ThreadCpuSeconds() - cpu0;
  r.proc_cpu_s = ProcessCpuSeconds() - proc0;
  r.stats = pipeline->stats();
  pipeline.reset();  // joins the workers and the drain thread

  // Which batch each sort call handled: a buffer's n-th sort is its n-th
  // submission, since it is reissued only after its batch drained.
  std::map<const float*, std::vector<std::size_t>> batches_of;
  for (std::size_t seq = 0; seq < submits.size(); ++seq) {
    batches_of[submits[seq].data].push_back(seq);
  }
  // (start, worker, call index) of every sort call, per buffer.
  std::map<const float*, std::vector<std::tuple<double, std::size_t, std::size_t>>> sorts_of;
  for (std::size_t w = 0; w < timed.size(); ++w) {
    const std::vector<BatchCall>& calls = timed[w]->calls();
    for (std::size_t i = 0; i < calls.size(); ++i) {
      sorts_of[calls[i].data].emplace_back(calls[i].start, w, i);
    }
  }
  std::vector<double> sorted_at(submits.size(), t1);
  std::vector<std::vector<double>> queued_at(timed.size());
  for (std::size_t w = 0; w < timed.size(); ++w) {
    queued_at[w].assign(timed[w]->calls().size(), start);
  }
  bool matched = drains.size() == submits.size();
  for (auto& [data, sorts] : sorts_of) {
    std::sort(sorts.begin(), sorts.end());
    const std::vector<std::size_t>& seqs = batches_of[data];
    matched = matched && seqs.size() == sorts.size();
    for (std::size_t k = 0; k < std::min(seqs.size(), sorts.size()); ++k) {
      const auto [call_start, w, i] = sorts[k];
      queued_at[w][i] = submits[seqs[k]].end;
      sorted_at[seqs[k]] = timed[w]->calls()[i].end;
    }
  }
  for (std::size_t seq = 0; matched && seq < drains.size(); ++seq) {
    matched = drains[seq].data == submits[seq].data;
  }
  out->Check(matched, "replay sort and drain calls match the submitted batches");
  // Waits measured from the other side of each queue: a worker waited
  // until its batch was submitted, the drain until its batch was sorted.
  for (std::size_t w = 0; w < timed.size(); ++w) {
    AddMeasuredWaits(sort_tracks[w], "pipeline.sort_wait", start, timed[w]->calls(),
                     queued_at[w]);
  }
  AddMeasuredWaits(drain, "pipeline.drain_wait", start, drains, sorted_at);

  for (const auto& sorter : timed) {
    r.sort_busy_s += sorter->busy_s();
    r.sort_cpu_s += sorter->cpu_s();
    r.keys += sorter->keys();
    r.comparisons += sorter->comparisons();
  }
  for (const auto& engine : engines) {
    if (engine->device() != nullptr) r.device += engine->device()->stats();
  }
  return r;
}

template <typename Traits>
void RunTraced(const Workload& w, const RunConfig& config, Outcome* out) {
  using Estimator = typename Traits::Estimator;
  const std::uint64_t window = Traits::Window(w.options);
  core::Options options = w.options;
  if (Calibrates(options)) {
    options.planner.memcpy_ns_per_byte = streamgpu::hwmodel::CachedMemcpyNsPerByte();
  }
  const Inputs in = MakeInputs(w, config.seed, Quantizes(options));
  const typename Traits::Reference ref(in.universe);
  out->Info("backend: " + PlannerChoice(options, window));

  std::mt19937_64 rng(Mix(config.seed ^ 0x51ull));
  std::vector<double> params(kTracedQueries);
  for (double& p : params) p = Traits::DrawParam(rng);

  // The real estimator: the untraced reference for answers and wall time.
  struct Real {
    double wall_s = 0;
    double checkpoint_s = 0;
    double proc_cpu_s = 0;
    std::vector<typename Traits::Report> reports;
    std::vector<std::uint8_t> bytes;
    gpu::GpuStats device;
    double sim_s = 0;
  };
  const auto run_real = [&](int workers) {
    Real real;
    core::Options o = options;
    o.num_sort_workers = workers;
    o.checkpoint_dir = config.workdir + "/ckpt-trace-" + w.name;
    auto created = Estimator::Create(o);
    if (!out->CheckStatus(created.status(), "Create")) return real;
    Estimator& est = **created;
    const double proc0 = ProcessCpuSeconds();
    const double t = WallSeconds();
    out->CheckStatus(est.ObserveBatch(in.raw), "ObserveBatch");
    out->CheckStatus(est.Flush(), "Flush");
    real.wall_s = WallSeconds() - t;
    real.proc_cpu_s = ProcessCpuSeconds() - proc0;
    for (double p : params) {
      real.reports.push_back(Traits::Query(est, p));
      Traits::CheckFull(real.reports.back(), p, ref, out);
    }
    auto bytes = Traits::Export(est);
    if (out->CheckStatus(bytes.status(), "export")) real.bytes = *bytes;
    real.device = est.device_stats();
    real.sim_s = est.SimulatedSeconds();
    const double t0 = WallSeconds();
    out->CheckStatus(est.Checkpoint(), "Checkpoint");
    real.checkpoint_s = WallSeconds() - t0;
    std::error_code ec;
    std::filesystem::remove_all(o.checkpoint_dir, ec);
    return real;
  };
  const Real real4 = run_real(kWorkers);
  const Real real1 = run_real(1);
  out->Check(real1.reports == real4.reports && real1.bytes == real4.bytes,
             "1-worker answers differ from 4-worker answers");

  Tracer tracer;
  const Replay<Traits> replay = RunReplay<Traits>(options, in.raw, &tracer, out);
  // The replay is only worth its numbers if it is the estimator's path: its
  // answers, export bytes and device counters must be bit-identical.
  bool same = true;
  for (std::size_t q = 0; q < params.size(); ++q) {
    same = same && Traits::Query(*replay.core, params[q]) == real4.reports[q];
  }
  core::Status export_status;
  const auto replay_bytes = Traits::Export(*replay.core, &export_status);
  out->CheckStatus(export_status, "replay export");
  out->Check(same && replay_bytes == real4.bytes && SameDevice(replay.device, real4.device),
             "layer replay is not bit-identical to the estimator");

  const Ledger ledger = FinishTrace(
      tracer, config.workdir + "/trace-" + w.name + "-" + std::to_string(config.seed) + ".jsonl",
      out);

  const auto acct = Traits::Account(*replay.core);
  const double drain_util = replay.drain_busy_s / replay.wall_s;
  const double sort_cpu_share = replay.sort_cpu_s / replay.proc_cpu_s;
  char line[256];
  std::snprintf(line, sizeof(line),
                "split: drain busy %.1f%% of ingest wall; sort %.1f%% of process CPU; "
                "1 worker %.3f s vs %d workers %.3f s",
                100 * drain_util, 100 * sort_cpu_share, real1.wall_s, kWorkers, real4.wall_s);
  out->Info(line);

  out->Add("stream.ingest_busy_s", "s", replay.ingest_cpu_s);
  out->Add("stream.ingest_stall_s", "s", replay.wall_s - replay.ingest_cpu_s);
  out->Add("pipeline.sort_queue_wait_s", "s", replay.stats.sort_queue_wait_seconds);
  out->Add("pipeline.drain_queue_wait_s", "s", replay.stats.drain_queue_wait_seconds);
  out->Add("pipeline.batches", "count", static_cast<double>(replay.stats.batches));
  out->Add("pipeline.scaling", "x", real1.wall_s / real4.wall_s);
  out->Add("pipeline.scaling_base_s", "s", real1.wall_s);
  out->Add("sort.busy_s", "s", replay.sort_busy_s);
  out->Add("sort.ns_per_key", "ns", 1e9 * replay.sort_busy_s / static_cast<double>(replay.keys));
  out->Add("sort.comparisons", "count", static_cast<double>(replay.comparisons));
  out->Add("sort.cpu_share", "ratio", sort_cpu_share);
  out->Add("gpu.blend_ops", "count", static_cast<double>(replay.device.blend_fragments));
  out->Add("gpu.bus_bytes", "B",
           static_cast<double>(replay.device.bytes_uploaded + replay.device.bytes_readback));
  out->Add("core.summarize_s", "s", acct.summarize_s);
  out->Add("sketch.merge_s", "s", acct.merge_s);
  out->Add("sketch.compress_s", "s", acct.compress_s);
  out->Add("sketch.merged_tuples", "count", static_cast<double>(acct.merged));
  out->Add("sketch.pruned_tuples", "count", static_cast<double>(acct.pruned));
  out->Add("sketch.summary_tuples", "count", static_cast<double>(replay.core->summary_size()));
  out->Add("drain.busy_s", "s", replay.drain_busy_s);
  out->Add("drain.util", "ratio", drain_util);
  out->Add("checkpoint_s", "s", real4.checkpoint_s);
  out->Add("proc.cpu_s", "s", real4.proc_cpu_s);
  out->Add("proc.cpu_util", "ratio", real4.proc_cpu_s / real4.wall_s);
  out->Add("hwmodel.sim2005_ms", "sim_ms", real4.sim_s * 1e3);
  out->Add("trace.overhead", "x", replay.wall_s / real4.wall_s);
  out->Add("trace.thread_gap", "ratio", ledger.max_gap());
}

Workload QuantileGk() {
  Workload w{"quantile_gk", std::size_t{4} << 20, stream::Distribution::kUniformReal, {}, 200};
  w.options.epsilon = 1e-3;
  w.options.backend = core::Backend::kAuto;
  w.options.quantile_sketch = sketch::QuantileSketchKind::kGk;
  w.options.num_sort_workers = kWorkers;
  return w;
}

Workload FrequencyPbsn() {
  Workload w{"frequency_pbsn", std::size_t{16} << 20, stream::Distribution::kNetworkFlows, {},
             2000};
  w.options.epsilon = 1e-4;
  w.options.backend = core::Backend::kGpuPbsn;
  w.options.num_sort_workers = kWorkers;
  return w;
}

}  // namespace

void RunQuantileGk(const RunConfig& config, Outcome* out) {
  if (config.trace) {
    RunTraced<QuantileTraits>(QuantileGk(), config, out);
  } else {
    RunUntraced<QuantileTraits>(QuantileGk(), config, out);
  }
}

void RunFrequencyPbsn(const RunConfig& config, Outcome* out) {
  if (config.trace) {
    RunTraced<FrequencyTraits>(FrequencyPbsn(), config, out);
  } else {
    RunUntraced<FrequencyTraits>(FrequencyPbsn(), config, out);
  }
}

}  // namespace bench

// service_mixed: one StreamService multiplexing 1000 streams of 16 tenants
// (tenants = 3 mod 4 on KLL, the rest on GK+EH) over the radix backend and 4
// pool workers. Ingest is round-robin 64-element Append()s; a second thread
// sends open-loop point Quantile() queries at a fixed rate while ingest
// runs. After FlushAll() come quiescent point queries, then Checkpoint()
// into a fresh directory and RestoreFrom() it, with every restored answer
// and export required to be byte-identical. This is the only workload
// through admission, shard batching and the ShardDispatcher, and the only
// one on KLL.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>

#include "bench.h"
#include "durable/checkpoint.h"
#include "obs/metrics.h"
#include "service/stream_service.h"
#include "sketch/exact.h"
#include "stream/generator.h"

namespace bench {

namespace {

namespace core = streamgpu::core;
namespace durable = streamgpu::durable;
namespace service = streamgpu::service;
namespace sketch = streamgpu::sketch;
namespace stream = streamgpu::stream;

constexpr std::size_t kStreams = 1000;
constexpr std::uint64_t kTenants = 16;
constexpr std::size_t kPerStream = 8192;
constexpr std::size_t kAppendElements = 64;
constexpr int kWorkers = 4;
constexpr double kLiveRateHz = 500;
constexpr std::size_t kQuiescentPerRound = 250;
constexpr int kMinRounds = 3;
/// Rounds go on past --seconds until this many live and quiescent answers
/// are pooled, enough for p99 (service.live_query_p99_us, query_p99_us).
constexpr std::size_t kMinLiveSamples = 1000;
constexpr std::size_t kMinQuerySamples = 1000;
constexpr int kMaxRounds = 200;
/// Each quiescent query is timed this many times back to back and its
/// fastest wall time kept, so a descheduled call does not count as latency.
constexpr int kQueryRepeats = 3;
/// phis every restored stream is compared at (plus its export bytes).
constexpr double kRestorePhis[] = {0.01, 0.5, 0.99};

service::ServiceConfig MakeConfig() {
  service::ServiceConfig config;
  config.backend = core::Backend::kCpuRadixMerge;
  config.num_workers = kWorkers;
  return config;
}

service::StreamConfig StreamConfigFor(const service::StreamKey& key) {
  service::StreamConfig config;
  config.epsilon = 1e-3;
  config.quantile_sketch = key.tenant % 4 == 3 ? sketch::QuantileSketchKind::kKll
                                               : sketch::QuantileSketchKind::kGk;
  return config;
}

struct Streams {
  std::vector<service::StreamKey> keys;
  std::vector<std::vector<float>> data;  ///< per stream; radix keeps float32 as is
};

Streams MakeStreams(std::uint64_t seed) {
  Streams s;
  for (std::size_t i = 0; i < kStreams; ++i) {
    s.keys.push_back({i % kTenants, i});
    stream::StreamGenerator::Config config;
    config.distribution = stream::Distribution::kNetworkFlows;
    config.seed = Mix(seed * kStreams + i);
    s.data.push_back(stream::StreamGenerator(config).Take(kPerStream));
  }
  return s;
}

/// One point answer, checked against sketch::ExactRankRange over the prefix
/// of the stream it covers. Only quiescent answers feed err_ratio: a live
/// answer over a single merged window has bound 1, which would pin the ratio
/// at 1 whatever the sketch does.
void CheckAnswer(const core::QuantileReport& r, double phi, const std::vector<float>& data,
                 bool quiescent, Outcome* out) {
  const std::uint64_t n = r.window_coverage;
  if (!out->Check(n <= data.size() && (!quiescent || n == data.size()),
                  "service answer coverage " + std::to_string(n))) {
    return;
  }
  if (n == 0) return;  // no window merged yet: nothing to rank
  const std::uint64_t err =
      RankError(sketch::ExactRankRange(std::span(data.data(), n), r.value), phi, n);
  if (quiescent) {
    out->ObserveError(static_cast<double>(err), static_cast<double>(r.rank_error_bound));
  }
  out->Check(err <= r.rank_error_bound, "service quantile rank error " + std::to_string(err) +
                                            " > bound " + std::to_string(r.rank_error_bound));
}

struct LiveAnswer {
  std::size_t stream;
  double phi;
  core::StatusOr<core::QuantileReport> report;
};

/// The open-loop query thread's results.
struct LiveLoad {
  std::vector<LiveAnswer> answers;
  std::vector<double> latency_s;  ///< completion minus due time
  double max_late_s = 0;          ///< how far behind schedule a query was sent
  double cpu_s = 0;
};

/// Sends point queries at kLiveRateHz from `start` until `done` is set.
void LiveQueries(const service::StreamService& svc, std::uint64_t seed, double start,
                 const std::atomic<bool>& done, Track* track, LiveLoad* load) {
  const double cpu0 = ThreadCpuSeconds();
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> pick(0, kStreams - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (std::uint64_t k = 0;; ++k) {
    const double due = start + static_cast<double>(k) / kLiveRateHz;
    {
      Scoped span(track, "query.wait");
      while (!done.load(std::memory_order_acquire) && WallSeconds() < due) {
        const double left = due - WallSeconds();
        if (left > 0) std::this_thread::sleep_for(std::chrono::duration<double>(left));
      }
    }
    if (done.load(std::memory_order_acquire)) break;
    load->max_late_s = std::max(load->max_late_s, WallSeconds() - due);
    const std::size_t s = pick(rng);
    const double phi = 1.0 - unit(rng);
    const service::StreamKey key{s % kTenants, s};
    Scoped span(track, "service.Quantile");
    load->answers.push_back({s, phi, svc.Quantile(key, phi)});
    load->latency_s.push_back(WallSeconds() - due);
  }
  load->cpu_s = ThreadCpuSeconds() - cpu0;
}

/// Creates and registers a service; returns null (after counting the
/// failure) when either step fails.
std::unique_ptr<service::StreamService> SetUp(const Streams& streams, Outcome* out) {
  auto created = service::StreamService::Create(MakeConfig());
  if (!out->CheckStatus(created.status(), "StreamService::Create")) return nullptr;
  std::unique_ptr<service::StreamService> svc = std::move(created).value();
  for (const auto& key : streams.keys) {
    if (!out->CheckStatus(svc->Register(key, StreamConfigFor(key)), "Register")) return nullptr;
  }
  return svc;
}

struct Round {
  std::unique_ptr<service::StreamService> svc;
  double setup_s = 0;  ///< one TimePerCall() sample
  double ingest_s = 0;
  double ingest_cpu_s = 0;
  double proc_cpu_s = 0;
  LiveLoad live;
};

/// One round: set-up, ingest with live queries, FlushAll. `ingest_track`
/// and `query_track` are null on untraced rounds.
Round RunRound(const Streams& streams, std::uint64_t seed, Track* ingest_track,
               Track* query_track, Outcome* out) {
  Round round;
  bool set_up = true;
  round.setup_s = TimePerCall([&] { return SetUp(streams, out); },
                              [&](const auto& svc) { set_up = set_up && svc != nullptr; });
  if (set_up) round.svc = SetUp(streams, out);
  if (round.svc == nullptr) return round;
  service::StreamService& svc = *round.svc;

  std::atomic<bool> done{false};
  const double cpu0 = ThreadCpuSeconds();
  const double proc0 = ProcessCpuSeconds();
  const double t = WallSeconds();
  std::thread query_thread(LiveQueries, std::cref(svc), seed, t, std::cref(done), query_track,
                           &round.live);
  std::uint64_t appends = 0;
  std::uint64_t failed = 0;
  for (std::size_t off = 0; off < kPerStream; off += kAppendElements) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      const std::span<const float> chunk(streams.data[s].data() + off, kAppendElements);
      Scoped span(ingest_track, "service.Append");
      const auto admitted = svc.Append(streams.keys[s], chunk);
      ++appends;
      if (!admitted.ok() || *admitted != kAppendElements) ++failed;
    }
  }
  core::Status flushed;
  {
    Scoped span(ingest_track, "service.FlushAll");
    flushed = svc.FlushAll();
  }
  round.ingest_s = WallSeconds() - t;
  round.ingest_cpu_s = ThreadCpuSeconds() - cpu0;
  done.store(true, std::memory_order_release);
  query_thread.join();
  round.proc_cpu_s = ProcessCpuSeconds() - proc0;
  out->Count(appends, failed, "Append");
  out->CheckStatus(flushed, "FlushAll");
  for (const LiveAnswer& a : round.live.answers) {
    if (out->CheckStatus(a.report.status(), "live Quantile")) {
      CheckAnswer(*a.report, a.phi, streams.data[a.stream], /*quiescent=*/false, out);
    }
  }
  return round;
}

struct Durable {
  std::vector<double> checkpoint_s, restore_s, commit_s, load_s;
  double snapshot_mb = 0;
};

/// Checkpoints the flushed service into a fresh directory and restores it;
/// every `stride`-th restored stream must answer and export byte-identically.
/// With a track, also times LoadLatestSnapshot() alone (durable.load_s).
void CheckpointAndRestore(service::StreamService& svc, const Streams& streams,
                          const std::string& dir, std::size_t stride, Track* track,
                          Durable* d, Outcome* out) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  streamgpu::obs::MetricsRegistry registry;
  durable::CheckpointWriter writer(dir);
  writer.SetObservability({&registry, nullptr, nullptr});
  double t = WallSeconds();
  core::Status status;
  {
    Scoped span(track, "service.Checkpoint");
    status = svc.Checkpoint(&writer);
  }
  d->checkpoint_s.push_back(WallSeconds() - t);
  if (!out->CheckStatus(status, "Checkpoint")) return;
  d->snapshot_mb = static_cast<double>(writer.last_snapshot_bytes()) / 1e6;
  for (const auto& summary : registry.Snapshot().summaries) {
    if (summary.name == "durable.checkpoint_seconds") d->commit_s.push_back(summary.sum);
  }
  if (track != nullptr) {
    Scoped span(track, "durable.LoadLatestSnapshot");
    t = WallSeconds();
    out->CheckStatus(durable::LoadLatestSnapshot(dir).status(), "LoadLatestSnapshot");
    d->load_s.push_back(WallSeconds() - t);
  }
  core::StatusOr<std::unique_ptr<service::StreamService>> restored =
      core::Status::Internal("not restored");
  t = WallSeconds();
  {
    Scoped span(track, "service.RestoreFrom");
    restored = service::StreamService::RestoreFrom(MakeConfig(), dir);
  }
  d->restore_s.push_back(WallSeconds() - t);
  if (out->CheckStatus(restored.status(), "RestoreFrom")) {
    const service::StreamService& again = **restored;
    // Both services answer every comparison: the original then the
    // restored one, each call in its own span.
    const auto query = [&](const service::StreamService& s, const service::StreamKey& key,
                           double phi) {
      Scoped span(track, "service.Quantile");
      return s.Quantile(key, phi);
    };
    const auto export_summary = [&](const service::StreamService& s,
                                    const service::StreamKey& key) {
      Scoped span(track, "service.ExportQuantileSummary");
      return s.ExportQuantileSummary(key);
    };
    std::uint64_t mismatched = 0;
    std::uint64_t checked = 0;
    for (std::size_t i = 0; i < streams.keys.size(); i += stride, ++checked) {
      const service::StreamKey& key = streams.keys[i];
      for (double phi : kRestorePhis) {
        const auto a = query(svc, key, phi);
        const auto b = query(again, key, phi);
        if (!a.ok() || !b.ok() || !(*a == *b)) ++mismatched;
      }
      const auto a = export_summary(svc, key);
      const auto b = export_summary(again, key);
      if (!a.ok() || !b.ok() || *a != *b) ++mismatched;
    }
    out->Count(checked, mismatched, "restored stream differs");
  }
  std::filesystem::remove_all(dir, ec);
}

}  // namespace

void RunServiceMixed(const RunConfig& config, Outcome* out) {
  const Streams streams = MakeStreams(config.seed);
  out->Info("backend: cpu-radix (fixed backend), " + std::to_string(kStreams) + " streams x " +
            std::to_string(kPerStream) + " elements, live queries at " +
            std::to_string(static_cast<int>(kLiveRateHz)) + "/s");
  const double rss_base = PeakRssMb();
  std::mt19937_64 rng(Mix(config.seed ^ 0x5eull));
  std::uniform_int_distribution<std::size_t> pick(0, kStreams - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  Tracer tracer;
  std::vector<double> setup_s, ingest_s, query_s, live_s;
  double max_late_s = 0;
  double first_round_rss_mb = 0;
  Durable d;
  Round last;
  // Each round: set-up, ingest with live queries, quiescent queries, then a
  // checkpoint/restore pair. The traced run adds one more round with spans
  // around every call.
  const auto round = [&](int r, bool traced) {
    last = Round{};  // the previous round's service is torn down before set-up
    last = RunRound(streams, Mix(config.seed * kMaxRounds + static_cast<std::uint64_t>(r)),
                    traced ? tracer.NewTrack("ingest") : nullptr,
                    traced ? tracer.NewTrack("query") : nullptr, out);
    if (last.svc == nullptr) return false;
    Track* main_track = traced ? tracer.NewTrack("main") : nullptr;
    setup_s.push_back(last.setup_s);
    live_s.insert(live_s.end(), last.live.latency_s.begin(), last.live.latency_s.end());
    max_late_s = std::max(max_late_s, last.live.max_late_s);
    for (std::size_t q = 0; q < kQuiescentPerRound; ++q) {
      const std::size_t s = pick(rng);
      const double phi = 1.0 - unit(rng);
      core::StatusOr<core::QuantileReport> report = core::Status::Internal("not queried");
      double fastest = INFINITY;
      for (int rep = 0; rep < kQueryRepeats; ++rep) {
        Scoped span(main_track, "service.Quantile");
        const double t = WallSeconds();
        core::StatusOr<core::QuantileReport> again = last.svc->Quantile(streams.keys[s], phi);
        fastest = std::min(fastest, WallSeconds() - t);
        if (rep == 0) {
          report = std::move(again);
        } else {
          out->Check(again.ok() && report.ok() && *again == *report,
                     "a repeated query answers differently");
        }
      }
      query_s.push_back(fastest);
      if (out->CheckStatus(report.status(), "Quantile")) {
        CheckAnswer(*report, phi, streams.data[s], /*quiescent=*/true, out);
      }
    }
    // A checkpoint/restore pair every other round (it costs several
    // ingests); every restored stream is compared after the first and the
    // traced round, a tenth of them after the others.
    if (r % 2 == 0 || traced) {
      const std::size_t stride = r == 0 || traced ? 1 : 10;
      CheckpointAndRestore(*last.svc, streams, config.workdir + "/ckpt-service", stride,
                           main_track, &d, out);
    }
    return true;
  };
  const double loop_start = WallSeconds();
  for (int r = 0; r < kMaxRounds &&
                  (r < kMinRounds || live_s.size() < kMinLiveSamples ||
                   query_s.size() < kMinQuerySamples || WallSeconds() - loop_start < config.seconds);
       ++r) {
    if (!round(r, false)) return;
    ingest_s.push_back(last.ingest_s);
    if (r == 0) first_round_rss_mb = PeakRssMb();
  }
  if (config.trace && !round(kMaxRounds, true)) return;
  service::StreamService& svc = *last.svc;

  const double n = static_cast<double>(kStreams * kPerStream);
  if (!config.trace) {
    std::vector<double> meps;
    for (double s : ingest_s) meps.push_back(n / s / 1e6);
    out->Add("ingest_meps", "Mel/s", Median(meps));
    out->Add("setup_s", "s", Median(setup_s));
    out->AddPercentile("query_p50_us", "us", query_s, 0.50, 1e6);
    out->AddPercentile("query_p99_us", "us", query_s, 0.99, 1e6);
    out->Add("restore_s", "s", Median(d.restore_s));
    out->Add("snapshot_mb", "MB", d.snapshot_mb);
    out->Add("peak_rss_mb", "MB", first_round_rss_mb - rss_base);
  } else {
    const Ledger ledger = FinishTrace(
        tracer, config.workdir + "/trace-service_mixed-" + std::to_string(config.seed) + ".jsonl",
        out);

    const service::ServiceStats stats = svc.stats();
    out->Check(stats.elements_shed == 0, "elements shed under kBlock");
    const double pool_cpu_s = last.proc_cpu_s - last.ingest_cpu_s - last.live.cpu_s;
    out->Add("stream.ingest_busy_s", "s", last.ingest_cpu_s);
    out->Add("stream.ingest_stall_s", "s", last.ingest_s - last.ingest_cpu_s);
    out->Add("service.batches_dispatched", "count",
             static_cast<double>(stats.batches_dispatched));
    out->Add("service.elements_per_batch", "count",
             static_cast<double>(stats.elements_observed) /
                 static_cast<double>(std::max<std::uint64_t>(stats.batches_dispatched, 1)));
    out->Add("service.windows_merged", "count", static_cast<double>(stats.windows_merged));
    out->Add("service.elements_shed", "count", static_cast<double>(stats.elements_shed));
    out->Add("service.pool_cpu_s", "s", pool_cpu_s);
    out->AddPercentile("service.live_query_p50_us", "us", live_s, 0.50, 1e6);
    out->AddPercentile("service.live_query_p99_us", "us", live_s, 0.99, 1e6);
    out->Add("service.live_query_max_late_ms", "ms", 1e3 * max_late_s);
    // The traced round's pair: the last entries (absent only after a
    // failure, which the run already counts).
    const auto last_of = [](const std::vector<double>& v) { return v.empty() ? 0.0 : v.back(); };
    const double load = last_of(d.load_s);
    out->Add("durable.load_s", "s", load);
    out->Add("durable.install_s", "s", last_of(d.restore_s) - load);
    out->Add("durable.commit_s", "s", last_of(d.commit_s));
    out->Add("checkpoint_s", "s", last_of(d.checkpoint_s));
    out->Add("proc.cpu_s", "s", last.proc_cpu_s);
    out->Add("proc.cpu_util", "ratio", last.proc_cpu_s / last.ingest_s);
    out->Add("trace.overhead", "x", last.ingest_s / Median(ingest_s));
    out->Add("trace.thread_gap", "ratio", ledger.max_gap());
  }
  out->Info("ingest s per round:" + FormatSeconds(ingest_s) +
            "; checkpoint s:" + FormatSeconds(d.checkpoint_s));
  out->Info("rounds: " + std::to_string(ingest_s.size()) + "; quiescent answers " +
            std::to_string(query_s.size()) + "; live answers " + std::to_string(live_s.size()) +
            ", generator at most " + std::to_string(max_late_s * 1e3) + " ms late");
}

}  // namespace bench

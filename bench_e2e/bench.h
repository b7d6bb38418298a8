// Shared declarations of the streamgpu end-to-end benchmark (bench_e2e/).
//
// The benchmark drives the public APIs only (core::QuantileEstimator,
// core::FrequencyEstimator, service::StreamService, the durable checkpoint
// protocol) and times calls into each layer from its own files; nothing in
// src/ is instrumented for it. README.md beside this file says why each
// workload exists.

#ifndef BENCH_E2E_BENCH_H_
#define BENCH_E2E_BENCH_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "sort/sorter.h"

namespace bench {

// ---------------------------------------------------------------- clocks

/// Monotonic wall clock, seconds since an arbitrary process-wide epoch.
double WallSeconds();
/// CPU time of the calling thread.
double ThreadCpuSeconds();
/// CPU time of the whole process (every thread).
double ProcessCpuSeconds();
/// Peak resident set size of the process so far, in MB (10^6 bytes).
double PeakRssMb();

/// Time the owning thread has spent runnable but waiting for a CPU (the
/// kernel's run-queue delay, /proc/thread-self/schedstat), in seconds. The
/// first Seconds() call binds it to the calling thread; later calls must
/// come from that thread. Reads 0 where the kernel does not report it.
class RunQueueClock {
 public:
  RunQueueClock() = default;
  RunQueueClock(const RunQueueClock&) = delete;
  RunQueueClock& operator=(const RunQueueClock&) = delete;
  ~RunQueueClock();
  double Seconds();

 private:
  int fd_ = -1;
  bool opened_ = false;
};

// ------------------------------------------------------------ statistics

/// A percentile is reported only when at least this many samples lie beyond
/// it, so a tail figure never rests on a handful of observations.
inline constexpr std::size_t kMinTailSamples = 10;

/// Nearest-rank p-quantile (p in (0, 1)) of `samples`. Refuses (nullopt)
/// when fewer than kMinTailSamples samples lie strictly above the selected
/// rank — e.g. p99 needs at least 1000 samples, p50 at least 20.
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Summed wall time one TimePerCall() sample reaches before it ends.
inline constexpr double kMinSampleS = 0.05;

/// One sample of a short call's time (a set-up, a small checkpoint): calls
/// `call` back to back until the calls add up to kMinSampleS (at least
/// once), hands each result to `check` and destroys it untimed, and returns
/// the fastest call's wall time. As with the quiescent queries, a call the
/// host descheduled or whose fsync it queued behind other tenants' I/O does
/// not count as the call's cost.
template <typename Call, typename Check>
double TimePerCall(Call&& call, Check&& check) {
  double total = 0;
  double fastest = std::numeric_limits<double>::infinity();
  do {
    const double t = WallSeconds();
    auto result = call();
    const double elapsed = WallSeconds() - t;
    fastest = std::min(fastest, elapsed);
    total += elapsed;
    check(result);
  } while (total < kMinSampleS);
  return fastest;
}

/// Median (nearest-rank p50 without the tail requirement); 0 when empty.
double Median(std::vector<double> samples);

/// " 0.123 0.456 ...": per-round timings for context lines.
std::string FormatSeconds(const std::vector<double>& seconds);

/// True for names of at most 64 characters drawn from [A-Za-z0-9_.-] that
/// start with a letter or digit — the names BENCHMARK.json may use.
bool ValidMetricName(std::string_view name);

/// Zero-based rank range [below, at_or_below - 1] of `value` in an
/// ascending `sorted` array: the binary-search equivalent of
/// sketch::ExactRankRange on the unsorted data (selftest.cc holds the two
/// equal).
std::pair<std::uint64_t, std::uint64_t> SortedRankRange(std::span<const float> sorted,
                                                        float value);

/// Distance of a phi-quantile answer from its target rank ceil(phi * n),
/// given the answer's zero-based rank range in the covered data: 0 when the
/// target lies inside [lo + 1, hi + 1].
std::uint64_t RankError(std::pair<std::uint64_t, std::uint64_t> range, double phi,
                        std::uint64_t n);

// --------------------------------------------------------------- results

/// Everything one run reports: counted operations with their failures,
/// named metrics, and human-readable context lines.
class Outcome {
 public:
  /// Counts one attempted operation; `ok == false` counts it as failed and
  /// logs `what` (the first few failures only) to stderr. Returns `ok`.
  bool Check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed (hot loops).
  void Count(std::uint64_t attempted, std::uint64_t failed, const std::string& what);
  /// Check() for a Status-returning call.
  bool CheckStatus(const streamgpu::core::Status& status, const std::string& what);

  void Add(const std::string& name, const std::string& unit, double value);
  /// Adds the p-percentile of `samples` times `scale`, or fails the run
  /// when the sample count cannot support that percentile.
  void AddPercentile(const std::string& name, const std::string& unit,
                     const std::vector<double>& samples, double p, double scale);
  void Info(const std::string& line);

  /// Folds a correctness observation into err_ratio (max observed error ÷
  /// stated bound over every checked answer).
  void ObserveError(double observed, double bound);
  double err_ratio() const { return err_ratio_; }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& info() const { return info_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  double err_ratio_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> info_;
};

/// One invocation: `--workload --seed --seconds --trace` plus the work
/// directory (inside the checkout) checkpoints are written to.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;
};

void RunQuantileGk(const RunConfig& config, Outcome* out);
void RunFrequencyPbsn(const RunConfig& config, Outcome* out);
void RunServiceMixed(const RunConfig& config, Outcome* out);

/// A metric BENCHMARK.json declares: its name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};
/// Printed by every untraced run (--trace 0).
extern const std::vector<MetricSpec> kEndToEndMetrics;
/// Printed by every traced run (--trace 1); 0 where a layer is not on the
/// workload's path (README.md maps each metric to its workload).
extern const std::vector<MetricSpec> kPerLayerMetrics;

/// The benchmark's own self-tests (selftest.cc). Returns the failure count
/// and prints each failure to stderr.
int RunSelfTests();

/// Host fingerprint recorded with every result: nproc, memcpy ns/byte from
/// the planner's calibration, compiler, and build type.
std::string HostFingerprint();

/// splitmix64: derives independent per-purpose seeds from the run seed.
std::uint64_t Mix(std::uint64_t x);

// ------------------------------------------------------- tracing/ledger

/// One timed call into a layer: name, [start, end] on WallSeconds(), the
/// enclosing span on the same thread (-1 at top level).
struct Span {
  const char* name = "";
  double start = 0;
  double end = 0;
  int parent = -1;
};

/// Spans of one thread. Only the owning thread writes to a track while it
/// runs; readers wait until it has stopped (joined or quiesced).
class Track {
 public:
  explicit Track(std::string name) : name_(std::move(name)) {}
  Track(const Track&) = delete;
  Track& operator=(const Track&) = delete;

  /// Opens a span nested inside the innermost open span.
  void Begin(const char* name);
  /// Closes the innermost open span.
  void End();
  /// Records a completed span (gaps between calls: queue waits) under
  /// `parent`, an index into spans() (-1: top level). Returns its index.
  int Add(const char* name, double start, double end, int parent = -1);

  const std::string& name() const { return name_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string name_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span on a track; a null track records nothing.
class Scoped {
 public:
  Scoped(Track* track, const char* name) : track_(track) {
    if (track_ != nullptr) track_->Begin(name);
  }
  ~Scoped() {
    if (track_ != nullptr) track_->End();
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Track* track_;
};

/// Owns every track of a traced run; keeps spans in memory until WriteJsonl.
/// Tracks are created on the main thread before the threads that fill them
/// start.
class Tracer {
 public:
  Track* NewTrack(const std::string& name);
  /// Writes one JSON object per span (thread, name, start, end, parent).
  bool WriteJsonl(const std::string& path) const;
  const std::vector<std::unique_ptr<Track>>& tracks() const { return tracks_; }

 private:
  std::vector<std::unique_ptr<Track>> tracks_;
};

/// Self-time ledger over a set of tracks. A span's self time is its
/// duration minus the time its direct children cover; a thread's wall time
/// runs from its first span's start to its last span's end. Time no span
/// covers is the thread's gap: no span encloses a loop of calls, so
/// bookkeeping between calls, benchmark overhead and handoffs between
/// threads all show there.
struct Ledger {
  struct Row {
    std::string thread;
    std::string span;
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  struct Thread {
    std::string thread;
    double wall_s = 0;
    double self_sum_s = 0;
    /// |self_sum - wall| / wall: how far the spans are from accounting for
    /// the thread's time (uncovered gaps, or overlap).
    double gap() const;
  };
  std::vector<Row> rows;        ///< per (thread, span name)
  std::vector<Thread> threads;  ///< per track
  double max_gap() const;
};

Ledger ComputeLedger(const std::vector<const Track*>& tracks);

inline constexpr double kMaxThreadGap = 0.05;

/// Ends a traced run: computes the ledger over every track, adds its table
/// to `out`, fails the run when a thread's spans miss its wall time by more
/// than kMaxThreadGap, and writes the spans to `path`.
Ledger FinishTrace(const Tracer& tracer, const std::string& path, Outcome* out);

/// One call on a pipeline thread: the batch buffer it was handed (the
/// batch's identity: a buffer is reissued only after its batch drained),
/// when it ran, and the run-queue delay (RunQueueClock) the thread had
/// accrued since its previous call ended.
struct BatchCall {
  const float* data = nullptr;
  double start = 0;
  double end = 0;
  double runqueue_s = 0;
};

/// Benchmark-side timing decorator for one pipeline sort worker: records a
/// sort span and a BatchCall per call, and the worker's busy wall, thread
/// CPU, keys and comparisons. Delegates wholesale to the wrapped sorter,
/// like core::TracingSorter.
/// Adds a `name` span per call of one pipeline thread for the time it waited
/// for that call's batch: from the end of its previous call (the first from
/// `since`) until the batch became available (`available[i]`, never past the
/// call's start). Availability comes from another thread's events — the
/// Submit() that enqueued the batch, the sort that finished it. Of the rest
/// of each gap, the call's run-queue delay is added as a
/// "sched.runqueue_wait" span just before the call; what remains, the
/// pipeline's handoff, stays uncovered and counts against the thread's gap.
void AddMeasuredWaits(Track* track, const char* name, double since,
                      const std::vector<BatchCall>& calls,
                      const std::vector<double>& available);

class TimedSorter : public streamgpu::sort::Sorter {
 public:
  /// `inner` is borrowed; `track` belongs to the worker thread that will
  /// drive this sorter.
  TimedSorter(streamgpu::sort::Sorter* inner, Track* track) : inner_(inner), track_(track) {}

  void Sort(std::span<float> data) override;
  void SortRuns(std::span<std::span<float>> runs) override;
  const streamgpu::sort::SortRunInfo& last_run() const override {
    return inner_->last_run();
  }
  std::uint64_t last_quarantine_mask() const override {
    return inner_->last_quarantine_mask();
  }
  const char* name() const override { return inner_->name(); }

  double busy_s() const { return busy_s_; }
  double cpu_s() const { return cpu_s_; }
  const std::vector<BatchCall>& calls() const { return calls_; }
  std::uint64_t keys() const { return keys_; }
  std::uint64_t comparisons() const { return comparisons_; }

 protected:
  /// Never used: both entry points delegate to the wrapped sorter.
  void set_last_run(const streamgpu::sort::SortRunInfo&) override {}

 private:
  template <typename Fn>
  void Timed(Fn&& sort, const float* data, std::uint64_t keys);

  streamgpu::sort::Sorter* inner_;
  Track* track_;
  RunQueueClock runqueue_;
  double runqueue_last_ = 0;
  std::vector<BatchCall> calls_;
  double busy_s_ = 0;
  double cpu_s_ = 0;
  std::uint64_t keys_ = 0;
  std::uint64_t comparisons_ = 0;
};

}  // namespace bench

#endif  // BENCH_E2E_BENCH_H_

// Clocks, percentile selection, result accounting and the host fingerprint.

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>

#include "bench.h"
#include "hwmodel/calibration.h"

namespace bench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// Failures past this many are counted but not logged.
constexpr std::uint64_t kLoggedFailures = 20;

}  // namespace

double WallSeconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

RunQueueClock::~RunQueueClock() {
  if (fd_ >= 0) close(fd_);
}

double RunQueueClock::Seconds() {
  if (!opened_) {
    opened_ = true;
    fd_ = open("/proc/thread-self/schedstat", O_RDONLY | O_CLOEXEC);
  }
  if (fd_ < 0) return 0;
  // "<on-cpu ns> <run-queue ns> <timeslices>"
  char buf[96];
  const ssize_t n = pread(fd_, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return 0;
  buf[n] = '\0';
  char* end = nullptr;
  std::strtoull(buf, &end, 10);
  return 1e-9 * static_cast<double>(std::strtoull(end, nullptr, 10));
}

std::optional<double> Percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0 && p < 1.0)) return std::nullopt;
  const std::size_t n = samples.size();
  // Nearest rank: the smallest sample with at least p * n samples at or
  // below it (1-based rank ceil(p * n)).
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  const std::size_t index = std::max<std::size_t>(rank, 1) - 1;
  if (n - 1 - index < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const std::size_t index = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

std::string FormatSeconds(const std::vector<double>& seconds) {
  std::string out;
  char buf[32];
  for (double s : seconds) {
    std::snprintf(buf, sizeof(buf), " %.3f", s);
    out += buf;
  }
  return out;
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::pair<std::uint64_t, std::uint64_t> SortedRankRange(std::span<const float> sorted,
                                                        float value) {
  const auto below = static_cast<std::uint64_t>(
      std::lower_bound(sorted.begin(), sorted.end(), value) - sorted.begin());
  const auto at_or_below = static_cast<std::uint64_t>(
      std::upper_bound(sorted.begin(), sorted.end(), value) - sorted.begin());
  return {below, at_or_below == 0 ? 0 : at_or_below - 1};
}

std::uint64_t RankError(std::pair<std::uint64_t, std::uint64_t> range, double phi,
                        std::uint64_t n) {
  const auto target =
      static_cast<std::uint64_t>(std::ceil(phi * static_cast<double>(n)));
  const std::uint64_t lo = range.first + 1;
  const std::uint64_t hi = range.second + 1;
  if (target < lo) return lo - target;
  if (target > hi) return target - hi;
  return 0;
}

bool Outcome::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= kLoggedFailures) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Outcome::Count(std::uint64_t attempted, std::uint64_t failed, const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "FAILED: %s (%llu of %llu)\n", what.c_str(),
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
  }
}

bool Outcome::CheckStatus(const streamgpu::core::Status& status, const std::string& what) {
  return Check(status.ok(), status.ok() ? what : what + ": " + status.ToString());
}

void Outcome::Add(const std::string& name, const std::string& unit, double value) {
  metrics_.push_back({name, unit, value});
}

void Outcome::AddPercentile(const std::string& name, const std::string& unit,
                            const std::vector<double>& samples, double p, double scale) {
  const std::optional<double> value = Percentile(samples, p);
  if (!Check(value.has_value(), name + ": " + std::to_string(samples.size()) +
                                    " samples cannot support p" +
                                    std::to_string(static_cast<int>(p * 100)))) {
    return;
  }
  Add(name, unit, *value * scale);
  Info(name + " from " + std::to_string(samples.size()) + " samples");
}

void Outcome::Info(const std::string& line) { info_.push_back(line); }

void Outcome::ObserveError(double observed, double bound) {
  // A zero bound admits only exact answers; they add nothing to the ratio.
  const double ratio = bound > 0 ? observed / bound : (observed > 0 ? INFINITY : 0.0);
  err_ratio_ = std::max(err_ratio_, ratio);
}

std::string HostFingerprint() {
#if defined(__clang__)
  constexpr const char* kCompiler = "clang";
#else
  constexpr const char* kCompiler = "gcc";
#endif
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "nproc=%u memcpy_ns_per_byte=%.4f compiler=\"%s %s\" build=%s",
                std::thread::hardware_concurrency(),
                streamgpu::hwmodel::CachedMemcpyNsPerByte(), kCompiler, __VERSION__,
                BENCH_E2E_BUILD_TYPE);
  return buf;
}

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace bench

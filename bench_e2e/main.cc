// streamgpu end-to-end benchmark program.
//
//   bench_e2e --workload quantile_gk|frequency_pbsn|service_mixed
//             --seed N --seconds T --trace 0|1 [--workdir DIR]
//
// Runs the benchmark's self-tests, then one workload, and prints every
// metric with its unit, the host fingerprint, and (traced) the per-layer
// ledger. The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 only when every operation succeeded and every answer was
// within its stated bound.

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "bench.h"

namespace bench {

const std::vector<MetricSpec> kEndToEndMetrics = {
    {"ingest_meps", "Mel/s"}, {"setup_s", "s"},     {"query_p50_us", "us"},
    {"query_p99_us", "us"},   {"restore_s", "s"},   {"snapshot_mb", "MB"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayerMetrics = {
    {"stream.ingest_busy_s", "s"},
    {"stream.ingest_stall_s", "s"},
    {"pipeline.sort_queue_wait_s", "s"},
    {"pipeline.drain_queue_wait_s", "s"},
    {"pipeline.batches", "count"},
    {"pipeline.scaling", "x"},
    {"pipeline.scaling_base_s", "s"},
    {"sort.busy_s", "s"},
    {"sort.ns_per_key", "ns"},
    {"sort.comparisons", "count"},
    {"sort.cpu_share", "ratio"},
    {"gpu.blend_ops", "count"},
    {"gpu.bus_bytes", "B"},
    {"core.summarize_s", "s"},
    {"sketch.merge_s", "s"},
    {"sketch.compress_s", "s"},
    {"sketch.merged_tuples", "count"},
    {"sketch.pruned_tuples", "count"},
    {"sketch.summary_tuples", "count"},
    {"drain.busy_s", "s"},
    {"drain.util", "ratio"},
    {"checkpoint_s", "s"},
    {"proc.cpu_s", "s"},
    {"proc.cpu_util", "ratio"},
    {"hwmodel.sim2005_ms", "sim_ms"},
    {"trace.overhead", "x"},
    {"trace.thread_gap", "ratio"},
    {"err_ratio", "ratio"},
};

namespace {

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: bench_e2e --workload quantile_gk|frequency_pbsn|"
               "service_mixed --seed N --seconds T --trace 0|1 [--workdir DIR]\n",
               message);
  std::exit(2);
}

std::uint64_t ParseUnsigned(const char* text, const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    Usage((std::string("bad value for ") + flag).c_str());
  }
  return value;
}

RunConfig ParseArgs(int argc, char** argv) {
  RunConfig config;
  config.workdir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = ParseUnsigned(value, "--seed");
    } else if (flag == "--seconds") {
      config.seconds = static_cast<double>(ParseUnsigned(value, "--seconds"));
      if (config.seconds < 1) Usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      const std::uint64_t trace = ParseUnsigned(value, "--trace");
      if (trace > 1) Usage("--trace must be 0 or 1");
      config.trace = trace == 1;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  return config;
}

/// Prints the JSON result line: exactly `specs`, in order.
void PrintResult(const Outcome& out, const std::map<std::string, Outcome::Metric>& metrics,
                 const std::vector<MetricSpec>& specs) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              out.failed() == 0 ? "true" : "false", out.attempted(), out.failed());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Outcome::Metric& m = metrics.at(specs[i].name);
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

}  // namespace bench

int main(int argc, char** argv) {
  using namespace bench;
  const RunConfig config = ParseArgs(argc, argv);
  // The self-tests are cheap; a benchmark whose own arithmetic is wrong
  // must not publish numbers.
  if (const int failures = RunSelfTests(); failures != 0) {
    std::fprintf(stderr, "error: %d benchmark self-test failure(s)\n", failures);
    return 3;
  }
  std::error_code ec;
  std::filesystem::create_directories(config.workdir, ec);

  Outcome out;
  if (config.workload == "quantile_gk") {
    RunQuantileGk(config, &out);
  } else if (config.workload == "frequency_pbsn") {
    RunFrequencyPbsn(config, &out);
  } else if (config.workload == "service_mixed") {
    RunServiceMixed(config, &out);
  } else {
    Usage(("unknown workload " + config.workload).c_str());
  }
  if (config.trace) out.Add("err_ratio", "ratio", out.err_ratio());

  const std::vector<MetricSpec>& specs = config.trace ? kPerLayerMetrics : kEndToEndMetrics;
  std::map<std::string, Outcome::Metric> metrics;
  for (const Outcome::Metric& m : out.metrics()) metrics[m.name] = m;
  for (const MetricSpec& spec : specs) {
    auto it = metrics.find(spec.name);
    if (it == metrics.end()) {
      // Untraced runs must measure every end-to-end metric; a layer that is
      // not on this workload's path reads 0 in the traced run.
      out.Check(config.trace, std::string("metric not measured: ") + spec.name);
      metrics[spec.name] = {spec.name, spec.unit, 0.0};
    } else {
      out.Check(it->second.unit == spec.unit && std::isfinite(it->second.value),
                std::string("metric ") + spec.name + " has a bad unit or value");
    }
  }

  std::printf("workload %s seed %" PRIu64 " seconds %.0f trace %d\n", config.workload.c_str(),
              config.seed, config.seconds, config.trace ? 1 : 0);
  std::printf("host: %s\n", HostFingerprint().c_str());
  for (const std::string& line : out.info()) std::printf("%s\n", line.c_str());
  for (const MetricSpec& spec : specs) {
    const Outcome::Metric& m = metrics.at(spec.name);
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  // Layers only service_mixed reaches (service.*, durable.*): measured and
  // printed, but not in BENCHMARK.json, which leaves that workload ungated.
  for (const Outcome::Metric& m : out.metrics()) {
    const bool declared = std::any_of(specs.begin(), specs.end(),
                                      [&](const MetricSpec& spec) { return m.name == spec.name; });
    if (!declared) {
      std::printf("  %-34s %16.6f %s (not gated)\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  if (!config.trace) {
    std::printf("  %-34s %16.6f ratio (max observed error / stated bound, every answer)\n",
                "err_ratio", out.err_ratio());
  }
  std::printf("  %-34s %16.6f ratio (%" PRIu64 " of %" PRIu64 " operations failed)\n",
              "fail_ratio",
              static_cast<double>(out.failed()) /
                  static_cast<double>(std::max<std::uint64_t>(out.attempted(), 1)),
              out.failed(), out.attempted());
  PrintResult(out, metrics, specs);
  return out.failed() == 0 ? 0 : 1;
}

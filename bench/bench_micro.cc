// Microbenchmarks (google-benchmark) of the building blocks: simulator
// rasterization throughput, half conversion, histogram construction, summary
// merges and prunes, the GK+EH cascade, and the CPU sorts. These measure the
// *simulator's host performance* (useful when tuning the simulator itself),
// not simulated 2005-hardware time.

#include <algorithm>
#include <random>
#include <vector>

#include <benchmark/benchmark.h>

#include "gpu/device.h"
#include "gpu/half.h"
#include "hwmodel/hardware_profiles.h"
#include "sketch/exponential_histogram.h"
#include "sketch/gk_summary.h"
#include "sketch/histogram.h"
#include "sketch/lossy_counting.h"
#include "sort/cpu_sort.h"
#include "sort/merge.h"
#include "sort/pbsn_network.h"

namespace {

using namespace streamgpu;

std::vector<float> RandomData(std::size_t n, int domain = 0) {
  std::mt19937 rng(5);
  std::vector<float> v(n);
  if (domain > 0) {
    std::uniform_int_distribution<int> d(0, domain - 1);
    for (float& x : v) x = static_cast<float>(d(rng));
  } else {
    std::uniform_real_distribution<float> d(0.0f, 1e4f);
    for (float& x : v) x = d(rng);
  }
  return v;
}

void BM_HalfRoundTrip(benchmark::State& state) {
  const auto data = RandomData(4096);
  for (auto _ : state) {
    for (float v : data) benchmark::DoNotOptimize(gpu::QuantizeToHalf(v));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HalfRoundTrip);

void BM_RasterizerCopyPass(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  gpu::GpuDevice device;
  const auto tex = device.CreateTexture(side, side, gpu::Format::kFloat32);
  device.BindFramebuffer(side, side, gpu::Format::kFloat32);
  device.SetBlend(gpu::BlendOp::kReplace);
  for (auto _ : state) {
    device.DrawQuad(tex, gpu::Quad::Identity(0, 0, static_cast<float>(side),
                                             static_cast<float>(side)));
  }
  state.SetItemsProcessed(state.iterations() * side * side);
}
BENCHMARK(BM_RasterizerCopyPass)->Arg(128)->Arg(512)->Arg(1024);

void BM_RasterizerBlendPass(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  gpu::GpuDevice device;
  const auto tex = device.CreateTexture(side, side, gpu::Format::kFloat32);
  device.BindFramebuffer(side, side, gpu::Format::kFloat32);
  device.SetBlend(gpu::BlendOp::kMin);
  // Mirrored mapping, as a PBSN step issues.
  const auto quad = gpu::Quad::Make(0, 0, static_cast<float>(side),
                                    static_cast<float>(side), static_cast<float>(side),
                                    0, 0, 0, 0, static_cast<float>(side),
                                    static_cast<float>(side), static_cast<float>(side));
  for (auto _ : state) device.DrawQuad(tex, quad);
  state.SetItemsProcessed(state.iterations() * side * side);
}
BENCHMARK(BM_RasterizerBlendPass)->Arg(128)->Arg(512)->Arg(1024);

void BM_PbsnNetworkCpu(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = RandomData(n);
  for (auto _ : state) {
    auto copy = data;
    sort::PbsnSortCpu(copy);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PbsnNetworkCpu)->Arg(1024)->Arg(16384);

void BM_QuicksortInstrumented(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto data = RandomData(n);
  for (auto _ : state) {
    auto copy = data;
    sort::CpuSortCounters counters;
    sort::QuicksortInstrumented(copy, &counters);
    benchmark::DoNotOptimize(counters.comparisons);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_QuicksortInstrumented)->Arg(16384)->Arg(262144);

void BM_FourWayMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::array<std::vector<float>, 4> runs;
  for (auto& r : runs) {
    r = RandomData(n / 4);
    std::sort(r.begin(), r.end());
  }
  std::vector<float> out(runs[0].size() * 4);
  const std::array<std::span<const float>, 4> views{runs[0], runs[1], runs[2], runs[3]};
  for (auto _ : state) {
    sort::FourWayMerge(views, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FourWayMerge)->Arg(65536)->Arg(1048576);

void BM_BuildHistogram(benchmark::State& state) {
  auto data = RandomData(static_cast<std::size_t>(state.range(0)), 2000);
  std::sort(data.begin(), data.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch::BuildHistogram(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildHistogram)->Arg(4096)->Arg(65536);

void BM_LossyCountingWindow(benchmark::State& state) {
  const double epsilon = 1.0 / static_cast<double>(state.range(0));
  auto window = RandomData(static_cast<std::size_t>(state.range(0)), 2000);
  std::sort(window.begin(), window.end());
  const auto hist = sketch::BuildHistogram(window);
  for (auto _ : state) {
    sketch::LossyCounting lc(epsilon);
    lc.AddWindowHistogram(hist, window.size());
    benchmark::DoNotOptimize(lc.summary_size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LossyCountingWindow)->Arg(1024)->Arg(16384);

void BM_GkMerge(benchmark::State& state) {
  auto a = RandomData(static_cast<std::size_t>(state.range(0)));
  auto b = RandomData(static_cast<std::size_t>(state.range(0)));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const auto sa = sketch::GkSummary::FromSorted(a, 0.01);
  const auto sb = sketch::GkSummary::FromSorted(b, 0.01);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sketch::GkSummary::Merge(sa, sb).size());
  }
  state.SetItemsProcessed(state.iterations() * (sa.size() + sb.size()));
}
BENCHMARK(BM_GkMerge)->Arg(16384)->Arg(262144);

// One combine's compress at the production GK+EH shape: two merged
// 35000-tuple buckets pruned back to ceil(35/epsilon) = 35000 tuples.
void BM_GkPrune(benchmark::State& state) {
  constexpr std::size_t kBucket = 35000;
  auto a = RandomData(kBucket);
  auto b = RandomData(kBucket, 20000);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const auto merged = sketch::GkSummary::Merge(sketch::GkSummary::FromSorted(a, 1e-6),
                                               sketch::GkSummary::FromSorted(b, 1e-6));
  for (auto _ : state) {
    benchmark::DoNotOptimize(merged.Prune(kBucket).size());
  }
  state.SetItemsProcessed(state.iterations() * merged.size());
}
BENCHMARK(BM_GkPrune);

// The whole-history cascade at the production shape (epsilon 1e-3,
// 1000-element windows, default expected length of 2^32 windows): the
// ordered drain's merge + compress work for range(0) windows.
void BM_EhCascade(benchmark::State& state) {
  constexpr std::uint64_t kWindow = 1000;
  constexpr double kEpsilon = 1e-3;
  const auto windows = static_cast<std::size_t>(state.range(0));
  const auto data = RandomData(windows * kWindow);
  std::vector<sketch::GkSummary> summaries;
  for (std::size_t w = 0; w < windows; ++w) {
    std::vector<float> window(data.begin() + w * kWindow,
                              data.begin() + (w + 1) * kWindow);
    std::sort(window.begin(), window.end());
    summaries.push_back(sketch::GkSummary::FromSorted(window, kEpsilon / 2.0));
  }
  for (auto _ : state) {
    sketch::EhQuantileSummary eh(kEpsilon, kWindow, kWindow << 32);
    for (const auto& summary : summaries) eh.AddWindowSummary(summary);
    benchmark::DoNotOptimize(eh.TotalTuples());
  }
  state.SetItemsProcessed(state.iterations() * windows * kWindow);
}
BENCHMARK(BM_EhCascade)->Arg(1024)->Unit(benchmark::kMillisecond);

// The worker stage of the exact-run path: range(0) sorted 1000-element
// windows of uniform floats merged in cascade order into one float run and
// sampled at the production prune's ranks (35,000-tuple budget), the work it
// takes off the drain. /32 is the cascade's unpruned levels 2..6, which
// sampling leaves whole; /64, the production batch, adds level 7's merge
// and its prune.
void BM_ExactRunMerge(benchmark::State& state) {
  constexpr std::size_t kWindow = 1000;
  const auto windows = static_cast<std::size_t>(state.range(0));
  auto data = RandomData(windows * kWindow);
  for (std::size_t off = 0; off < data.size(); off += kWindow) {
    std::sort(data.begin() + off, data.begin() + off + kWindow);
  }
  std::vector<float> run;
  for (auto _ : state) {
    sketch::GkSummary::MergeWindowsInCascadeOrder(data, kWindow, &run);
    sketch::GkSummary::PruneExactRun(35000, &run);
    benchmark::DoNotOptimize(run.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_ExactRunMerge)->Arg(32)->Arg(64)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();

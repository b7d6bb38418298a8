// Self-tests of the benchmark's own arithmetic: percentile selection, metric
// names, the self-time ledger, and the rank reference the correctness gate
// uses. Run before every benchmark invocation.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <random>
#include <set>

#include "bench.h"
#include "sketch/exact.h"

namespace bench {

namespace {

namespace sketch = streamgpu::sketch;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Iota(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937_64(7));
  return v;
}

void TestPercentile() {
  Expect(!Percentile(Iota(999), 0.99).has_value(), "p99 of 999 samples is refused");
  Expect(Percentile(Iota(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  Expect(!Percentile(Iota(19), 0.50).has_value(), "p50 of 19 samples is refused");
  Expect(Percentile(Iota(20), 0.50) == 10.0, "p50 of 1..20 is 10");
  Expect(!Percentile(Iota(100), 0.95).has_value(), "p95 of 100 samples is refused");
  Expect(Percentile(Iota(200), 0.95) == 190.0, "p95 of 1..200 is 190");
  Expect(!Percentile({}, 0.5).has_value(), "empty samples are refused");
  Expect(!Percentile(Iota(100), 1.0).has_value(), "p100 is refused");
  Expect(Median(Iota(5)) == 3.0 && Median(Iota(4)) == 2.0, "median");
}

void TestMetricNames() {
  Expect(ValidMetricName("sort.ns_per_key") && ValidMetricName("ingest_meps") &&
             ValidMetricName("a-b.c_9"),
         "valid metric names accepted");
  Expect(!ValidMetricName("") && !ValidMetricName("_x") && !ValidMetricName(".x") &&
             !ValidMetricName("a b") && !ValidMetricName("a/b") &&
             !ValidMetricName(std::string(65, 'a')),
         "invalid metric names refused");
  std::set<std::string> seen;
  for (const auto* table : {&kEndToEndMetrics, &kPerLayerMetrics}) {
    for (const MetricSpec& spec : *table) {
      Expect(ValidMetricName(spec.name), spec.name);
      Expect(seen.insert(spec.name).second, "metric names are unique");
    }
  }
}

void TestLedger() {
  // Thread A: X[0,10] holds Y[1,3] and Z[4,8]; Z holds W[5,6]; V[10,12].
  Track a("a");
  const int x = a.Add("x", 0, 10);
  a.Add("y", 1, 3, x);
  const int z = a.Add("z", 4, 8, x);
  a.Add("w", 5, 6, z);
  a.Add("v", 10, 12);
  // Thread B: two calls with a one-second uncovered gap.
  Track b("b");
  b.Add("x", 0, 4);
  b.Add("x", 5, 10);
  const Ledger ledger = ComputeLedger({&a, &b});
  double x_self = -1, z_self = -1, bx_self = -1;
  std::uint64_t bx_count = 0;
  for (const Ledger::Row& row : ledger.rows) {
    if (row.thread == "a" && row.span == "x") x_self = row.self_s;
    if (row.thread == "a" && row.span == "z") z_self = row.self_s;
    if (row.thread == "b" && row.span == "x") {
      bx_self = row.self_s;
      bx_count = row.count;
    }
  }
  Expect(Near(x_self, 4) && Near(z_self, 3), "self time subtracts direct children only");
  Expect(Near(bx_self, 9) && bx_count == 2, "rows sum calls per (thread, span)");
  Expect(ledger.threads.size() == 2 && Near(ledger.threads[0].wall_s, 12) &&
             Near(ledger.threads[0].self_sum_s, 12) && Near(ledger.threads[0].gap(), 0),
         "nested self times sum to the thread's wall");
  Expect(Near(ledger.threads[1].wall_s, 10) && Near(ledger.threads[1].gap(), 0.1) &&
             Near(ledger.max_gap(), 0.1),
         "an uncovered gap shows as the thread's gap");
}

void TestMeasuredWaits() {
  // Calls at [5,6] and [6.5,8]; their batches were available at 3 and 7.
  // The first call waited 0..3 (3..5 is handoff), the second 6..6.5: its
  // batch was late, so the wait ends at the call's start.
  Track t("t");
  AddMeasuredWaits(&t, "wait", 0, {{nullptr, 5, 6}, {nullptr, 6.5, 8}}, {3, 7});
  Expect(t.spans().size() == 2 && Near(t.spans()[0].start, 0) && Near(t.spans()[0].end, 3) &&
             Near(t.spans()[1].start, 6) && Near(t.spans()[1].end, 6.5),
         "a wait runs from the previous call to the batch's availability");
  // A batch available before the previous call ended adds no wait.
  Track u("u");
  AddMeasuredWaits(&u, "wait", 0, {{nullptr, 1, 4}, {nullptr, 4.1, 5}}, {0, 2});
  Expect(u.spans().empty(), "no wait when the batch was already queued");
}

void TestRankReference() {
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<int> value(0, 40);
  std::vector<float> data(500);
  for (float& v : data) v = static_cast<float>(value(rng)) * 0.5f;
  std::vector<float> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  bool same = true;
  for (float probe = -1.0f; probe <= 21.0f; probe += 0.25f) {
    same = same && SortedRankRange(sorted, probe) == sketch::ExactRankRange(data, probe);
  }
  Expect(same, "SortedRankRange equals sketch::ExactRankRange");
  // Ranks 1-based: data {1,2,2,3}; value 2 occupies ranks 2..3.
  const std::vector<float> tiny = {1, 2, 2, 3};
  const auto range = SortedRankRange(tiny, 2.0f);
  Expect(RankError(range, 0.5, 4) == 0 && RankError(range, 0.75, 4) == 0,
         "a target inside the rank range has no error");
  Expect(RankError(range, 1.0, 4) == 1 && RankError(range, 0.25, 4) == 1,
         "rank error is the distance to the range");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  TestPercentile();
  TestMetricNames();
  TestLedger();
  TestMeasuredWaits();
  TestRankReference();
  return failures;
}

}  // namespace bench

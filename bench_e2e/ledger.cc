// In-memory span tracks, the self-time ledger, and the timing sort
// decorator used by the traced layer replay.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>

#include "bench.h"

namespace bench {

void Track::Begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, WallSeconds(), 0, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
}

void Track::End() {
  spans_[static_cast<std::size_t>(open_.back())].end = WallSeconds();
  open_.pop_back();
}

int Track::Add(const char* name, double start, double end, int parent) {
  spans_.push_back({name, start, end, parent});
  return static_cast<int>(spans_.size()) - 1;
}

Track* Tracer::NewTrack(const std::string& name) {
  tracks_.push_back(std::make_unique<Track>(name));
  return tracks_.back().get();
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& track : tracks_) {
    for (const Span& span : track->spans()) {
      std::fprintf(f,
                   "{\"thread\":\"%s\",\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                   "\"parent\":%d}\n",
                   track->name().c_str(), span.name, span.start, span.end, span.parent);
    }
  }
  return std::fclose(f) == 0;
}

double Ledger::Thread::gap() const {
  return wall_s > 0 ? std::fabs(self_sum_s - wall_s) / wall_s : 0.0;
}

double Ledger::max_gap() const {
  double gap = 0;
  for (const Thread& thread : threads) gap = std::max(gap, thread.gap());
  return gap;
}

Ledger ComputeLedger(const std::vector<const Track*>& tracks) {
  Ledger ledger;
  for (const Track* track : tracks) {
    const std::vector<Span>& spans = track->spans();
    if (spans.empty()) continue;
    std::vector<double> child_time(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        child_time[static_cast<std::size_t>(span.parent)] += span.end - span.start;
      }
    }
    std::map<std::string, Ledger::Row> rows;
    Ledger::Thread thread{track->name(), 0, 0};
    double first = spans.front().start;
    double last = spans.front().end;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const double self = (span.end - span.start) - child_time[i];
      Ledger::Row& row = rows[span.name];
      row.thread = track->name();
      row.span = span.name;
      ++row.count;
      row.total_s += span.end - span.start;
      row.self_s += self;
      thread.self_sum_s += self;
      first = std::min(first, span.start);
      last = std::max(last, span.end);
    }
    thread.wall_s = last - first;
    ledger.threads.push_back(thread);
    for (auto& [name, row] : rows) ledger.rows.push_back(std::move(row));
  }
  return ledger;
}

Ledger FinishTrace(const Tracer& tracer, const std::string& path, Outcome* out) {
  std::vector<const Track*> tracks;
  for (const auto& track : tracer.tracks()) tracks.push_back(track.get());
  const Ledger ledger = ComputeLedger(tracks);
  char line[256];
  out->Info("ledger: thread / span / calls / total s / self s");
  for (const Ledger::Row& row : ledger.rows) {
    std::snprintf(line, sizeof(line), "  %-10s %-34s %9" PRIu64 " %10.4f %10.4f",
                  row.thread.c_str(), row.span.c_str(), row.count, row.total_s,
                  row.self_s);
    out->Info(line);
  }
  for (const Ledger::Thread& thread : ledger.threads) {
    std::snprintf(line, sizeof(line),
                  "  thread %-10s wall %.4f s, span self-time sum %.4f s (gap %.2f%%)",
                  thread.thread.c_str(), thread.wall_s, thread.self_sum_s,
                  100.0 * thread.gap());
    out->Info(line);
  }
  out->Check(ledger.max_gap() <= kMaxThreadGap,
             "span self-times do not sum to thread wall within 5%");
  out->Check(tracer.WriteJsonl(path), "write " + path);
  out->Info("spans: " + path);
  return ledger;
}

void AddMeasuredWaits(Track* track, const char* name, double since,
                      const std::vector<BatchCall>& calls,
                      const std::vector<double>& available) {
  double prev_end = since;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const BatchCall& call = calls[i];
    const double until = std::min(call.start, std::max(prev_end, available[i]));
    if (until > prev_end) track->Add(name, prev_end, until);
    const double runnable = std::max({prev_end, until, call.start - call.runqueue_s});
    if (call.start > runnable) track->Add("sched.runqueue_wait", runnable, call.start);
    prev_end = call.end;
  }
}

void TimedSorter::Sort(std::span<float> data) {
  // The wrapped sorter's own Sort(): PBSN's single-run path differs from a
  // one-run SortRuns() batch.
  Timed([&] { inner_->Sort(data); }, data.data(), data.size());
}

void TimedSorter::SortRuns(std::span<std::span<float>> runs) {
  std::uint64_t keys = 0;
  for (const auto& run : runs) keys += run.size();
  // The pipeline splits a batch into runs in place: the first run starts at
  // the batch buffer.
  Timed([&] { inner_->SortRuns(runs); }, runs.empty() ? nullptr : runs.front().data(), keys);
}

template <typename Fn>
void TimedSorter::Timed(Fn&& sort, const float* data, std::uint64_t keys) {
  const double cpu0 = ThreadCpuSeconds();
  const double t0 = WallSeconds();
  const double runqueue = runqueue_.Seconds();
  sort();
  const double t1 = WallSeconds();
  track_->Add("sort.SortRuns", t0, t1);
  calls_.push_back({data, t0, t1, runqueue - runqueue_last_});
  runqueue_last_ = runqueue_.Seconds();
  busy_s_ += t1 - t0;
  cpu_s_ += ThreadCpuSeconds() - cpu0;
  keys_ += keys;
  comparisons_ += inner_->last_run().comparisons;
}

}  // namespace bench

#include "src/telemetry/stream/stream_sink.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "src/topo/topology.h"

namespace wcores {

namespace {

const TelemetryStream::TaskStats kEmptyTask;

// Findings kept with their detail; findings_total() counts every one.
constexpr size_t kMaxStoredFindings = 32;

}  // namespace

TelemetryStream::Options TelemetryStream::ForTopology(const Topology& topo,
                                                      Time starvation_horizon) {
  Options opts;
  opts.n_cpus = topo.n_cores();
  opts.starvation_horizon = starvation_horizon;
  return opts;
}

TelemetryStream::TelemetryStream(Options opts) : opts_(std::move(opts)) {
  open_.resize(opts_.n_cpus > 0 ? opts_.n_cpus : 1);
  // The window's capacity is reserved (and charged to the budget) either
  // way, but spans are only written into it when someone reads them.
  spans_.reserve(SpanWindow());
  findings_.reserve(kMaxStoredFindings);
  heap_.reserve(64);
  UpdatePeak();
}

TelemetryStream::TaskStats& TelemetryStream::Slot(ThreadId tid) {
  if (tid >= static_cast<ThreadId>(tasks_.size())) {
    tasks_.resize(tid + 1);
    UpdatePeak();
  }
  TaskStats& t = tasks_[tid];
  t.seen = true;
  return t;
}

const TelemetryStream::TaskStats& TelemetryStream::Task(ThreadId tid) const {
  if (tid < 0 || tid >= static_cast<ThreadId>(tasks_.size())) {
    return kEmptyTask;
  }
  return tasks_[tid];
}

void TelemetryStream::Advance(Time now) {
  ProcessDeadlines(now);
  ++events_;
}

void TelemetryStream::OnSwitchIn(Time now, CpuId cpu, ThreadId tid, Time waited) {
  Advance(now);
  TaskStats& t = Slot(tid);
  t.wait_ns += waited;
  machine_.rq_wait.Add(waited);
  // Wakeup-origin starvation is only visible here, retroactively: the
  // queued wait ended at least `waited` after it began.
  if (waited >= opts_.starvation_horizon && !t.flagged) {
    RaiseFinding(tid, now - waited, now, waited, /*retroactive=*/true);
  }
  t.waiting_since = kTimeNever;
  t.flagged = false;
  if (CpuOk(cpu)) {
    open_[cpu] = OpenSpan{tid, now, waited};
  }
}

void TelemetryStream::OnSwitchOut(Time now, CpuId cpu, ThreadId tid, Time ran,
                                  bool still_runnable) {
  Advance(now);
  TaskStats& t = Slot(tid);
  t.runtime_ns += ran;
  ++t.switches;
  machine_.oncpu.Add(ran);
  if (still_runnable) {
    // Preempted while runnable: the starvation clock starts now.
    t.waiting_since = now;
    ++t.epoch;
    if (!t.queued) {
      PushDeadline(now + opts_.starvation_horizon, tid, t.epoch);
      t.queued = true;
    }
  } else {
    t.waiting_since = kTimeNever;
  }
  if (CpuOk(cpu) && open_[cpu].tid == tid) {
    EmitSpan(open_[cpu].start, now, tid, cpu, still_runnable);
    open_[cpu].tid = -1;
  }
}

void TelemetryStream::OnWakeupLatency(Time now, CpuId cpu, ThreadId tid, Time latency) {
  Advance(now);
  TaskStats& t = Slot(tid);
  ++t.wakeups;
  ++wakeups_;
  if (t.last_wake_cpu >= 0 && t.last_wake_cpu != cpu) {
    ++t.wakeup_moves;
  }
  t.last_wake_cpu = static_cast<int16_t>(cpu);
  machine_.wakeup.Add(latency);
}

void TelemetryStream::OnMigration(Time now, ThreadId tid, CpuId, CpuId, MigrationReason) {
  Advance(now);
  ++Slot(tid).migrations;
  ++migrations_;
}

void TelemetryStream::OnIdleExit(Time now, CpuId, Time idle_for) {
  Advance(now);
  idle_ns_ += idle_for;
}

void TelemetryStream::Finish(Time end) {
  ProcessDeadlines(end);
  FlushSpans();
  UpdatePeak();
}

// std::push_heap builds a max-heap; invert a total order on (deadline, tid,
// epoch) to pop the earliest deadline deterministically even on ties.
bool TelemetryStream::HeapOrder(const Deadline& a, const Deadline& b) {
  if (b.at != a.at) {
    return b.at < a.at;
  }
  if (b.tid != a.tid) {
    return b.tid < a.tid;
  }
  return b.epoch < a.epoch;
}

void TelemetryStream::PushDeadline(Time at, ThreadId tid, uint32_t epoch) {
  heap_.push_back(Deadline{at, tid, epoch});
  std::push_heap(heap_.begin(), heap_.end(), HeapOrder);
  UpdatePeak();
}

void TelemetryStream::ProcessDeadlines(Time now) {
  while (!heap_.empty() && heap_.front().at <= now) {
    Deadline d = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), HeapOrder);
    heap_.pop_back();
    if (d.tid < 0 || d.tid >= static_cast<ThreadId>(tasks_.size())) {
      continue;
    }
    TaskStats& t = tasks_[d.tid];
    t.queued = false;
    if (t.waiting_since == kTimeNever) {
      continue;  // The episode ended (ran or blocked) before the horizon.
    }
    if (t.epoch == d.epoch) {
      // Still runnable-but-off-cpu since the arming preemption: starving.
      if (!t.flagged) {
        RaiseFinding(d.tid, t.waiting_since, d.at, d.at - t.waiting_since,
                     /*retroactive=*/false);
        t.flagged = true;
      }
    } else {
      // A newer episode started in between; re-arm for it.
      PushDeadline(t.waiting_since + opts_.starvation_horizon, d.tid, t.epoch);
      t.queued = true;
    }
  }
}

void TelemetryStream::RaiseFinding(ThreadId tid, Time since, Time detected_at, Time waited,
                                  bool retroactive) {
  ++findings_total_;
  worst_wait_ = std::max(worst_wait_, waited);
  if (findings_.size() < kMaxStoredFindings) {
    StreamFinding f;
    f.tid = tid;
    f.since = since;
    f.detected_at = detected_at;
    f.waited = waited;
    f.retroactive = retroactive;
    if (opts_.snapshot) {
      f.digest = opts_.snapshot();
    }
    findings_.push_back(std::move(f));
    UpdatePeak();
  }
}

void TelemetryStream::EmitSpan(Time start, Time end, ThreadId tid, CpuId cpu, bool preempted) {
  if (opts_.span_out != nullptr) {
    spans_.push_back(
        Span{start, end, tid, static_cast<int16_t>(cpu), static_cast<uint8_t>(preempted ? 1 : 0)});
  }
  if (++spans_buffered_ == SpanWindow()) {
    FlushSpans();
  }
}

void TelemetryStream::FlushSpans() {
  if (opts_.span_out != nullptr) {
    char line[96];
    for (const Span& s : spans_) {
      std::snprintf(line, sizeof(line), "%d,%d,%" PRIu64 ",%" PRIu64 ",%u\n", s.tid, s.cpu,
                    s.start, s.end, s.preempted);
      *opts_.span_out << line;
    }
    spans_.clear();
  }
  spans_emitted_ += spans_buffered_;
  spans_buffered_ = 0;
}

uint64_t TelemetryStream::AggregatorBytes() const {
  uint64_t bytes = sizeof(*this);
  bytes += tasks_.capacity() * sizeof(TaskStats);
  bytes += open_.capacity() * sizeof(OpenSpan);
  bytes += spans_.capacity() * sizeof(Span);
  bytes += heap_.capacity() * sizeof(Deadline);
  bytes += findings_.capacity() * sizeof(StreamFinding);
  for (const StreamFinding& f : findings_) {
    bytes += f.digest.capacity();
  }
  return bytes;
}

uint64_t TelemetryStream::BudgetBytes() const {
  // Linear in (tasks, cpus) with constants the structures themselves
  // dictate: 2x on each vector for amortized-doubling slack, a fixed base
  // for the analyzer body, the machine histograms, the span window, and the
  // findings cap (digest strings included at 512B each).
  uint64_t per_task = 2 * (sizeof(TaskStats) + sizeof(Deadline)) + 64;
  return 256 * 1024 + sizeof(MachineStats) + tasks_.size() * per_task +
         open_.size() * 2 * sizeof(OpenSpan) +
         spans_.capacity() * sizeof(Span) +
         kMaxStoredFindings * (sizeof(StreamFinding) + 512);
}

void TelemetryStream::UpdatePeak() {
  peak_bytes_ = std::max(peak_bytes_, AggregatorBytes());
}

namespace {

void AppendU64(std::string* out, const char* key, uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64, key, v);
  *out += buf;
}

void AppendDist(std::string* out, const char* key, const LogHistogram& d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"%s\":{\"count\":%" PRIu64 ",\"mean_ns\":%.1f,\"min_ns\":%" PRIu64
                ",\"p50_ns\":%.1f,\"p95_ns\":%.1f,\"p99_ns\":%.1f,\"max_ns\":%" PRIu64 "}",
                key, d.Count(), d.Mean(), d.Min(), d.Quantile(0.50), d.Quantile(0.95),
                d.Quantile(0.99), d.Max());
  *out += buf;
}

}  // namespace

std::string TelemetryStream::SummaryJson() const {
  std::string out = "{";
  AppendU64(&out, "events", events_);
  out += ",";
  AppendU64(&out, "tasks", tasks_.size());
  out += ",";
  AppendU64(&out, "cpus", open_.size());
  out += ",";
  AppendU64(&out, "agg_bytes_peak", PeakAggregatorBytes());
  out += ",";
  AppendU64(&out, "budget_bytes", BudgetBytes());
  out += ",\"within_budget\":";
  out += WithinBudget() ? "true" : "false";
  out += ",\"machine\":{";
  AppendDist(&out, "rq_wait", machine_.rq_wait);
  out += ",";
  AppendDist(&out, "oncpu", machine_.oncpu);
  out += ",";
  AppendDist(&out, "wakeup", machine_.wakeup);
  out += "},\"totals\":{";
  AppendU64(&out, "runtime_ns", machine_.oncpu.Sum());
  out += ",";
  AppendU64(&out, "wait_ns", machine_.rq_wait.Sum());
  out += ",";
  AppendU64(&out, "switches", machine_.oncpu.Count());
  out += ",";
  AppendU64(&out, "wakeups", wakeups_);
  out += ",";
  AppendU64(&out, "migrations", migrations_);
  out += ",";
  AppendU64(&out, "idle_ns", idle_ns_);
  out += ",";
  AppendU64(&out, "spans_emitted", spans_emitted_);
  out += "},\"starvation\":{";
  AppendU64(&out, "horizon_ns", opts_.starvation_horizon);
  out += ",";
  AppendU64(&out, "findings", findings_total_);
  out += ",";
  AppendU64(&out, "worst_wait_ns", worst_wait_);
  out += "}}";
  return out;
}

}  // namespace wcores

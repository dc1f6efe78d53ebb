// TelemetryStream: the streaming telemetry pipeline, as one TraceSink.
//
// Each trace callback folds straight into O(1) incremental aggregates, in
// O(tasks + cpus) memory — the replacement for whole-trace post-processing
// on runs too large to buffer. Maintained incrementally:
//   * per-task accumulators — runtime, queued wait, context switches,
//     wakeups (and wakeup placement moves), migrations;
//   * machine-wide LogHistograms of rq-wait, on-cpu stint length and wakeup
//     latency — the one scope SummaryJson reports;
//   * a windowed Gantt/timeline emitter that flushes completed spans
//     (tid, cpu, start, end, preempted) to an output stream instead of
//     retaining the trace;
//   * an online starvation detector (second invariant monitor next to
//     src/tools/sanity_checker.h): a task observed runnable but off-cpu for
//     longer than a configurable horizon raises a finding carrying a digest
//     from the same snapshot-provider machinery the sanity checker uses.
//
// Starvation semantics (see DESIGN.md "Streaming telemetry"): the trace
// shows a task runnable-but-off-cpu from a preemption (OnSwitchOut with
// still_runnable) until its next OnSwitchIn. Such episodes are detected
// *live*, in virtual time, at the first callback at or past the horizon's
// expiry. A task whose queued wait began with a wakeup is invisible until it
// first runs; those episodes are confirmed retroactively at switch-in from
// the `waited` payload. Each episode yields at most one finding, and its
// digest is taken at the callback that confirms it.
//
// Everything is indexed by dense ids (tid, cpu) — never by pointer, never
// hashed — so the fold order is the callback order and the stream is
// deterministic by construction. It never mutates scheduler state, so trace
// hashes are byte-identical with or without it. Attach alone or via
// MultiSink; call Finish(now) after the run, then SummaryJson() for the
// one-line machine-readable summary.
#ifndef SRC_TELEMETRY_STREAM_STREAM_SINK_H_
#define SRC_TELEMETRY_STREAM_STREAM_SINK_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/core/trace.h"
#include "src/simkit/time.h"
#include "src/metrics/histogram.h"

namespace wcores {

class Topology;

// One confirmed starvation episode.
struct StreamFinding {
  ThreadId tid = -1;
  Time since = 0;        // When the task became runnable-but-off-cpu.
  Time detected_at = 0;  // Horizon expiry (live) or first run (retroactive).
  Time waited = 0;       // Off-cpu-while-runnable time at detection.
  bool retroactive = false;
  std::string digest;  // Snapshot provider output at detection, if set.
};

class TelemetryStream : public TraceSink {
 public:
  struct Options {
    int n_cpus = 0;
    Time starvation_horizon = Milliseconds(100);
    // Called when a finding is confirmed; the result is stored in
    // StreamFinding::digest (same contract as SanityChecker's
    // latency_snapshot, so both monitors attach the same evidence).
    std::function<std::string()> snapshot;
    // Completed Gantt spans are flushed here as CSV lines when the window
    // fills; null counts them without buffering them.
    std::ostream* span_out = nullptr;
    size_t span_capacity = 4096;
    size_t max_stored_findings = 32;
  };

  struct TaskStats {
    uint64_t runtime_ns = 0;  // Sum of realized stints (OnSwitchOut ran).
    uint64_t wait_ns = 0;     // Sum of queued waits (OnSwitchIn waited).
    uint64_t switches = 0;
    uint64_t wakeups = 0;
    uint64_t wakeup_moves = 0;  // Wakeup placed on a different cpu than last.
    uint64_t migrations = 0;
    // Starvation bookkeeping.
    Time waiting_since = kTimeNever;
    uint32_t epoch = 0;
    int16_t last_wake_cpu = -1;
    bool queued = false;   // Has a live entry in the deadline heap.
    bool flagged = false;  // Current episode already produced a finding.
    bool seen = false;
  };

  struct MachineStats {
    LogHistogram rq_wait;
    LogHistogram oncpu;
    LogHistogram wakeup;
  };

  // Convenience: options wired for `topo`.
  static Options ForTopology(const Topology& topo,
                             Time starvation_horizon = Milliseconds(100));

  explicit TelemetryStream(Options opts);

  // ---- TraceSink ----------------------------------------------------------
  //
  // Callbacks must arrive in nondecreasing `now` order (the trace fires in
  // virtual-time order).

  // No aggregate consumes these yet; they are still counted.
  void OnNrRunning(Time now, CpuId, int) override { Advance(now); }
  void OnLoad(Time now, CpuId, double) override { Advance(now); }
  void OnConsidered(Time now, CpuId, const CpuSet&, ConsideredKind) override { Advance(now); }
  void OnIdleEnter(Time now, CpuId) override { Advance(now); }

  void OnMigration(Time now, ThreadId tid, CpuId, CpuId, MigrationReason) override;
  void OnSwitchIn(Time now, CpuId cpu, ThreadId tid, Time waited) override;
  void OnSwitchOut(Time now, CpuId cpu, ThreadId tid, Time ran, bool still_runnable) override;
  void OnWakeupLatency(Time now, CpuId cpu, ThreadId tid, Time latency) override;
  void OnIdleExit(Time now, CpuId, Time idle_for) override;

  // Drains the deadline heap up to `end` and flushes the span window. Call
  // after the last callback; idempotent per run.
  void Finish(Time end);

  // ---- Results ------------------------------------------------------------

  // Callbacks folded so far.
  uint64_t events() const { return events_; }
  // Number of task slots (max tid + 1 observed).
  size_t tasks() const { return tasks_.size(); }
  const TaskStats& Task(ThreadId tid) const;
  const MachineStats& Machine() const { return machine_; }

  uint64_t migrations() const { return migrations_; }
  uint64_t wakeups() const { return wakeups_; }
  uint64_t spans_emitted() const { return spans_emitted_; }
  Time idle_ns() const { return idle_ns_; }

  const std::vector<StreamFinding>& findings() const { return findings_; }
  uint64_t findings_total() const { return findings_total_; }
  Time worst_wait() const { return worst_wait_; }
  Time starvation_horizon() const { return opts_.starvation_horizon; }

  // ---- Memory contract ----------------------------------------------------

  // Exact current footprint of every growable structure, from capacities.
  uint64_t AggregatorBytes() const;
  // High-water mark of AggregatorBytes over the run.
  uint64_t PeakAggregatorBytes() const { return peak_bytes_; }
  // The O(tasks + cpus) budget the footprint must stay under: a fixed base
  // plus the machine histograms plus linear terms in observed tasks and
  // configured cpus (each with a 2x factor covering vector doubling). CI
  // asserts peak <= budget.
  uint64_t BudgetBytes() const;
  bool WithinBudget() const { return PeakAggregatorBytes() <= BudgetBytes(); }

  // One JSON object on one line: counters, machine-wide percentiles,
  // the memory contract, and the starvation verdict. Stable key order,
  // deterministic values.
  std::string SummaryJson() const;

 private:
  struct OpenSpan {
    ThreadId tid = -1;
    Time start = 0;
    Time waited = 0;
  };
  struct Span {
    Time start = 0;
    Time end = 0;
    ThreadId tid = -1;
    int16_t cpu = -1;
    uint8_t preempted = 0;
  };
  struct Deadline {
    Time at = 0;
    ThreadId tid = -1;
    uint32_t epoch = 0;
  };

  static bool HeapOrder(const Deadline& a, const Deadline& b);

  // Every callback starts here: confirm the starvation deadlines that
  // expired by `now`, then count the event.
  void Advance(Time now);
  // Spans per flush.
  size_t SpanWindow() const { return opts_.span_capacity > 0 ? opts_.span_capacity : 1; }
  bool CpuOk(CpuId cpu) const { return cpu >= 0 && static_cast<size_t>(cpu) < open_.size(); }
  TaskStats& Slot(ThreadId tid);
  void ProcessDeadlines(Time now);
  void PushDeadline(Time at, ThreadId tid, uint32_t epoch);
  void RaiseFinding(ThreadId tid, Time since, Time detected_at, Time waited, bool retroactive);
  void EmitSpan(Time start, Time end, ThreadId tid, CpuId cpu, bool preempted);
  void FlushSpans();
  void UpdatePeak();

  Options opts_;
  uint64_t events_ = 0;
  uint64_t migrations_ = 0;
  uint64_t wakeups_ = 0;
  Time idle_ns_ = 0;

  std::vector<TaskStats> tasks_;  // Indexed by tid, grown on demand.
  MachineStats machine_;

  std::vector<OpenSpan> open_;  // Indexed by cpu, fixed at construction.
  std::vector<Span> spans_;     // The window, filled only with a span_out.
  size_t spans_buffered_ = 0;   // Completed since the last flush.
  uint64_t spans_emitted_ = 0;

  std::vector<Deadline> heap_;  // Min-heap on (at, tid); <= 1 entry per task.
  std::vector<StreamFinding> findings_;
  uint64_t findings_total_ = 0;
  Time worst_wait_ = 0;

  uint64_t peak_bytes_ = 0;
};

}  // namespace wcores

#endif  // SRC_TELEMETRY_STREAM_STREAM_SINK_H_

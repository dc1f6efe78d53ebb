// Streaming telemetry tests: Figure 2 parity of the stream's machine
// histograms with the accountant's and with the exact raw-sample quantiles,
// the directed starvation-detector scenario, the span emitter, and the
// one-line JSON summary contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "src/metrics/histogram.h"
#include "src/sim/simulator.h"
#include "src/telemetry/stream/stream_sink.h"
#include "src/telemetry/telemetry.h"
#include "src/tools/sanity_checker.h"
#include "src/topo/topology.h"
#include "src/workloads/make_r.h"

namespace wcores {
namespace {

// ---- Fig. 2 parity: stream vs accountant vs raw samples -----------------

// The exact interpolated quantile of the raw samples — the test-only
// reference the histograms are held to.
double ExactQuantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  double pos = q * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1 - frac) + samples[hi] * frac;
}

void ExpectWithinBound(const LogHistogram& h, const std::vector<double>& raw, const char* what) {
  ASSERT_EQ(h.Count(), raw.size()) << what;
  for (double q : {0.50, 0.95, 0.99}) {
    double exact = ExactQuantile(raw, q);
    EXPECT_LE(std::abs(h.Quantile(q) - exact), exact / 128)
        << what << " q=" << q << " histogram=" << h.Quantile(q) << " exact=" << exact;
  }
}

// The stream's machine histograms are the accountant's machine scope,
// bucket for bucket, and their quantiles sit within the documented 1/128 of
// the exact quantiles of the recorder's raw samples.
void CheckFig2Parity(bool fixed) {
  Topology topo = Topology::Bulldozer8x8();
  TelemetrySession telemetry(topo.n_cores());
  TelemetryStream& stream = telemetry.AttachStream(TelemetryStream::ForTopology(topo));
  Simulator::Options opts;
  opts.features.fix_group_imbalance = fixed;
  opts.seed = 3001;
  Simulator sim(topo, opts, telemetry.sink());
  MakeRConfig config;
  config.make_work_per_thread = Milliseconds(400);
  config.r_work = Seconds(3);
  MakeRWorkload wl(&sim, config);
  wl.Setup();
  sim.Run(Seconds(10));
  stream.Finish(sim.Now());

  const TelemetryStream::MachineStats& streamed = stream.Machine();
  LatencyDistributions machine = telemetry.latency().Machine();
  EXPECT_TRUE(streamed.rq_wait == machine.rq_wait);
  EXPECT_TRUE(streamed.oncpu == machine.timeslice);
  EXPECT_TRUE(streamed.wakeup == machine.wakeup_latency);

  ASSERT_EQ(telemetry.recorder().dropped(), 0u);
  std::vector<double> rq_wait;
  std::vector<double> oncpu;
  std::vector<double> wakeup;
  for (const TraceEvent& e : telemetry.recorder().events()) {
    if (e.kind == TraceEvent::Kind::kSwitchIn) {
      rq_wait.push_back(e.value);
    } else if (e.kind == TraceEvent::Kind::kSwitchOut) {
      oncpu.push_back(e.value);
    } else if (e.kind == TraceEvent::Kind::kWakeupLatency) {
      wakeup.push_back(e.value);
    }
  }
  ExpectWithinBound(streamed.rq_wait, rq_wait, "rq_wait");
  ExpectWithinBound(streamed.oncpu, oncpu, "oncpu");
  ExpectWithinBound(streamed.wakeup, wakeup, "wakeup");

  // The per-task accumulators are exact and sum to the machine totals.
  uint64_t task_wait_ns = 0;
  uint64_t task_runtime_ns = 0;
  for (ThreadId tid = 0; tid < static_cast<ThreadId>(stream.tasks()); ++tid) {
    task_wait_ns += stream.Task(tid).wait_ns;
    task_runtime_ns += stream.Task(tid).runtime_ns;
  }
  EXPECT_EQ(task_wait_ns, streamed.rq_wait.Sum());
  EXPECT_EQ(task_runtime_ns, streamed.oncpu.Sum());
}

TEST(StreamParity, Fig2StockWithinDocumentedBounds) {
  CheckFig2Parity(/*fixed=*/false);
}

TEST(StreamParity, Fig2FixedWithinDocumentedBounds) {
  CheckFig2Parity(/*fixed=*/true);
}

// ---- Directed starvation scenario ----------------------------------------

// Twelve compute hogs pinned to one core of a 4-core machine: each stint
// lasts ~min_granularity (3 ms), so every task queues behind eleven others
// for ~33 ms between stints. With a 20 ms horizon the detector must fire;
// the sanity checker must NOT (the other cores are idle, but affinity makes
// the queued work unstealable — exactly the gap the second monitor covers).
TEST(StarvationDetector, CatchesPinnedOverloadTheCheckerCannotSee) {
  Topology topo = Topology::Flat(1, 4, /*smt_width=*/1);
  TelemetrySession telemetry(topo.n_cores());
  TelemetryStream& stream =
      telemetry.AttachStream(TelemetryStream::ForTopology(topo, Milliseconds(20)));
  Simulator::Options opts;
  opts.seed = 77;
  Simulator sim(topo, opts, telemetry.sink());
  for (int i = 0; i < 12; ++i) {
    Simulator::SpawnParams params;
    params.affinity = CpuSet::Single(0);
    params.parent_cpu = 0;
    sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(1)}}),
              params);
  }
  SanityChecker checker(&sim);
  checker.Start();
  sim.Run(Seconds(5));
  stream.Finish(sim.Now());

  ASSERT_GT(stream.findings_total(), 0u) << "starvation detector is disarmed";
  EXPECT_GE(stream.worst_wait(), Milliseconds(20));
  ASSERT_FALSE(stream.findings().empty());
  const StreamFinding& f = stream.findings().front();
  EXPECT_GE(f.waited, Milliseconds(20));
  EXPECT_GE(f.detected_at, f.since);
  // The finding carries the session's latency digest (same machinery as the
  // checker's violations).
  EXPECT_NE(f.digest.find("rq_wait"), std::string::npos) << f.digest;
  // The work-conserving invariant never fires: pinned work is unstealable.
  EXPECT_TRUE(checker.violations().empty());
}

TEST(StarvationDetector, QuietWhenHorizonExceedsWorstWait) {
  // Same scenario, horizon far beyond the ~33 ms queueing delay: no
  // findings. Guards against a detector that cries wolf.
  Topology topo = Topology::Flat(1, 4, /*smt_width=*/1);
  TelemetrySession telemetry(topo.n_cores());
  TelemetryStream& stream =
      telemetry.AttachStream(TelemetryStream::ForTopology(topo, Seconds(2)));
  Simulator::Options opts;
  opts.seed = 77;
  Simulator sim(topo, opts, telemetry.sink());
  for (int i = 0; i < 12; ++i) {
    Simulator::SpawnParams params;
    params.affinity = CpuSet::Single(0);
    params.parent_cpu = 0;
    sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(1)}}),
              params);
  }
  sim.Run(Seconds(5));
  stream.Finish(sim.Now());
  EXPECT_EQ(stream.findings_total(), 0u);
}

// ---- Gantt span emitter ---------------------------------------------------

TEST(StreamSpans, WindowedEmitterFlushesCompletedSpans) {
  std::ostringstream spans;
  TelemetryStream::Options opts;
  opts.n_cpus = 1;
  opts.span_out = &spans;
  opts.span_capacity = 4;  // Tiny window: forces mid-run flushes.
  TelemetryStream stream(opts);
  for (int i = 0; i < 10; ++i) {
    Time t0 = static_cast<Time>(i) * 100;
    stream.OnSwitchIn(t0, 0, i % 3, 5);
    stream.OnSwitchOut(t0 + 60, 0, i % 3, 60, i % 2 == 0);
  }
  stream.Finish(1000);
  EXPECT_EQ(stream.spans_emitted(), 10u);
  // CSV lines: tid,cpu,start,end,preempted, in completion order.
  EXPECT_EQ(spans.str(),
            "0,0,0,60,1\n1,0,100,160,0\n2,0,200,260,1\n0,0,300,360,0\n1,0,400,460,1\n"
            "2,0,500,560,0\n0,0,600,660,1\n1,0,700,760,0\n2,0,800,860,1\n0,0,900,960,0\n");
}

// Without a span_out the stream counts spans instead of buffering them; its
// counters, memory contract and summary are those of a stream that writes
// them out, at every flush.
TEST(StreamSpans, NullSinkCountsLikeAWritingSink) {
  for (size_t capacity : {size_t{4}, TelemetryStream::Options().span_capacity}) {
    std::ostringstream csv;
    TelemetryStream::Options with_out;
    with_out.n_cpus = 4;
    with_out.span_capacity = capacity;
    with_out.span_out = &csv;
    TelemetryStream::Options without_out = with_out;
    without_out.span_out = nullptr;
    TelemetryStream written(with_out);
    TelemetryStream counted(without_out);
    for (TelemetryStream* stream : {&written, &counted}) {
      for (int i = 0; i < 50; ++i) {
        const Time t0 = static_cast<Time>(i) * 1000;
        const CpuId cpu = i % 4;
        const ThreadId tid = i % 7;
        stream->OnWakeupLatency(t0, cpu, tid, 40 + i);
        stream->OnSwitchIn(t0 + 50, cpu, tid, 50 + i);
        stream->OnMigration(t0 + 60, tid, cpu, (cpu + 1) % 4, MigrationReason::kIdleBalance);
        stream->OnSwitchOut(t0 + 700, cpu, tid, 650, i % 3 == 0);
      }
      EXPECT_EQ(stream->spans_emitted(), 50 - 50 % capacity);  // Full windows flushed.
      stream->Finish(60000);
    }
    EXPECT_EQ(counted.spans_emitted(), 50u);
    EXPECT_EQ(counted.spans_emitted(), written.spans_emitted());
    EXPECT_EQ(counted.PeakAggregatorBytes(), written.PeakAggregatorBytes());
    EXPECT_EQ(counted.BudgetBytes(), written.BudgetBytes());
    EXPECT_EQ(counted.SummaryJson(), written.SummaryJson());
    int lines = 0;
    for (char c : csv.str()) {
      lines += c == '\n' ? 1 : 0;
    }
    EXPECT_EQ(lines, 50);
  }
}

// ---- One-line JSON summary ------------------------------------------------

TEST(StreamSummary, OneLineStableAndWithinBudget) {
  Topology topo = Topology::Flat(1, 2, /*smt_width=*/1);
  TelemetrySession telemetry(topo.n_cores());
  TelemetryStream& stream = telemetry.AttachStream(TelemetryStream::ForTopology(topo));
  stream.OnSwitchIn(10, 0, 0, 3);
  stream.OnSwitchOut(20, 0, 0, 10, false);
  stream.Finish(30);
  std::string json = stream.SummaryJson();
  EXPECT_EQ(json.find('\n'), std::string::npos);  // One line.
  for (const char* key :
       {"\"events\":", "\"tasks\":", "\"agg_bytes_peak\":", "\"budget_bytes\":", "\"within_budget\":true", "\"machine\":",
        "\"rq_wait\":", "\"oncpu\":", "\"totals\":", "\"starvation\":", "\"horizon_ns\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing from " << json;
  }
  // Balanced braces, no trailing junk.
  int depth = 0;
  for (char c : json) {
    depth += c == '{' ? 1 : (c == '}' ? -1 : 0);
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_TRUE(stream.WithinBudget());
}

}  // namespace
}  // namespace wcores

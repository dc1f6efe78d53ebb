// End-to-end smoke test of the telemetry subsystem (the CI gate the
// observability work is judged by): run the paper's Figure 2 Group Imbalance
// scenario, scaled down, with full telemetry attached, stock vs fixed, and
// assert that
//   * the schedstat report renders and parses back,
//   * the Chrome trace JSON validates (per-cpu tracks, counter tracks,
//     monotonic timestamps, balanced slices),
//   * the fixed scheduler's p99 runqueue wait is measurably lower than the
//     stock scheduler's, in both the schedstat report and the stream — the
//     bug is visible in the new metrics, which is the point of collecting
//     them.
#include <gtest/gtest.h>

#include <string>

#include "src/sim/simulator.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/schedstat.h"
#include "src/telemetry/telemetry.h"
#include "src/topo/topology.h"
#include "src/workloads/make_r.h"

namespace wcores {
namespace {

struct SmokeRun {
  ParsedSchedstat stats;
  ChromeTraceCheck trace;
  uint64_t counter_records = 0;
  double p99_rq_wait_us = 0;
  double stream_p99_rq_wait_ns = 0;
};

// The Figure 2 workload (64-thread make + 2 R processes) at the bench's own
// scale: shorter runs quantize every rq-wait sample to one timeslice and the
// stock-vs-fixed gap disappears. ~0.5 s wall per run.
SmokeRun RunGroupImbalance(bool fixed) {
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

  SmokeRun run;
  std::string report = telemetry.Schedstat(sim.sched(), sim.Now());
  EXPECT_TRUE(ParseSchedstatReport(report, &run.stats)) << report.substr(0, 400);

  std::string json = ChromeTraceJson(telemetry.recorder().events(), topo.n_cores());
  run.trace = CheckChromeTrace(json);
  run.counter_records = run.trace.counters;
  run.p99_rq_wait_us = run.stats.latencies.count("machine rq_wait")
                           ? run.stats.latencies.at("machine rq_wait").p99_us
                           : 0;
  run.stream_p99_rq_wait_ns = stream.Machine().rq_wait.Quantile(0.99);
  return run;
}

TEST(TelemetrySmoke, GroupImbalanceIsVisibleInLatencyTelemetry) {
  SmokeRun stock = RunGroupImbalance(/*fixed=*/false);
  SmokeRun fixed = RunGroupImbalance(/*fixed=*/true);

  // Schedstat reports parse and describe the full machine.
  EXPECT_EQ(stock.stats.cpus, 64);
  EXPECT_EQ(stock.stats.nodes, 8);
  EXPECT_EQ(stock.stats.online, 64);
  EXPECT_GT(stock.stats.counters.at("wakeups"), 0u);
  EXPECT_GT(stock.stats.counters.at("ticks"), 0u);

  // Chrome traces validate: one named track per cpu, counter tracks present.
  for (const SmokeRun* run : {&stock, &fixed}) {
    EXPECT_TRUE(run->trace.valid_json) << run->trace.error;
    EXPECT_TRUE(run->trace.ts_monotonic);
    EXPECT_TRUE(run->trace.slices_balanced);
    EXPECT_EQ(run->trace.thread_name_records, 64);
    EXPECT_GT(run->trace.slices, 0u);
    EXPECT_GT(run->counter_records, 0u);  // rq size / load counter tracks.
    EXPECT_TRUE(run->trace.Ok(64));
  }

  // The Group Imbalance fix measurably lowers the tail runqueue wait: with
  // the bug, the high-load R cores' nodes stop stealing and make threads
  // queue up behind each other.
  ASSERT_GT(stock.p99_rq_wait_us, 0.0);
  ASSERT_GT(fixed.p99_rq_wait_us, 0.0);
  EXPECT_LT(fixed.p99_rq_wait_us, stock.p99_rq_wait_us)
      << "fixed p99 rq_wait " << fixed.p99_rq_wait_us << "us vs stock "
      << stock.p99_rq_wait_us << "us";
  ASSERT_GT(fixed.stream_p99_rq_wait_ns, 0.0);
  EXPECT_LT(fixed.stream_p99_rq_wait_ns, stock.stream_p99_rq_wait_ns)
      << "streamed fixed p99 rq_wait " << fixed.stream_p99_rq_wait_ns << "ns vs stock "
      << stock.stream_p99_rq_wait_ns << "ns";
}

}  // namespace
}  // namespace wcores

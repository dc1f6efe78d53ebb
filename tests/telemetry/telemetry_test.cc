#include "src/telemetry/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>

#include "src/sim/simulator.h"
#include "src/telemetry/chrome_trace.h"
#include "src/telemetry/latency.h"
#include "src/telemetry/schedstat.h"
#include "src/tools/recorder.h"
#include "src/topo/topology.h"

namespace wcores {
namespace {

// ---- LatencyAccountant -----------------------------------------------------

TEST(LatencyAccountantTest, AccountsSwitchAndWakeupEvents) {
  LatencyAccountant acct(4);
  acct.OnSwitchIn(Milliseconds(10), /*cpu=*/1, /*tid=*/7, /*waited=*/Microseconds(100));
  acct.OnWakeupLatency(Milliseconds(10), 1, 7, Microseconds(150));
  acct.OnSwitchOut(Milliseconds(14), 1, 7, /*ran=*/Milliseconds(4), /*still_runnable=*/true);

  EXPECT_EQ(acct.Cpu(1).rq_wait.Count(), 1u);
  EXPECT_EQ(acct.Cpu(1).rq_wait.Max(), Microseconds(100));
  EXPECT_EQ(acct.Cpu(1).wakeup_latency.Count(), 1u);
  EXPECT_EQ(acct.Cpu(1).timeslice.Max(), Milliseconds(4));
  // Untouched cpus read as empty.
  EXPECT_EQ(acct.Cpu(3).rq_wait.Count(), 0u);
}

TEST(LatencyAccountantTest, MigrationCostIsMigrationToFirstRun) {
  LatencyAccountant acct(4);
  acct.OnMigration(Milliseconds(5), /*tid=*/9, /*from=*/0, /*to=*/2,
                   MigrationReason::kPeriodicBalance);
  // First switch-in after the migration resolves the pending stamp.
  acct.OnSwitchIn(Milliseconds(7), 2, 9, Microseconds(50));
  ASSERT_EQ(acct.Cpu(2).migration_cost.Count(), 1u);
  EXPECT_EQ(acct.Cpu(2).migration_cost.Max(), Milliseconds(2));
  EXPECT_EQ(acct.MigrationsInto(2), 1u);
  // A second switch-in does not double-count the migration.
  acct.OnSwitchIn(Milliseconds(9), 2, 9, Microseconds(10));
  EXPECT_EQ(acct.Cpu(2).migration_cost.Count(), 1u);
}

TEST(LatencyAccountantTest, IdleAccounting) {
  LatencyAccountant acct(2);
  acct.OnIdleEnter(Milliseconds(1), 0);
  acct.OnIdleExit(Milliseconds(4), 0, Milliseconds(3));
  EXPECT_EQ(acct.IdleEnters(0), 1u);
  EXPECT_EQ(acct.IdleTime(0), Milliseconds(3));
  EXPECT_EQ(acct.IdleTime(1), Time{0});
}

TEST(LatencyAccountantTest, NodeAndMachineAggregation) {
  LatencyAccountant acct(4);
  acct.OnSwitchIn(1, 0, 1, 100);
  acct.OnSwitchIn(2, 1, 2, 200);
  acct.OnSwitchIn(3, 2, 3, 300);
  CpuSet node0 = CpuSet::FirstN(2);
  EXPECT_EQ(acct.AggregateCpus(node0).rq_wait.Count(), 2u);
  EXPECT_EQ(acct.AggregateCpus(node0).rq_wait.Max(), 200u);
  EXPECT_EQ(acct.Machine().rq_wait.Count(), 3u);
}

// ---- EventRecorder additions -----------------------------------------------

TEST(RecorderTelemetryTest, CapacityAndFillFraction) {
  EventRecorder recorder(/*capacity=*/8);
  EXPECT_EQ(recorder.capacity(), 8u);
  EXPECT_DOUBLE_EQ(recorder.FillFraction(), 0.0);
  for (int i = 0; i < 4; ++i) {
    recorder.OnNrRunning(i, 0, i);
  }
  EXPECT_DOUBLE_EQ(recorder.FillFraction(), 0.5);
}

TEST(RecorderTelemetryTest, RecordsNewCallbackKinds) {
  EventRecorder recorder;
  recorder.OnSwitchIn(Milliseconds(1), 2, 5, Microseconds(10));
  recorder.OnSwitchOut(Milliseconds(2), 2, 5, Milliseconds(1), /*still_runnable=*/true);
  recorder.OnWakeupLatency(Milliseconds(2), 2, 6, Microseconds(20));
  recorder.OnIdleEnter(Milliseconds(3), 2);
  recorder.OnIdleExit(Milliseconds(4), 2, Milliseconds(1));
  ASSERT_EQ(recorder.events().size(), 5u);
  EXPECT_EQ(recorder.events()[0].kind, TraceEvent::Kind::kSwitchIn);
  EXPECT_EQ(recorder.events()[1].kind, TraceEvent::Kind::kSwitchOut);
  EXPECT_EQ(recorder.events()[1].sub, 1);  // Still runnable.
  EXPECT_EQ(recorder.events()[2].kind, TraceEvent::Kind::kWakeupLatency);
  EXPECT_EQ(recorder.events()[3].kind, TraceEvent::Kind::kIdleEnter);
  EXPECT_EQ(recorder.events()[4].kind, TraceEvent::Kind::kIdleExit);
  EXPECT_DOUBLE_EQ(recorder.events()[4].value, static_cast<double>(Milliseconds(1)));
}

TEST(RecorderTelemetryTest, MultiSinkFansOutNewCallbacks) {
  EventRecorder a;
  EventRecorder b;
  MultiSink multi;
  multi.Add(&a);
  multi.Add(&b);
  multi.OnSwitchIn(1, 0, 1, 2);
  multi.OnSwitchOut(2, 0, 1, 1, false);
  multi.OnWakeupLatency(3, 0, 1, 4);
  multi.OnIdleEnter(4, 0);
  multi.OnIdleExit(5, 0, 1);
  EXPECT_EQ(a.events().size(), 5u);
  EXPECT_EQ(b.events().size(), 5u);
  EXPECT_EQ(a.events()[2].kind, TraceEvent::Kind::kWakeupLatency);
}

// ---- Schedstat report ------------------------------------------------------

class SchedstatTest : public ::testing::Test {
 protected:
  // A tiny two-node run that exercises forks, wakeups, and balancing.
  std::string RunAndReport() {
    Topology topo = Topology::Flat(2, 2, 1);  // 2 nodes x 2 cores.
    TelemetrySession telemetry(topo.n_cores());
    Simulator::Options opts;
    opts.seed = 42;
    Simulator sim(topo, opts, telemetry.sink());
    for (int i = 0; i < 6; ++i) {
      Simulator::SpawnParams params;
      params.parent_cpu = 0;
      sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                    ComputeAction{Milliseconds(30)}, SleepAction{Milliseconds(5)},
                    ComputeAction{Milliseconds(20)}}),
                params);
    }
    sim.Run(Milliseconds(500));
    now_ = sim.Now();
    report_ = telemetry.Schedstat(sim.sched(), now_);
    return report_;
  }

  std::string report_;
  Time now_ = 0;
};

TEST_F(SchedstatTest, ReportHasExpectedShapeAndParsesBack) {
  RunAndReport();
  EXPECT_NE(report_.find("schedstat version 1"), std::string::npos);
  EXPECT_NE(report_.find("cpus 4 nodes 2 online 4"), std::string::npos);
  EXPECT_NE(report_.find("counter wakeups "), std::string::npos);
  EXPECT_NE(report_.find("lat machine rq_wait "), std::string::npos);
  EXPECT_NE(report_.find("cpustate cpu3 "), std::string::npos);

  ParsedSchedstat parsed;
  ASSERT_TRUE(ParseSchedstatReport(report_, &parsed));
  EXPECT_EQ(parsed.version, 1);
  EXPECT_EQ(parsed.timestamp, now_);
  EXPECT_EQ(parsed.cpus, 4);
  EXPECT_EQ(parsed.nodes, 2);
  EXPECT_EQ(parsed.online, 4);
  EXPECT_EQ(parsed.counters.at("forks"), 6u);
  ASSERT_TRUE(parsed.latencies.count("machine rq_wait"));
  const auto& rq = parsed.latencies.at("machine rq_wait");
  EXPECT_GT(rq.count, 0u);
  EXPECT_LE(rq.p50_us, rq.p95_us);
  EXPECT_LE(rq.p95_us, rq.p99_us);
  EXPECT_LE(rq.p99_us, rq.max_us);
  // Per-cpu scopes exist for every cpu and sum to the machine count.
  uint64_t sum = 0;
  for (int c = 0; c < 4; ++c) {
    ASSERT_TRUE(parsed.latencies.count("cpu" + std::to_string(c) + " rq_wait"));
    sum += parsed.latencies.at("cpu" + std::to_string(c) + " rq_wait").count;
  }
  EXPECT_EQ(sum, rq.count);
}

TEST_F(SchedstatTest, GoldenReportForIdleScheduler) {
  // With no workload at all the report is fully deterministic.
  Topology topo = Topology::Flat(1, 2, 1);
  TelemetrySession telemetry(topo.n_cores());
  Simulator::Options opts;
  Simulator sim(topo, opts, telemetry.sink());
  sim.Run(Milliseconds(1));
  std::string report = telemetry.Schedstat(sim.sched(), sim.Now());
  EXPECT_NE(report.find("schedstat version 1 (wasted-cores telemetry)\n"), std::string::npos);
  EXPECT_NE(report.find("cpus 2 nodes 1 online 2\n"), std::string::npos);
  EXPECT_NE(report.find("counter forks 0\n"), std::string::npos);
  EXPECT_NE(report.find("lat machine wakeup 0 0.000 0.000 0.000 0.000\n"), std::string::npos);
}

TEST(SchedstatParseTest, RejectsMalformedReports) {
  ParsedSchedstat parsed;
  EXPECT_FALSE(ParseSchedstatReport("", &parsed));
  EXPECT_FALSE(ParseSchedstatReport("schedstat version 1\n", &parsed));  // No shape/lat lines.
  EXPECT_FALSE(ParseSchedstatReport(
      "schedstat version 1\ncpus 2 nodes 1 online 2\nlat cpu0 rq_wait oops\n", &parsed));
  // Numbers must be whole, well-formed fields.
  const std::string lat = "lat cpu0 rq_wait 3 1.000 2.000 3.000 4.000\n";
  const std::string shape = "cpus 2 nodes 1 online 2\n";
  ASSERT_TRUE(ParseSchedstatReport("schedstat version 1\n" + shape + lat, &parsed));
  EXPECT_FALSE(
      ParseSchedstatReport("schedstat version 1\n" + shape + "counter forks -5\n" + lat, &parsed));
  EXPECT_FALSE(
      ParseSchedstatReport("schedstat version 1\n" + shape + "counter forks 12x\n" + lat, &parsed));
  EXPECT_FALSE(ParseSchedstatReport("schedstat version abc\n" + shape + lat, &parsed));
  EXPECT_FALSE(ParseSchedstatReport(
      "schedstat version 1\n" + shape + "lat cpu0 rq_wait 3 1.000 2.000 3.000 4.000 junk\n",
      &parsed));
}

// ---- Chrome trace JSON -----------------------------------------------------

TEST(ChromeTraceTest, JsonRoundTripOnSyntheticEvents) {
  EventRecorder recorder;
  recorder.OnNrRunning(0, 0, 1);
  recorder.OnSwitchIn(Microseconds(10), 0, 5, Microseconds(3));
  recorder.OnLoad(Microseconds(12), 1, 1024.0);
  recorder.OnMigration(Microseconds(15), 6, 0, 1, MigrationReason::kIdleBalance);
  recorder.OnSwitchIn(Microseconds(16), 1, 6, Microseconds(1));
  recorder.OnWakeupLatency(Microseconds(16), 1, 6, Microseconds(2));
  recorder.OnSwitchOut(Microseconds(20), 0, 5, Microseconds(10), false);
  // Note: cpu1's slice for tid 6 is left open — the exporter must close it.

  std::string json = ChromeTraceJson(recorder.events(), /*n_cpus=*/2);
  ChromeTraceCheck check = CheckChromeTrace(json);
  EXPECT_TRUE(check.valid_json) << check.error;
  EXPECT_TRUE(check.ts_monotonic);
  EXPECT_TRUE(check.slices_balanced);
  EXPECT_EQ(check.thread_name_records, 2);
  EXPECT_EQ(check.slices, 2u);
  EXPECT_EQ(check.counters, 2u);
  EXPECT_EQ(check.instants, 2u);  // Migration + wakeup latency.
  EXPECT_TRUE(check.Ok(2));
  EXPECT_FALSE(check.Ok(3));  // Wrong cpu count must not validate.
}

TEST(ChromeTraceTest, TruncatesHugeTracesWithMarkerAndBalancedSlices) {
  // A long alternating switch-in/out stream on one cpu; cut it mid-slice so
  // the exporter must close the open 'B' at the truncation point.
  EventRecorder recorder;
  for (int i = 0; i < 100; ++i) {
    Time t = Microseconds(10 * i);
    recorder.OnSwitchIn(t, 0, 5, 0);
    recorder.OnSwitchOut(t + Microseconds(5), 0, 5, Microseconds(5), true);
  }
  ASSERT_EQ(recorder.events().size(), 200u);

  std::string json = ChromeTraceJson(recorder.events(), /*n_cpus=*/1, /*max_events=*/51);
  ChromeTraceCheck check = CheckChromeTrace(json);
  EXPECT_TRUE(check.valid_json) << check.error;
  EXPECT_TRUE(check.ts_monotonic);
  EXPECT_TRUE(check.slices_balanced);  // The cut slice was closed.
  EXPECT_TRUE(check.Ok(1));
  // 26 switch-ins made it through the cap (events 0..50 = 26 in, 25 out).
  EXPECT_EQ(check.slices, 26u);
  // The truncation marker is present and carries the drop accounting.
  EXPECT_NE(json.find("\"name\":\"trace truncated\""), std::string::npos);
  EXPECT_NE(json.find("\"exported_events\":51"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_events\":149"), std::string::npos);

  // Untruncated export of the same events carries no marker.
  std::string full = ChromeTraceJson(recorder.events(), /*n_cpus=*/1);
  EXPECT_EQ(full.find("trace truncated"), std::string::npos);
  EXPECT_TRUE(CheckChromeTrace(full).Ok(1));
}

TEST(ChromeTraceTest, ParserAcceptsStandardJson) {
  JsonValue v;
  std::string err;
  ASSERT_TRUE(ParseJson(R"({"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null})", &v,
                        &err))
      << err;
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  EXPECT_EQ(v.Find("b")->Find("c")->str, "x\ny");
  EXPECT_TRUE(v.Find("d")->boolean);
  EXPECT_EQ(v.Find("e")->type, JsonValue::Type::kNull);
}

TEST(ChromeTraceTest, ParserRejectsMalformedJson) {
  JsonValue v;
  std::string err;
  EXPECT_FALSE(ParseJson("{", &v, &err));
  EXPECT_FALSE(ParseJson("{\"a\": }", &v, &err));
  EXPECT_FALSE(ParseJson("[1, 2", &v, &err));
  EXPECT_FALSE(ParseJson("{} trailing", &v, &err));
  EXPECT_FALSE(ParseJson("\"unterminated", &v, &err));
  EXPECT_NE(err.find("offset"), std::string::npos);
}

// ---- TelemetrySession ------------------------------------------------------

TEST(TelemetrySessionTest, WritesBothReports) {
  Topology topo = Topology::Flat(1, 2, 1);
  std::string dir = ::testing::TempDir() + "/wc_telemetry_test";
  TelemetrySession telemetry(topo.n_cores());
  telemetry.AttachStream(TelemetryStream::ForTopology(topo), dir, "t_");
  Simulator::Options opts;
  Simulator sim(topo, opts, telemetry.sink());
  Simulator::SpawnParams params;
  params.parent_cpu = 0;
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Milliseconds(5)}}),
            params);
  sim.Run(Milliseconds(20));

  std::string failed_path;
  ASSERT_TRUE(telemetry.WriteReports(dir, sim.sched(), sim.Now(), "t_", &failed_path))
      << failed_path;

  std::ifstream stat_in(dir + "/t_schedstat.txt");
  std::string stat((std::istreambuf_iterator<char>(stat_in)), std::istreambuf_iterator<char>());
  ParsedSchedstat parsed;
  EXPECT_TRUE(ParseSchedstatReport(stat, &parsed));

  std::ifstream trace_in(dir + "/t_trace.json");
  std::string trace((std::istreambuf_iterator<char>(trace_in)),
                    std::istreambuf_iterator<char>());
  EXPECT_TRUE(CheckChromeTrace(trace).Ok(topo.n_cores()));

  // The attached stream adds its one-line summary and the Gantt spans.
  std::ifstream stream_in(dir + "/t_stream.json");
  std::string stream_json;
  ASSERT_TRUE(std::getline(stream_in, stream_json));
  EXPECT_EQ(stream_json, telemetry.stream()->SummaryJson());
  std::ifstream spans_in(dir + "/t_spans.csv");
  std::string span;
  ASSERT_TRUE(std::getline(spans_in, span)) << "no span for the one 5ms stint";
  EXPECT_EQ(std::count(span.begin(), span.end(), ','), 4) << span;  // tid,cpu,start,end,preempted

  EXPECT_FALSE(telemetry.LatencySnapshot().empty());
}

}  // namespace
}  // namespace wcores

// Tests for the shared bench flag parsing and the BENCH_*.json reporter.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/simulator.h"
#include "src/telemetry/chrome_trace.h"

namespace wcores {
namespace {

// argv helper: gtest owns real argv, so fabricate one.
struct Argv {
  explicit Argv(std::vector<std::string> args) : strings(std::move(args)) {
    for (std::string& s : strings) {
      ptrs.push_back(s.data());
    }
  }
  int argc() { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> strings;
  std::vector<char*> ptrs;
};

TEST(BenchArgs, SharedFlags) {
  Argv a({"bin", "--out=artifacts", "--telemetry"});
  BenchOptions opts = ParseBenchArgs(a.argc(), a.argv(), TelemetryFlag::kAccepted);
  EXPECT_EQ(opts.out_dir, "artifacts");
  EXPECT_EQ(opts.telemetry_dir, "artifacts/telemetry");
}

TEST(BenchArgs, TelemetryExplicitDir) {
  Argv a({"bin", "--telemetry=tdir"});
  BenchOptions opts = ParseBenchArgs(a.argc(), a.argv(), TelemetryFlag::kAccepted);
  EXPECT_EQ(opts.out_dir, "out");
  EXPECT_EQ(opts.telemetry_dir, "tdir");
}

TEST(BenchArgs, ExtraFlagsParsed) {
  std::string threads, scale;
  Argv a({"bin", "--threads=4", "--out=o", "--scale=0.5"});
  BenchOptions opts = ParseBenchArgs(a.argc(), a.argv(), TelemetryFlag::kRejected,
                                     {{"threads", &threads, "worker threads"},
                                      {"scale", &scale, "workload scale"}});
  EXPECT_EQ(opts.out_dir, "o");
  EXPECT_EQ(threads, "4");
  EXPECT_EQ(scale, "0.5");
}

TEST(BenchArgsDeathTest, UnknownFlagIsHardError) {
  Argv a({"bin", "--bogus=1"});
  EXPECT_EXIT(ParseBenchArgs(a.argc(), a.argv()), ::testing::ExitedWithCode(2), "unknown argument");
}

TEST(BenchArgsDeathTest, ExtraFlagsListedInUsage) {
  std::string threads;
  Argv a({"bin", "--bogus=1"});
  EXPECT_EXIT(ParseBenchArgs(a.argc(), a.argv(), TelemetryFlag::kRejected,
                             {{"threads", &threads, "worker threads"}}),
              ::testing::ExitedWithCode(2), "--threads=V");
}

TEST(BenchArgsDeathTest, EmptyOutDirIsHardError) {
  // Empty would make WriteFile drop artifacts into the working directory.
  Argv a({"bin", "--out="});
  EXPECT_EXIT(ParseBenchArgs(a.argc(), a.argv()), ::testing::ExitedWithCode(2),
              "invalid value '' for --out");
}

TEST(BenchArgsDeathTest, EmptyTelemetryDirIsHardError) {
  // Empty would silently disable the telemetry the flag asked for.
  Argv a({"bin", "--telemetry="});
  EXPECT_EXIT(ParseBenchArgs(a.argc(), a.argv(), TelemetryFlag::kAccepted),
              ::testing::ExitedWithCode(2), "invalid value '' for --telemetry");
}

TEST(BenchArgsDeathTest, TelemetryRejectedWhereNotWritten) {
  // A binary that writes no telemetry must not accept the flag and ignore it.
  Argv bare({"bin", "--telemetry"});
  EXPECT_EXIT(ParseBenchArgs(bare.argc(), bare.argv()), ::testing::ExitedWithCode(2),
              "unknown argument '--telemetry'");
  Argv dir({"bin", "--telemetry=tdir"});
  EXPECT_EXIT(ParseBenchArgs(dir.argc(), dir.argv()), ::testing::ExitedWithCode(2),
              "unknown argument '--telemetry=tdir'");
}

TEST(BenchArgsDeathTest, TelemetryLookalikesAreUnknown) {
  // --telemetry is the one telemetry flag: a longer flag sharing its prefix
  // is unknown even where --telemetry is accepted.
  Argv bare({"bin", "--telemetry-spans"});
  EXPECT_EXIT(ParseBenchArgs(bare.argc(), bare.argv(), TelemetryFlag::kAccepted),
              ::testing::ExitedWithCode(2), "unknown argument '--telemetry-spans'");
  Argv dir({"bin", "--telemetry-dir=tdir"});
  EXPECT_EXIT(ParseBenchArgs(dir.argc(), dir.argv(), TelemetryFlag::kAccepted),
              ::testing::ExitedWithCode(2), "unknown argument '--telemetry-dir=tdir'");
}

TEST(BenchWriteDeathTest, UnwritablePathIsHardError) {
  // A regular file where the output directory should be: neither the
  // directory nor the artifact can be created.
  std::string blocker = ::testing::TempDir() + "bench_util_test_blocker";
  std::ofstream(blocker) << "not a directory";
  BenchOptions opts;
  opts.out_dir = blocker + "/sub";
  EXPECT_EXIT(WriteFile(opts, "a.csv", "x\n"), ::testing::ExitedWithCode(1),
              "cannot write .*bench_util_test_blocker/sub/a.csv");
  BenchReport report;
  report.bench = "unit";
  EXPECT_EXIT(report.Write(opts), ::testing::ExitedWithCode(1), "BENCH_unit.json");
  EXPECT_EXIT(WriteArtifact(blocker + "/sub/stream.jsonl", "{}\n"), ::testing::ExitedWithCode(1),
              "cannot write .*bench_util_test_blocker/sub/stream.jsonl");
  std::remove(blocker.c_str());
}

TEST(BenchWriteDeathTest, UnwritableTelemetryIsHardError) {
  // The --telemetry reports take the same exit(1) path as any artifact:
  // never a warning followed by a successful exit.
  std::string blocker = ::testing::TempDir() + "bench_util_test_telemetry_blocker";
  std::ofstream(blocker) << "not a directory";
  BenchOptions opts;
  opts.telemetry_dir = blocker + "/sub";
  Topology topo = Topology::Flat(1, 2, 1);
  TelemetrySession telemetry(topo.n_cores());
  AttachTelemetryStream(opts, &telemetry, topo, "t_");
  Simulator sim(topo, Simulator::Options{}, telemetry.sink());
  sim.Run(Milliseconds(1));
  EXPECT_EXIT(WriteTelemetry(opts, &telemetry, sim.sched(), sim.Now(), "t_"),
              ::testing::ExitedWithCode(1),
              "cannot write .*bench_util_test_telemetry_blocker/sub/t_schedstat.txt");
  std::remove(blocker.c_str());
}

TEST(BenchNumericFlags, ParsesValidValues) {
  EXPECT_EQ(ParseIntFlag("threads", "", 8, 1, 64), 8);  // Empty = default.
  EXPECT_EQ(ParseIntFlag("threads", "16", 8, 1, 64), 16);
  EXPECT_EQ(ParseIntFlag("delta", "-3", 0, -10, 10), -3);
  EXPECT_EQ(ParseU64Flag("seed", "", 42u), 42u);
  EXPECT_EQ(ParseU64Flag("seed", "18446744073709551615", 0), UINT64_MAX);
  EXPECT_EQ(ParseDoubleFlag("scale", "", 0.25, 0.0, 10.0), 0.25);
  EXPECT_EQ(ParseDoubleFlag("scale", "0.5", 0.25, 0.0, 10.0), 0.5);
}

TEST(BenchNumericFlagsDeathTest, MalformedValuesAreHardErrors) {
  // The bugfix contract: a typo'd numeric flag takes the same exit(2)
  // hard-error path as an unknown flag — never an uncaught std::stoi throw.
  EXPECT_EXIT(ParseIntFlag("threads", "abc", 1, 1, 64), ::testing::ExitedWithCode(2),
              "invalid value 'abc' for --threads");
  EXPECT_EXIT(ParseIntFlag("threads", "12junk", 1, 1, 64), ::testing::ExitedWithCode(2),
              "invalid value");
}

TEST(BenchNumericFlagsDeathTest, RangeViolationsAreHardErrors) {
  EXPECT_EXIT(ParseIntFlag("threads", "0", 1, 1, 64), ::testing::ExitedWithCode(2),
              "an integer in \\[1, 64\\]");
  EXPECT_EXIT(ParseIntFlag("threads", "9999999999999999999999", 1, 1, 64),
              ::testing::ExitedWithCode(2), "invalid value");
  EXPECT_EXIT(ParseU64Flag("seed", "-1", 0), ::testing::ExitedWithCode(2),
              "an unsigned integer");
  EXPECT_EXIT(ParseU64Flag("seed", "1.5", 0), ::testing::ExitedWithCode(2),
              "an unsigned integer");
  EXPECT_EXIT(ParseDoubleFlag("scale", "nan", 1, 0, 10), ::testing::ExitedWithCode(2),
              "a number in");
  EXPECT_EXIT(ParseDoubleFlag("scale", "11", 1, 0, 10), ::testing::ExitedWithCode(2),
              "a number in \\[0, 10\\]");
  EXPECT_EXIT(ParseDoubleFlag("scale", "x", 1, 0, 10), ::testing::ExitedWithCode(2),
              "invalid value 'x' for --scale");
}

TEST(BenchHostCores, AlwaysAtLeastOne) {
  // The detection-failure bugfix: whatever hardware_concurrency() says, the
  // value recorded and used is >= 1, and `detected` says which case we hit.
  HostCores host = DetectHostCores();
  EXPECT_GE(host.cores, 1);
  if (!host.detected) {
    EXPECT_EQ(host.cores, 1);  // Fallback value is what gets reported.
  }
}

TEST(BenchJson, EscapesStrings) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(BenchJson, NumbersRoundTrip) {
  EXPECT_EQ(JsonNumber(4), "4");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  // A value %g cannot represent exactly falls back to %.17g.
  double v = 1.0 / 3.0;
  EXPECT_EQ(std::strtod(JsonNumber(v).c_str(), nullptr), v);
}

TEST(BenchJson, ReportIsValidJson) {
  BenchReport report;
  report.bench = "unit";
  report.context["build"] = "test";
  report.context_num["host_cores"] = 8;
  BenchReport::Row row;
  row.name = "case/one";
  row.metrics["wall_ms"] = 12.5;
  row.labels["hash"] = "00ff";
  report.rows.push_back(row);
  row.name = "case/two";
  report.rows.push_back(row);

  JsonValue root;
  std::string error;
  ASSERT_TRUE(ParseJson(report.ToJson(), &root, &error)) << error;
  const JsonValue* bench = root.Find("bench");
  ASSERT_NE(bench, nullptr);
  EXPECT_EQ(bench->str, "unit");
  const JsonValue* results = root.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), 2u);
  const JsonValue* wall = results->array[0].Find("wall_ms");
  ASSERT_NE(wall, nullptr);
  EXPECT_DOUBLE_EQ(wall->number, 12.5);
  const JsonValue* ctx = root.Find("context");
  ASSERT_NE(ctx, nullptr);
  ASSERT_NE(ctx->Find("host_cores"), nullptr);
  EXPECT_DOUBLE_EQ(ctx->Find("host_cores")->number, 8);
}

}  // namespace
}  // namespace wcores

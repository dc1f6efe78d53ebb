// Determinism regression tests (the gate for hot-path optimizations).
//
// Two guarantees, checked over the figure/table scenario matrix plus a few
// random scenarios, at two sizes:
//  1. Replay: the same scenario run twice produces bit-identical trace
//     streams (equal TraceHashSink digests and event counts).
//  2. Goldens: the digests match the checked-in values below, so any
//     change to scheduler behavior — including an "optimization" that
//     reorders decisions or perturbs a double by 1 ulp — fails loudly.
//     The golden values were recorded before the rb-tree hint-insert,
//     event-pool, and RqLoad-cache optimizations; those must not move them.
//
// To regenerate after an *intentional* behavior change, copy the
// per-scenario hashes that sweep_driver prints:
//   build/bench/sweep_driver --scale=0.1 --random=2   for kGoldens
//   build/bench/sweep_driver                          for kSweepMatrixGoldens
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <string>

#include "src/tools/sweep/scenario.h"
#include "src/tools/sweep/sweep.h"

namespace wcores {
namespace {

constexpr double kScale = 0.1;
constexpr uint64_t kRandomSeed = 99;
constexpr int kRandomCount = 2;

std::vector<Scenario> Matrix(double scale, int random_count) {
  std::vector<Scenario> scenarios = FigureScenarios(scale);
  for (Scenario& s : RandomScenarios(kRandomSeed, random_count)) {
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

std::vector<Scenario> TestScenarios() { return Matrix(kScale, kRandomCount); }

// A hash as the C++ literal a golden table holds.
std::string HashLiteral(uint64_t hash) {
  char out[32];
  std::snprintf(out, sizeof(out), "0x%016llxULL", static_cast<unsigned long long>(hash));
  return out;
}

struct Golden {
  const char* name;
  uint64_t hash;
};

// Recorded from the pre-optimization scheduler paths; see file comment.
constexpr Golden kGoldens[] = {
    {"fig2_make_r/stock", 0xcf0d9850fa7837c7ULL},
    {"fig2_make_r/fixed", 0xb11a322f54385baaULL},
    {"fig3_tpch_q18/stock", 0x13d8558978a9f01dULL},
    {"fig3_tpch_q18/fixed", 0x329eae5dcecb0cf8ULL},
    {"table1_nas_cg/stock", 0xf6aae0c10484b70fULL},
    {"table1_nas_cg/fixed", 0xf6aae0c10484b70fULL},
    {"table3_nas_lu/stock", 0xdb6f8a5275531cd7ULL},
    {"table3_nas_lu/fixed", 0xcd8ca251dff34cf4ULL},
    {"random_mix/stock", 0x14ccd2d2fe6f32a0ULL},
    {"random_mix/fixed", 0xcf17e07bf6a12b97ULL},
    {"random/99-0", 0xb4d23d40a72170d5ULL},
    {"random/99-1", 0x2bec4c17f66584e5ULL},
};

// sweep_driver's default matrix, FigureScenarios(0.25) then
// RandomScenarios(99, 6), in sweep order.
constexpr double kSweepScale = 0.25;
constexpr int kSweepRandomCount = 6;
constexpr uint64_t kSweepMatrixGoldens[] = {
    0x6add9a70832b3277ULL,  // fig2_make_r/stock
    0x5535436ef061439aULL,  // fig2_make_r/fixed
    0x56596b16877f0d18ULL,  // fig3_tpch_q18/stock
    0x91b5b3ba6d1ca67dULL,  // fig3_tpch_q18/fixed
    0x686d5184cc949ebdULL,  // table1_nas_cg/stock
    0x686d5184cc949ebdULL,  // table1_nas_cg/fixed
    0xa9df2a6a6473283aULL,  // table3_nas_lu/stock
    0xe0d6b18956ca1518ULL,  // table3_nas_lu/fixed
    0x46b6f6c19b29f067ULL,  // random_mix/stock
    0xb96252d07035aa9eULL,  // random_mix/fixed
    // The random mixes with seeds 99-0 through 99-5.
    0xb4d23d40a72170d5ULL, 0x2bec4c17f66584e5ULL, 0xcfaf97fb36517873ULL,
    0xbcaeb63efd79022dULL, 0x0337f74a249e1778ULL, 0x0eb5443b941ae183ULL,
};

TEST(Determinism, SameSeedSameTrace) {
  for (const Scenario& s : TestScenarios()) {
    SCOPED_TRACE(s.name);
    ScenarioResult first = RunScenario(s);
    ScenarioResult second = RunScenario(s);
    EXPECT_EQ(first.trace_hash, second.trace_hash);
    EXPECT_EQ(first.trace_events, second.trace_events);
    EXPECT_EQ(first.sim_events, second.sim_events);
    EXPECT_EQ(first.context_switches, second.context_switches);
    EXPECT_GT(first.trace_events, 0u) << "scenario produced no trace at all";
  }
}

TEST(Determinism, GoldenHashesUnchanged) {
  std::map<std::string, uint64_t> expected;
  for (const Golden& g : kGoldens) {
    expected[g.name] = g.hash;
  }
  std::vector<Scenario> scenarios = TestScenarios();
  ASSERT_EQ(scenarios.size(), expected.size()) << "scenario matrix changed; regenerate goldens";
  for (const Scenario& s : scenarios) {
    SCOPED_TRACE(s.name);
    ScenarioResult r = RunScenario(s);
    auto it = expected.find(s.name);
    ASSERT_NE(it, expected.end()) << "no golden for scenario " << s.name;
    EXPECT_EQ(r.trace_hash, it->second)
        << "scheduler behavior changed for " << s.name << "; actual hash "
        << HashLiteral(r.trace_hash) << " (regenerate goldens only for intentional changes)";
  }
}

// The sweep driver's default matrix, run as the driver runs it, hashes to
// the pinned values.
TEST(Determinism, SweepMatrixGoldens) {
  SweepOptions opts;
  opts.threads = 1;
  SweepReport report = RunSweep(Matrix(kSweepScale, kSweepRandomCount), opts);
  ASSERT_EQ(report.results.size(), std::size(kSweepMatrixGoldens))
      << "scenario matrix changed; regenerate goldens";
  for (size_t i = 0; i < report.results.size(); ++i) {
    const ScenarioResult& r = report.results[i];
    EXPECT_EQ(r.trace_hash, kSweepMatrixGoldens[i])
        << "scheduler behavior changed for " << r.name << "; actual hash "
        << HashLiteral(r.trace_hash) << " (regenerate goldens only for intentional changes)";
  }
}

// The streaming pipeline is a pure observer: attaching it to every golden
// scenario must not move a single trace hash, and the stream itself must
// honor its own contract (every event analyzed, within budget).
TEST(Determinism, StreamIsPureObserver) {
  std::map<std::string, uint64_t> expected;
  for (const Golden& g : kGoldens) {
    expected[g.name] = g.hash;
  }
  for (Scenario s : TestScenarios()) {
    s.stream = true;
    SCOPED_TRACE(s.name);
    ScenarioResult r = RunScenario(s);
    auto it = expected.find(s.name);
    ASSERT_NE(it, expected.end());
    EXPECT_EQ(r.trace_hash, it->second) << "attaching the stream changed the trace";
    EXPECT_EQ(r.stream_events, r.trace_events) << "stream missed or invented events";
    EXPECT_TRUE(r.stream_within_budget);
    EXPECT_FALSE(r.stream_summary.empty());
  }
}

// Parallel execution must be invisible in the results: the sweep at any
// worker count produces the same ordered result set.
TEST(Determinism, SweepThreadCountInvariance) {
  std::vector<Scenario> scenarios = TestScenarios();
  SweepOptions one;
  one.threads = 1;
  SweepReport base = RunSweep(scenarios, one);
  for (int threads : {2, 4}) {
    SweepOptions opts;
    opts.threads = threads;
    SweepReport r = RunSweep(scenarios, opts);
    EXPECT_EQ(base.CombinedHash(), r.CombinedHash()) << "threads=" << threads;
    ASSERT_EQ(base.results.size(), r.results.size());
    for (size_t i = 0; i < r.results.size(); ++i) {
      EXPECT_EQ(base.results[i].name, r.results[i].name);
      EXPECT_EQ(base.results[i].trace_hash, r.results[i].trace_hash);
    }
  }
}

}  // namespace
}  // namespace wcores

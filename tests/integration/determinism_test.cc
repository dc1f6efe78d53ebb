// Determinism regression tests (the gate for hot-path optimizations).
//
// Two guarantees, checked over the figure/table scenario matrix plus a few
// random scenarios:
//  1. Replay: the same scenario run twice produces bit-identical trace
//     streams (equal TraceHashSink digests and event counts).
//  2. Goldens: the digests match the checked-in values below, so any
//     change to scheduler behavior — including an "optimization" that
//     reorders decisions or perturbs a double by 1 ulp — fails loudly.
//     The golden values were recorded before the rb-tree hint-insert,
//     event-pool, and RqLoad-cache optimizations; those must not move them.
//
// To regenerate after an *intentional* behavior change:
//   build/bench/sweep_driver --scale=0.1 --random=2 --seed=99 --threads=1
// and copy the per-scenario hashes printed (and written to BENCH_sweep.json).
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "src/tools/sweep/scenario.h"
#include "src/tools/sweep/sweep.h"

namespace wcores {
namespace {

constexpr double kScale = 0.1;
constexpr uint64_t kRandomSeed = 99;
constexpr int kRandomCount = 2;

std::vector<Scenario> TestScenarios() {
  std::vector<Scenario> scenarios = FigureScenarios(kScale);
  for (Scenario& s : RandomScenarios(kRandomSeed, kRandomCount)) {
    scenarios.push_back(std::move(s));
  }
  return scenarios;
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
    char actual[32];
    std::snprintf(actual, sizeof(actual), "0x%016llxULL",
                  static_cast<unsigned long long>(r.trace_hash));
    EXPECT_EQ(r.trace_hash, it->second)
        << "scheduler behavior changed for " << s.name << "; actual hash " << actual
        << " (regenerate goldens only for intentional changes)";
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

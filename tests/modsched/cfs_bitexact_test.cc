// Bit-exactness regression for CfsPolicy behind the policy interface.
//
// The arena refactor moved every scheduling decision behind virtual
// SchedPolicy hooks whose defaults delegate to the Scheduler's public CFS
// mechanism methods. Two things pin that this is a pure refactor:
//
//  1. The twelve pre-arena golden trace hashes, re-asserted here with the
//     policy explicitly routed through the registry ("cfs"), so the
//     registry-owned CfsPolicy reproduces the seed traces byte-identically.
//  2. An event-level differential between the scheduler's built-in
//     CfsPolicy (a null Simulator::Options::policy) and a registry
//     instance, with a full EventRecorder attached; on any divergence the
//     failure message prints the FIRST diverging event (index, time, kind,
//     cpu, tid, value), which is the diagnostic a hash alone cannot give.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/modsched/policy_registry.h"
#include "src/sim/simulator.h"
#include "src/simkit/rng.h"
#include "src/tools/recorder.h"
#include "src/tools/sweep/scenario.h"
#include "tests/modsched/conformance_harness.h"

namespace wcores {
namespace {

// The pre-arena seed goldens (tests/integration/determinism_test.cc), which
// date from before SchedPolicy existed. Duplicated on purpose: if both
// copies are "regenerated" in one commit, the diff shows it.
struct Golden {
  const char* name;
  uint64_t hash;
};
constexpr Golden kSeedGoldens[] = {
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

std::vector<Scenario> GoldenMatrix() {
  std::vector<Scenario> scenarios = FigureScenarios(0.1);
  for (Scenario& s : RandomScenarios(99, 2)) {
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

TEST(CfsBitExact, RegistryCfsReproducesSeedGoldens) {
  std::map<std::string, uint64_t> expected;
  for (const Golden& g : kSeedGoldens) {
    expected[g.name] = g.hash;
  }
  for (Scenario& s : GoldenMatrix()) {
    SCOPED_TRACE(s.name);
    s.policy = "cfs";  // Explicitly through the registry.
    ScenarioResult r = RunScenario(s);
    auto it = expected.find(s.name);
    ASSERT_NE(it, expected.end()) << "no seed golden for " << s.name;
    EXPECT_EQ(r.trace_hash, it->second)
        << "CfsPolicy behind the interface diverged from the pre-arena trace";
  }
}

const char* KindName(TraceEvent::Kind k) {
  switch (k) {
    case TraceEvent::Kind::kNrRunning: return "nr_running";
    case TraceEvent::Kind::kLoad: return "load";
    case TraceEvent::Kind::kConsidered: return "considered";
    case TraceEvent::Kind::kMigration: return "migration";
    case TraceEvent::Kind::kSwitchIn: return "switch_in";
    case TraceEvent::Kind::kSwitchOut: return "switch_out";
    case TraceEvent::Kind::kWakeupLatency: return "wakeup_latency";
    case TraceEvent::Kind::kIdleEnter: return "idle_enter";
    case TraceEvent::Kind::kIdleExit: return "idle_exit";
  }
  return "?";
}

std::string Describe(size_t i, const TraceEvent& e) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "event[%zu] t=%lld kind=%s sub=%u cpu=%d cpu2=%d tid=%d value=%.17g",
                i, static_cast<long long>(e.when), KindName(e.kind), e.sub, e.cpu, e.cpu2,
                e.tid, e.value);
  return buf;
}

// The same trace event, field by field.
bool SameEvent(const TraceEvent& a, const TraceEvent& b) {
  return a.when == b.when && a.kind == b.kind && a.sub == b.sub && a.cpu == b.cpu &&
         a.cpu2 == b.cpu2 && a.tid == b.tid && a.value == b.value && a.considered == b.considered;
}

// Event-level differential between the two CFS ownership paths. A hash
// mismatch says "something moved"; this test says *what* moved first.
TEST(CfsBitExact, FirstDivergingEventIsPrintedOnMismatch) {
  uint64_t base = conformance::BaseSeed() + 31000ULL;
  for (int run = 0; run < 3; ++run) {
    uint64_t seed = base + static_cast<uint64_t>(run);
    SCOPED_TRACE(conformance::ReproCommand("cfs", seed));

    auto record = [&](SchedPolicy* policy) {
      uint64_t sm = seed;
      Rng rng(SplitMix64(sm));
      Topology topo = conformance::RandomTopology(rng);
      Simulator::Options opts;
      opts.features = conformance::RandomFeatures(rng);
      opts.seed = seed;
      opts.policy = policy;
      auto recorder = std::make_unique<EventRecorder>();
      Simulator sim(topo, opts, recorder.get());
      conformance::SpawnRandomMix(sim, rng, static_cast<int>(rng.NextInRange(6, 48)));
      sim.Run(Milliseconds(120));
      EXPECT_EQ(recorder->dropped(), 0u);
      return recorder;
    };

    std::unique_ptr<EventRecorder> builtin = record(nullptr);
    std::unique_ptr<SchedPolicy> cfs = CreateSchedPolicy("cfs");
    ASSERT_NE(cfs, nullptr);
    std::unique_ptr<EventRecorder> registry = record(cfs.get());

    const std::vector<TraceEvent>& a = builtin->events();
    const std::vector<TraceEvent>& b = registry->events();
    size_t n = a.size() < b.size() ? a.size() : b.size();
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(SameEvent(a[i], b[i]))
          << "first diverging event:\n  builtin:  " << Describe(i, a[i])
          << "\n  registry: " << Describe(i, b[i]);
    }
    ASSERT_EQ(a.size(), b.size())
        << "traces are a prefix of each other; first extra event:\n  "
        << (a.size() > b.size() ? Describe(n, a[n]) : Describe(n, b[n]));
    ASSERT_GT(a.size(), 1000u) << "differential run produced too little trace to mean anything";
  }
}

}  // namespace
}  // namespace wcores

// Unit tests for the sweep subsystem: the trace digest, scenario running,
// and the parallel runner's ordering/clamping behavior. The heavyweight
// determinism properties live in tests/integration/determinism_test.cc.
#include <gtest/gtest.h>

#include "src/simkit/rng.h"
#include "src/tools/sweep/scenario.h"
#include "src/tools/sweep/sweep.h"
#include "src/tools/sweep/trace_hash.h"

namespace wcores {
namespace {

TEST(Fnv1a, EmptyIsOffsetBasis) {
  Fnv1a fnv;
  EXPECT_EQ(fnv.digest(), Fnv1a::kOffset);
}

TEST(Fnv1a, OrderSensitive) {
  Fnv1a ab;
  ab.Mix(1);
  ab.Mix(2);
  Fnv1a ba;
  ba.Mix(2);
  ba.Mix(1);
  EXPECT_NE(ab.digest(), ba.digest());
}

TEST(Fnv1a, NegativeZeroCollapses) {
  Fnv1a pos;
  pos.MixDouble(0.0);
  Fnv1a neg;
  neg.MixDouble(-0.0);
  EXPECT_EQ(pos.digest(), neg.digest());
}

TEST(Fnv1a, OneUlpChangesDigest) {
  Fnv1a a;
  a.MixDouble(1.5);
  Fnv1a b;
  b.MixDouble(1.5000000000000002);  // 1.5 + 1 ulp.
  EXPECT_NE(a.digest(), b.digest());
}

// Mix collapses zero-byte rounds into powers of the prime; it must equal the
// textbook FNV-1a: eight rounds of h = (h ^ byte) * prime, bytes LSB-first.
TEST(Fnv1a, MatchesCanonicalByteRounds) {
  uint64_t reference = Fnv1a::kOffset;
  Fnv1a fnv;
  auto mix_both = [&](uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      reference = (reference ^ ((value >> (8 * i)) & 0xff)) * Fnv1a::kPrime;
    }
    fnv.Mix(value);
    ASSERT_EQ(fnv.digest(), reference) << "after mixing 0x" << std::hex << value;
  };

  for (uint64_t v = 0; v <= 256; ++v) {
    mix_both(v);
  }
  mix_both(~0ULL);
  // Interior zero bytes, leading zero bytes and a zero top byte.
  for (uint64_t v : {0x0100000000000001ULL, 0xff00ff00ff00ff00ULL, 0x00ff00ff00ff00ffULL,
                     0x8000000000000000ULL, 0x0000010000000000ULL, 0x1200003400000056ULL,
                     0x00000000ffffffffULL, 0xffffffff00000000ULL}) {
    mix_both(v);
  }
  Rng rng(4242);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.Next();
    // Knock out a random subset of bytes, so zero runs appear at every
    // position and length.
    uint64_t keep = rng.Next();
    for (int b = 0; b < 8; ++b) {
      if ((keep >> b & 1) == 0) {
        v &= ~(0xffULL << (8 * b));
      }
    }
    mix_both(rng.NextBool(0.5) ? v : rng.Next());
  }
}

TEST(TraceHashSink, IdenticalStreamsIdenticalDigests) {
  TraceHashSink a;
  TraceHashSink b;
  for (TraceHashSink* sink : {&a, &b}) {
    sink->OnNrRunning(10, 0, 2);
    sink->OnSwitchIn(10, 0, 5, 3);
    sink->OnLoad(11, 0, 1.25);
    sink->OnIdleEnter(12, 1);
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.events(), 4u);
  EXPECT_EQ(b.events(), 4u);
}

TEST(TraceHashSink, CallbackKindIsTagged) {
  // Same payload through two different callbacks must not collide.
  TraceHashSink enter;
  enter.OnIdleEnter(10, 3);
  TraceHashSink nr;
  nr.OnNrRunning(10, 3, 0);
  EXPECT_NE(enter.digest(), nr.digest());
}

TEST(Scenario, RunProducesActivity) {
  Scenario s;
  s.name = "unit";
  s.topo = Scenario::Topo::kFlat1x4;
  s.workload = Scenario::Workload::kRandomMix;
  s.mix_threads = 8;
  s.seed = 5;
  s.horizon = Milliseconds(50);
  ScenarioResult r = RunScenario(s);
  EXPECT_EQ(r.name, "unit");
  EXPECT_GT(r.trace_events, 0u);
  EXPECT_GT(r.sim_events, 0u);
  EXPECT_GT(r.context_switches, 0u);
  EXPECT_GT(r.virtual_seconds, 0.0);
}

TEST(Sweep, ResultsKeepInputOrder) {
  std::vector<Scenario> scenarios = RandomScenarios(11, 5);
  for (Scenario& s : scenarios) {
    s.horizon = Milliseconds(20);  // Keep the unit test fast.
  }
  SweepOptions opts;
  opts.threads = 4;
  SweepReport report = RunSweep(scenarios, opts);
  ASSERT_EQ(report.results.size(), scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(report.results[i].name, scenarios[i].name);
  }
  EXPECT_GT(report.TotalSimEvents(), 0u);
}

TEST(Sweep, ThreadCountClampedToScenarios) {
  std::vector<Scenario> scenarios = RandomScenarios(3, 2);
  for (Scenario& s : scenarios) {
    s.horizon = Milliseconds(10);
  }
  SweepOptions opts;
  opts.threads = 64;
  SweepReport report = RunSweep(scenarios, opts);
  EXPECT_EQ(report.threads, 2);
  opts.threads = 0;
  report = RunSweep(scenarios, opts);
  EXPECT_EQ(report.threads, 1);
}

TEST(SweepDeathTest, DuplicateScenarioNamesAreRejected) {
  // Scenario::name keys result rows, golden tables, and the fleet receipt
  // store; a silent alias would corrupt all three.
  std::vector<Scenario> scenarios = RandomScenarios(5, 2);
  scenarios[1].name = scenarios[0].name;
  EXPECT_DEATH(RunSweep(scenarios, SweepOptions{}), "duplicate scenario name");
}

TEST(Sweep, EmptyBatch) {
  SweepReport report = RunSweep({}, SweepOptions{});
  EXPECT_TRUE(report.results.empty());
  EXPECT_EQ(report.CombinedHash(), Fnv1a::kOffset);
  EXPECT_EQ(report.TotalSimEvents(), 0u);
}

TEST(Sweep, FigureScenariosCoverStockAndFixed) {
  std::vector<Scenario> scenarios = FigureScenarios(1.0);
  ASSERT_EQ(scenarios.size() % 2, 0u);
  for (size_t i = 0; i < scenarios.size(); i += 2) {
    EXPECT_NE(scenarios[i].name.find("/stock"), std::string::npos);
    EXPECT_NE(scenarios[i + 1].name.find("/fixed"), std::string::npos);
    EXPECT_FALSE(scenarios[i].features.fix_group_imbalance);
    EXPECT_TRUE(scenarios[i + 1].features.fix_group_imbalance);
  }
}

}  // namespace
}  // namespace wcores

// Directed fuzz tests around the sanity checker and the idle-cpu index.
// The randomized invariant fuzzer itself is the conformance harness
// (tests/modsched/conformance_harness.h), run under every policy by
// PolicyConformance.MechanismInvariants*; these two tests borrow its
// generators and oracles. WC_FUZZ_SEED moves the hotplug test's seed.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/sim/simulator.h"
#include "src/simkit/rng.h"
#include "src/tools/sanity_checker.h"
#include "src/topo/topology.h"
#include "tests/modsched/conformance_harness.h"

namespace wcores {
namespace {

using conformance::BaseSeed;
using conformance::RandomFeatures;
using conformance::ReproCommand;
using conformance::ScanLongestIdle;
using conformance::SpawnRandomMix;

// Pin every thread to one core of a 4-core machine, so
// three cores idle while the pinned runqueue stacks up. The sanity checker
// must NOT fire (affinity forbids stealing); un-pinning one thread via a
// fresh unpinned spawn must make it fire at the next check.
TEST(FuzzInvariants, SanityCheckerFiresOnStealableBacklog) {
  Topology topo = Topology::Flat(1, 4);
  Simulator::Options opts;
  opts.seed = 7;
  Simulator sim(topo, opts);

  Simulator::SpawnParams pinned;
  pinned.affinity = CpuSet::Single(0);
  pinned.parent_cpu = 0;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(1)}}),
              pinned);
  }
  sim.Run(Milliseconds(1));

  SanityChecker checker(&sim);
  CpuId idle_cpu = kInvalidCpu;
  CpuId overloaded_cpu = kInvalidCpu;
  EXPECT_FALSE(checker.CheckOnce(&idle_cpu, &overloaded_cpu))
      << "checker fired although every queued thread is pinned to the busy core";

  // An unpinned hog spawned onto the overloaded core is stealable; between
  // its enqueue and the next balancing pass the invariant is violated.
  Simulator::SpawnParams unpinned;
  unpinned.parent_cpu = 0;
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(1)}}),
            unpinned);
  ASSERT_GE(sim.sched().NrRunning(0), 2);
  bool any_idle = false;
  for (CpuId c = 1; c < 4; ++c) {
    any_idle = any_idle || sim.sched().IsIdleCpu(c);
  }
  if (any_idle) {
    EXPECT_TRUE(checker.CheckOnce(&idle_cpu, &overloaded_cpu))
        << "a core idles while cpu0 holds an unpinned waiting thread";
    EXPECT_EQ(overloaded_cpu, 0);
  }
}

// Regression (idle state vs. hotplug): repeatedly offline and online the
// exact cpu LongestIdleCpu answers with — where a stale tickless bit on an
// offline cpu would leak into every later answer — and cross-check the
// answer against the linear scan after every transition and after
// scheduler activity in between.
TEST(FuzzInvariants, IdleIndexSurvivesHotplugOfLongestIdleAnswer) {
  constexpr uint64_t kSeedOffset = 4242;
  uint64_t seed = BaseSeed() + kSeedOffset;
  SCOPED_TRACE(ReproCommand("directed", seed, kSeedOffset));
  uint64_t sm = seed;
  Rng rng(SplitMix64(sm));

  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options opts;
  opts.features = RandomFeatures(rng);
  opts.features.fix_overload_wakeup = true;  // Wakeups call LongestIdleCpu too.
  opts.seed = seed;
  Simulator sim(topo, opts);
  SpawnRandomMix(sim, rng, 24);
  sim.Run(Milliseconds(5));

  const int n_cores = topo.n_cores();
  int offlined_rounds = 0;
  for (int round = 0; round < 40 && !::testing::Test::HasFatalFailure(); ++round) {
    const Scheduler& sched = sim.sched();
    ASSERT_EQ(sched.LongestIdleCpu(topo.AllCpus()), ScanLongestIdle(sched, n_cores))
        << "round " << round << " before hotplug";
    CpuId victim = sched.LongestIdleCpu(topo.AllCpus());
    if (victim == kInvalidCpu) {
      sim.Run(sim.Now() + Microseconds(700));
      continue;
    }
    offlined_rounds += 1;

    sim.SetCpuOnline(victim, false);
    ASSERT_TRUE(sched.ValidateStatMirrors()) << "round " << round << " after offlining " << victim;
    ASSERT_EQ(sched.LongestIdleCpu(topo.AllCpus()), ScanLongestIdle(sched, n_cores))
        << "round " << round << " with cpu " << victim << " offline";
    ASSERT_NE(sched.LongestIdleCpu(topo.AllCpus()), victim);

    // Let wakeups, ticks, and balancing run against the shrunken topology.
    sim.Run(sim.Now() + rng.NextTime(Microseconds(300), Milliseconds(2)));
    ASSERT_TRUE(sched.ValidateStatMirrors()) << "round " << round;
    ASSERT_EQ(sched.LongestIdleCpu(topo.AllCpus()), ScanLongestIdle(sched, n_cores))
        << "round " << round << " after running with cpu " << victim << " offline";

    sim.SetCpuOnline(victim, true);
    ASSERT_TRUE(sched.ValidateStatMirrors()) << "round " << round << " after onlining " << victim;
    ASSERT_EQ(sched.LongestIdleCpu(topo.AllCpus()), ScanLongestIdle(sched, n_cores))
        << "round " << round << " with cpu " << victim << " back online";

    sim.Run(sim.Now() + rng.NextTime(Microseconds(300), Milliseconds(2)));
  }
  EXPECT_GT(offlined_rounds, 10) << "machine was never idle enough to exercise hotplug";
}

}  // namespace
}  // namespace wcores

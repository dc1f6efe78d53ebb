// Property-based suites: invariants that must hold across parameter sweeps.
//
//  * Work conservation: with all fixes applied, no long-term
//    idle-while-overloaded episodes survive, across topologies, workload
//    shapes, and seeds (TEST_P sweeps).
//  * Conservation of work: total compute consumed equals what was offered.
//  * Accounting: busy time equals the sum of thread run time.
//
// Same seed, same trace is Determinism.SameSeedSameTrace (determinism_test.cc).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "src/sim/simulator.h"
#include "src/tools/sanity_checker.h"
#include "src/topo/topology.h"
#include "src/workloads/behaviors.h"

namespace wcores {
namespace {

// ---- Work conservation under the fixed scheduler ------------------------------

class WorkConservationTest
    : public ::testing::TestWithParam<std::tuple<int /*nodes*/, int /*threads*/, uint64_t>> {};

TEST_P(WorkConservationTest, NoLongTermViolationWithAllFixes) {
  auto [nodes, threads, seed] = GetParam();
  Topology topo = Topology::Flat(nodes, 4, 2);
  Simulator::Options opts;
  opts.features = SchedFeatures::AllFixed();
  opts.seed = seed;
  Simulator sim(topo, opts);
  // A mixed workload: hogs + sleepers, all forked from one core.
  Rng rng(seed);
  for (int i = 0; i < threads; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = 0;
    if (rng.NextBool(0.5)) {
      sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(4)}}),
                params);
    } else {
      sim.Spawn(std::make_unique<ScriptBehavior>(
                    std::vector<Action>{ComputeAction{Milliseconds(3)},
                                        SleepAction{Milliseconds(1)}},
                    /*repeat=*/1000),
                params);
    }
  }
  SanityChecker::Options copts;
  copts.check_interval = Milliseconds(200);
  copts.confirmation_window = Milliseconds(100);
  SanityChecker checker(&sim, copts);
  checker.Start();
  sim.Run(Seconds(3));
  EXPECT_TRUE(checker.violations().empty())
      << "nodes=" << nodes << " threads=" << threads << " seed=" << seed
      << " first: " << SanityChecker::Report(checker.violations().front());
}

INSTANTIATE_TEST_SUITE_P(Sweep, WorkConservationTest,
                         ::testing::Combine(::testing::Values(1, 2, 4),
                                            ::testing::Values(6, 16, 40),
                                            ::testing::Values(1u, 2u, 3u)));

// ---- Conservation of compute --------------------------------------------------------

class ComputeConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(ComputeConservationTest, AllOfferedWorkIsExecuted) {
  int threads = GetParam();
  Topology topo = Topology::Flat(2, 4, 2);
  Simulator::Options opts;
  opts.seed = 77;
  Simulator sim(topo, opts);
  const Time per_thread = Milliseconds(40);
  std::vector<ThreadId> tids;
  for (int i = 0; i < threads; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = i % topo.n_cores();
    tids.push_back(sim.Spawn(
        std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{per_thread}}),
        params));
  }
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(30)));
  Time total = 0;
  for (ThreadId tid : tids) {
    EXPECT_EQ(sim.thread(tid).total_compute, per_thread) << "tid " << tid;
    total += sim.thread(tid).total_compute;
  }
  EXPECT_EQ(total, per_thread * static_cast<Time>(threads));
  // Busy accounting covers at least the productive compute (plus switches).
  EXPECT_GE(sim.accounting().TotalBusy(), total);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ComputeConservationTest,
                         ::testing::Values(1, 7, 16, 33, 64));

// ---- Oversubscription never deadlocks -------------------------------------------------

class OversubscriptionTest
    : public ::testing::TestWithParam<std::tuple<int /*threads/core*/, bool /*spin*/>> {};

TEST_P(OversubscriptionTest, BarrierAppsFinishUnderAnyOversubscription) {
  auto [per_core, spin] = GetParam();
  Topology topo = Topology::Flat(1, 4, 2);
  Simulator::Options opts;
  opts.seed = 5;
  Simulator sim(topo, opts);
  int threads = 4 * per_core;
  SyncId barrier =
      spin ? sim.CreateSpinBarrier(threads) : sim.CreateBlockingBarrier(threads);
  std::vector<ThreadId> tids;
  for (int i = 0; i < threads; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = 0;
    tids.push_back(sim.Spawn(std::make_unique<BarrierComputeBehavior>(
                                 barrier, spin ? BarrierMode::kSpin : BarrierMode::kBlock,
                                 Microseconds(500), 0.3, 30),
                             params));
  }
  EXPECT_TRUE(sim.RunUntilAllExited(Seconds(120)))
      << per_core << " threads/core, spin=" << spin;
}

INSTANTIATE_TEST_SUITE_P(Oversubscription, OversubscriptionTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Bool()));

// ---- Affinity is never violated -----------------------------------------------------

class AffinityInvarianceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AffinityInvarianceTest, PinnedThreadsNeverLeaveTheirMask) {
  // Under hotplug churn, balancing, and wakeups, a pinned thread's cpu must
  // stay inside its mask as long as the mask has online cpus.
  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options opts;
  opts.seed = GetParam();
  Simulator sim(topo, opts);
  CpuSet mask = topo.CpusOfNode(1) | topo.CpusOfNode(2);
  std::vector<ThreadId> pinned;
  for (int i = 0; i < 24; ++i) {
    Simulator::SpawnParams params;
    params.affinity = mask;
    params.parent_cpu = mask.First();
    pinned.push_back(sim.Spawn(std::make_unique<ScriptBehavior>(
                                   std::vector<Action>{ComputeAction{Milliseconds(2)},
                                                       SleepAction{Microseconds(500)}},
                                   /*repeat=*/200),
                               params));
  }
  // Unpinned churn + a hotplug of an out-of-mask core mid-run.
  for (int i = 0; i < 32; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = static_cast<CpuId>(i % topo.n_cores());
    sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(1)}}),
              params);
  }
  sim.At(Milliseconds(100), [&] { sim.SetCpuOnline(0, false); });
  sim.At(Milliseconds(200), [&] { sim.SetCpuOnline(0, true); });
  bool violated = false;
  // The check needs four locals; park them in a context struct on the stack
  // (it outlives every event — sim.Run returns before the scope ends) so the
  // callback capture is a single pointer.
  struct PinCheckCtx {
    Simulator* sim;
    const std::vector<ThreadId>* pinned;
    const CpuSet* mask;
    bool* violated;
  } ctx{&sim, &pinned, &mask, &violated};
  for (Time t = Milliseconds(20); t <= Milliseconds(900); t += Milliseconds(20)) {
    sim.At(t, [c = &ctx] {
      for (ThreadId tid : *c->pinned) {
        if (c->sim->thread(tid).Alive() && !c->mask->Test(c->sim->sched().Entity(tid).cpu)) {
          *c->violated = true;
        }
      }
    });
  }
  sim.Run(Seconds(5));
  EXPECT_FALSE(violated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffinityInvarianceTest, ::testing::Values(11u, 22u, 33u));

// ---- Hybrid barriers across grace values ------------------------------------------------

class HybridGraceTest : public ::testing::TestWithParam<int> {};

TEST_P(HybridGraceTest, HybridBarrierCompletesAndBlocksWhenSlow) {
  Time grace = Microseconds(static_cast<uint64_t>(GetParam()));
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator::Options opts;
  Simulator sim(topo, opts);
  SyncId barrier = sim.CreateSpinBarrier(2);
  // One fast arriver, one slow: the fast one spins up to `grace` then
  // blocks; both must pass.
  Simulator::SpawnParams p0;
  p0.parent_cpu = 0;
  ThreadId fast = sim.Spawn(
      std::make_unique<ScriptBehavior>(std::vector<Action>{
          ComputeAction{Milliseconds(1)}, SpinBarrierAction{barrier, grace}}),
      p0);
  Simulator::SpawnParams p1;
  p1.parent_cpu = 1;
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                ComputeAction{Milliseconds(30)}, SpinBarrierAction{barrier, grace}}),
            p1);
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(5)));
  const SimThread& t = sim.thread(fast);
  // Waited ~29ms: spun at most grace (+scheduling noise), then slept.
  EXPECT_LE(t.spin_time, grace + Milliseconds(1));
  if (grace < Milliseconds(20)) {
    EXPECT_EQ(sim.spin_barrier(barrier).sleeps, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Graces, HybridGraceTest,
                         ::testing::Values(0, 100, 1000, 5000, 50000));

}  // namespace
}  // namespace wcores

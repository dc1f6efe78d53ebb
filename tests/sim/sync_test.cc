// Deeper synchronization semantics: hand-off ordering, races between
// release and preemption, hybrid-barrier timeouts, early wakes.
#include <gtest/gtest.h>

#include <memory>

#include "src/sim/simulator.h"
#include "src/topo/topology.h"

namespace wcores {
namespace {

Simulator::Options Opts(uint64_t seed = 1) {
  Simulator::Options o;
  o.seed = seed;
  return o;
}

TEST(SpinLockSemanticsTest, UncontendedAcquireIsFree) {
  Topology topo = Topology::Flat(1, 1, 1);
  Simulator sim(topo, Opts());
  SyncId lock = sim.CreateSpinLock();
  ThreadId tid = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
      SpinLockAction{lock}, ComputeAction{Milliseconds(1)}, SpinUnlockAction{lock}}));
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  EXPECT_EQ(sim.thread(tid).spin_time, 0u);
  EXPECT_EQ(sim.spin_lock(lock).contended_acquisitions, 0u);
}

TEST(SpinLockSemanticsTest, RunningSpinnerGetsLockAtRelease) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, Opts());
  SyncId lock = sim.CreateSpinLock();
  Simulator::SpawnParams p0;
  p0.parent_cpu = 0;
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                SpinLockAction{lock}, ComputeAction{Milliseconds(10)},
                SpinUnlockAction{lock}, ComputeAction{Milliseconds(20)}}),
            p0);
  Simulator::SpawnParams p1;
  p1.parent_cpu = 1;
  ThreadId spinner = sim.Spawn(
      std::make_unique<ScriptBehavior>(std::vector<Action>{
          ComputeAction{Milliseconds(1)}, SpinLockAction{lock}, SpinUnlockAction{lock}}),
      p1);
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  // The spinner acquired at the 10ms release, having spun ~9ms.
  EXPECT_NEAR(ToMilliseconds(sim.thread(spinner).spin_time), 9.0, 0.5);
  EXPECT_NEAR(ToMilliseconds(sim.thread(spinner).finished_at), 10.0, 0.5);
}

TEST(SpinLockSemanticsTest, ManyContendersAllEventuallyAcquire) {
  Topology topo = Topology::Flat(1, 4, 1);
  Simulator sim(topo, Opts(9));
  SyncId lock = sim.CreateSpinLock();
  const int n = 12;  // 3x oversubscribed.
  for (int i = 0; i < n; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = i % 4;
    sim.Spawn(std::make_unique<ScriptBehavior>(
                  std::vector<Action>{SpinLockAction{lock}, ComputeAction{Microseconds(300)},
                                      SpinUnlockAction{lock}},
                  /*repeat=*/20),
              params);
  }
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(60)));
  EXPECT_EQ(sim.spin_lock(lock).acquisitions, static_cast<uint64_t>(n) * 20u);
  EXPECT_EQ(sim.spin_lock(lock).holder, kInvalidThread);
}

TEST(BarrierSemanticsTest, ReusableAcrossGenerations) {
  Topology topo = Topology::Flat(1, 4, 1);
  Simulator sim(topo, Opts());
  SyncId barrier = sim.CreateSpinBarrier(4);
  for (int i = 0; i < 4; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = i;
    sim.Spawn(std::make_unique<ScriptBehavior>(
                  std::vector<Action>{ComputeAction{Microseconds(500)},
                                      SpinBarrierAction{barrier}},
                  /*repeat=*/25),
              params);
  }
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(5)));
  EXPECT_EQ(sim.spin_barrier(barrier).crossings, 25u);
  EXPECT_EQ(sim.spin_barrier(barrier).arrived, 0);
  EXPECT_TRUE(sim.spin_barrier(barrier).spinners.empty());
  // A crossing empties the waiter list in place: the next generation's
  // arrivals reuse its buffer instead of reallocating it.
  EXPECT_GE(sim.spin_barrier(barrier).spinners.capacity(), 3u);
}

TEST(BarrierSemanticsTest, HybridWaiterBlocksAfterGraceAndIsWoken) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, Opts());
  SyncId barrier = sim.CreateSpinBarrier(2);
  Simulator::SpawnParams p0;
  p0.parent_cpu = 0;
  ThreadId fast = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                                SpinBarrierAction{barrier, Milliseconds(2)},
                                ComputeAction{Milliseconds(1)}}),
                            p0);
  Simulator::SpawnParams p1;
  p1.parent_cpu = 1;
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                ComputeAction{Milliseconds(50)}, SpinBarrierAction{barrier, Milliseconds(2)}}),
            p1);
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  const SimThread& t = sim.thread(fast);
  EXPECT_NEAR(ToMilliseconds(t.spin_time), 2.0, 0.3);      // Spun the grace only.
  EXPECT_GE(t.finished_at, Milliseconds(51));              // Woken at release.
  EXPECT_EQ(sim.spin_barrier(barrier).sleeps, 1u);
}

TEST(BarrierSemanticsTest, BlockingBarrierLastArriverWakesAll) {
  Topology topo = Topology::Flat(2, 2, 1);
  Simulator sim(topo, Opts());
  SyncId barrier = sim.CreateBlockingBarrier(4);
  std::vector<ThreadId> tids;
  for (int i = 0; i < 4; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = i;
    tids.push_back(sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                                 ComputeAction{Milliseconds(i == 3 ? 40 : 1)},
                                 BlockingBarrierAction{barrier},
                                 ComputeAction{Milliseconds(1)}}),
                             params));
  }
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  for (ThreadId tid : tids) {
    EXPECT_GE(sim.thread(tid).finished_at, Milliseconds(41));
    EXPECT_LE(sim.thread(tid).finished_at, Milliseconds(43));
  }
  EXPECT_GE(sim.blocking_barrier(barrier).sleepers.capacity(), 3u);
}

TEST(VarSemanticsTest, MultipleThresholdsReleaseIndependently) {
  Topology topo = Topology::Flat(1, 4, 1);
  Simulator sim(topo, Opts());
  SyncId var = sim.CreateVar();
  Simulator::SpawnParams p1;
  p1.parent_cpu = 1;
  ThreadId early = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                                 SpinUntilAction{var, 2}, ComputeAction{Milliseconds(1)}}),
                             p1);
  Simulator::SpawnParams p2;
  p2.parent_cpu = 2;
  ThreadId late = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                                SpinUntilAction{var, 5}, ComputeAction{Milliseconds(1)}}),
                            p2);
  Simulator::SpawnParams p0;
  p0.parent_cpu = 0;
  sim.Spawn(std::make_unique<ScriptBehavior>(
                std::vector<Action>{ComputeAction{Milliseconds(4)}, VarAddAction{var, 1}},
                /*repeat=*/5),
            p0);
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  EXPECT_LT(sim.thread(early).finished_at, sim.thread(late).finished_at);
  EXPECT_EQ(sim.VarValue(var), 5);
}

TEST(SleepSemanticsTest, EarlyWakeCancelsTimer) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, Opts());
  ThreadId sleeper = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
      SleepAction{Seconds(10)}, ComputeAction{Milliseconds(1)}}));
  sim.At(Milliseconds(5), [&] { sim.WakeExternal(sleeper); });
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(30)));
  // Woke at 5ms, not at 10s; the later timer fire is ignored.
  EXPECT_LT(sim.thread(sleeper).finished_at, Milliseconds(10));
}

TEST(SleepSemanticsTest, WakeExternalOnRunnableIsNoOp) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, Opts());
  ThreadId tid = sim.Spawn(std::make_unique<ScriptBehavior>(
      std::vector<Action>{ComputeAction{Milliseconds(5)}}));
  sim.At(Milliseconds(1), [&] { sim.WakeExternal(tid); });
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  EXPECT_EQ(sim.thread(tid).total_compute, Milliseconds(5));
}

TEST(PreemptionSemanticsTest, SpinnerIsPreemptedBySliceExpiry) {
  // One core: a spinner waiting on a var shares the core with the producer
  // that will satisfy it — only tick preemption lets the producer run.
  Topology topo = Topology::Flat(1, 1, 1);
  Simulator sim(topo, Opts());
  SyncId var = sim.CreateVar();
  ThreadId spinner = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
      SpinUntilAction{var, 1}, ComputeAction{Milliseconds(1)}}));
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
      ComputeAction{Milliseconds(2)}, VarAddAction{var, 1}}));
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(5)));
  EXPECT_GT(sim.thread(spinner).spin_time, 0u);
}

TEST(HotplugSemanticsTest, RunningThreadSurvivesCoreOffline) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, Opts());
  Simulator::SpawnParams params;
  params.parent_cpu = 0;
  ThreadId tid = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                               ComputeAction{Milliseconds(50)}}),
                           params);
  sim.At(Milliseconds(10), [&] { sim.SetCpuOnline(0, false); });
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  EXPECT_EQ(sim.thread(tid).total_compute, Milliseconds(50));  // No work lost.
  EXPECT_EQ(sim.sched().Entity(tid).cpu, 1);                   // Finished on cpu 1.
}

TEST(HotplugSemanticsTest, SpinnerSurvivesCoreOffline) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, Opts());
  SyncId var = sim.CreateVar();
  Simulator::SpawnParams p0;
  p0.parent_cpu = 0;
  ThreadId spinner = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                                   SpinUntilAction{var, 1}, ComputeAction{Milliseconds(1)}}),
                               p0);
  Simulator::SpawnParams p1;
  p1.parent_cpu = 1;
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                ComputeAction{Milliseconds(30)}, VarAddAction{var, 1}}),
            p1);
  sim.At(Milliseconds(10), [&] { sim.SetCpuOnline(0, false); });
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(5)));
  EXPECT_EQ(sim.thread(spinner).state, ThreadState::kExited);
}

TEST(AccountingSemanticsTest, BusyTimeMatchesComputePlusSpin) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator::Options opts = Opts();
  opts.tunables = SchedTunables::ForCpus(2);
  opts.tunables->context_switch_cost = 0;  // Exact accounting.
  Simulator sim(topo, opts);
  SyncId barrier = sim.CreateSpinBarrier(2);
  for (int i = 0; i < 2; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = i;
    sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                  ComputeAction{Milliseconds(10) * (i + 1)}, SpinBarrierAction{barrier}}),
              params);
  }
  ASSERT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  Time compute = sim.thread(0).total_compute + sim.thread(1).total_compute;
  Time spin = sim.thread(0).spin_time + sim.thread(1).spin_time;
  EXPECT_EQ(sim.accounting().TotalBusy(), compute + spin);
}

}  // namespace
}  // namespace wcores

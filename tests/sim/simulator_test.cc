#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include "src/topo/topology.h"

namespace wcores {
namespace {

Simulator::Options DefaultOptions() {
  Simulator::Options opts;
  opts.features = SchedFeatures::Stock();
  return opts;
}

TEST(SimulatorTest, SingleComputeThreadRunsToCompletion) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, DefaultOptions());
  ThreadId tid = sim.Spawn(std::make_unique<ScriptBehavior>(
      std::vector<Action>{ComputeAction{Milliseconds(10)}}));
  EXPECT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  const SimThread& t = sim.thread(tid);
  EXPECT_EQ(t.state, ThreadState::kExited);
  EXPECT_EQ(t.total_compute, Milliseconds(10));
  // Started immediately on an idle machine: finishes at ~10ms (+switch cost).
  EXPECT_LT(t.finished_at, Milliseconds(10) + Microseconds(100));
}

TEST(SimulatorTest, TwoThreadsShareOneCoreFairly) {
  Topology topo = Topology::Flat(1, 1, 1);  // One core.
  Simulator sim(topo, DefaultOptions());
  ThreadId a = sim.Spawn(std::make_unique<ScriptBehavior>(
      std::vector<Action>{ComputeAction{Milliseconds(100)}}));
  ThreadId b = sim.Spawn(std::make_unique<ScriptBehavior>(
      std::vector<Action>{ComputeAction{Milliseconds(100)}}));
  EXPECT_TRUE(sim.RunUntilAllExited(Seconds(2)));
  // Both need 100ms of CPU on one core: total wall ~200ms and the two
  // finish within one scheduling latency of each other.
  Time fa = sim.thread(a).finished_at;
  Time fb = sim.thread(b).finished_at;
  EXPECT_NEAR(ToMilliseconds(std::max(fa, fb)), 200.0, 15.0);
  EXPECT_LT(ToMilliseconds(fa > fb ? fa - fb : fb - fa), 60.0);
}

TEST(SimulatorTest, IdleBalancePullsWaitingWork) {
  Topology topo = Topology::Flat(1, 4, 1);
  Simulator sim(topo, DefaultOptions());
  // Four CPU hogs forked on the same core must spread to all four cores.
  std::vector<ThreadId> tids;
  Simulator::SpawnParams params;
  params.parent_cpu = 0;
  for (int i = 0; i < 4; ++i) {
    tids.push_back(sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                                 ComputeAction{Milliseconds(100)}}),
                             params));
  }
  EXPECT_TRUE(sim.RunUntilAllExited(Seconds(2)));
  // With 4 cores for 4 threads, completion should be ~100ms, not ~400ms.
  for (ThreadId tid : tids) {
    EXPECT_LT(sim.thread(tid).finished_at, Milliseconds(160));
  }
  EXPECT_GT(sim.sched().stats().TotalMigrations(), 0u);
}

TEST(SimulatorTest, SleepWakesAfterDuration) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, DefaultOptions());
  ThreadId tid = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
      ComputeAction{Milliseconds(1)}, SleepAction{Milliseconds(50)},
      ComputeAction{Milliseconds(1)}}));
  EXPECT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  const SimThread& t = sim.thread(tid);
  EXPECT_GE(t.finished_at, Milliseconds(52));
  EXPECT_LT(t.finished_at, Milliseconds(53));
  EXPECT_EQ(t.total_compute, Milliseconds(2));
}

TEST(SimulatorTest, SpinLockMutualExclusionAndHandoff) {
  Topology topo = Topology::Flat(1, 4, 1);
  Simulator sim(topo, DefaultOptions());
  SyncId lock = sim.CreateSpinLock();
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(std::make_unique<ScriptBehavior>(
        std::vector<Action>{SpinLockAction{lock}, ComputeAction{Milliseconds(5)},
                            SpinUnlockAction{lock}},
        /*repeat=*/10));
  }
  EXPECT_TRUE(sim.RunUntilAllExited(Seconds(5)));
  const SpinLock& l = sim.spin_lock(lock);
  EXPECT_EQ(l.holder, kInvalidThread);
  EXPECT_EQ(l.acquisitions, 40u);
  // 40 serialized 5ms critical sections: at least 200ms of wall time.
  EXPECT_GE(sim.Now(), Milliseconds(200));
  EXPECT_GT(l.contended_acquisitions, 0u);
}

TEST(SimulatorTest, SpinWasteAccountedWhileContending) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, DefaultOptions());
  SyncId lock = sim.CreateSpinLock();
  ThreadId holder = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
      SpinLockAction{lock}, ComputeAction{Milliseconds(20)}, SpinUnlockAction{lock}}));
  ThreadId spinner = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
      ComputeAction{Milliseconds(1)}, SpinLockAction{lock}, SpinUnlockAction{lock}}));
  EXPECT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  (void)holder;
  // The spinner burned most of the holder's 20ms critical section waiting
  // on its own core (it reaches another core after the first NOHZ kick).
  EXPECT_GE(sim.thread(spinner).spin_time, Milliseconds(10));
  EXPECT_EQ(sim.thread(spinner).total_compute, Milliseconds(1));
}

TEST(SimulatorTest, SpinBarrierReleasesAllParticipants) {
  Topology topo = Topology::Flat(1, 4, 1);
  Simulator sim(topo, DefaultOptions());
  SyncId barrier = sim.CreateSpinBarrier(4);
  std::vector<ThreadId> tids;
  for (int i = 0; i < 4; ++i) {
    // Uneven arrival: thread i computes (i+1)*5ms first. Each starts on its
    // own core so arrival times are exact.
    Simulator::SpawnParams params;
    params.parent_cpu = i;
    tids.push_back(sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                                 ComputeAction{Milliseconds(5) * (i + 1)},
                                 SpinBarrierAction{barrier}, ComputeAction{Milliseconds(1)}}),
                             params));
  }
  EXPECT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  EXPECT_EQ(sim.spin_barrier(barrier).crossings, 1u);
  // Everyone finishes just after the slowest participant (20ms).
  for (ThreadId tid : tids) {
    EXPECT_GE(sim.thread(tid).finished_at, Milliseconds(21));
    EXPECT_LT(sim.thread(tid).finished_at, Milliseconds(23));
  }
  // The early arrivals burned CPU spinning.
  EXPECT_GT(sim.thread(tids[0]).spin_time, Milliseconds(10));
}

TEST(SimulatorTest, BlockingBarrierSleepsParticipants) {
  Topology topo = Topology::Flat(1, 4, 1);
  Simulator sim(topo, DefaultOptions());
  SyncId barrier = sim.CreateBlockingBarrier(4);
  std::vector<ThreadId> tids;
  for (int i = 0; i < 4; ++i) {
    tids.push_back(sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
        ComputeAction{Milliseconds(5) * (i + 1)}, BlockingBarrierAction{barrier},
        ComputeAction{Milliseconds(1)}})));
  }
  EXPECT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  EXPECT_EQ(sim.blocking_barrier(barrier).crossings, 1u);
  for (ThreadId tid : tids) {
    // No spinning: waiters sleep.
    EXPECT_EQ(sim.thread(tid).spin_time, 0u);
    EXPECT_GE(sim.thread(tid).finished_at, Milliseconds(21));
  }
}

// The nice range is checked where a value comes in, in every build type.
TEST(SimulatorDeathTest, SpawnWithNiceOutsideRangeAborts) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, DefaultOptions());
  Simulator::SpawnParams params;
  params.nice = kMaxNice + 1;
  EXPECT_DEATH(sim.Spawn(std::make_unique<ScriptBehavior>(
                             std::vector<Action>{ComputeAction{Milliseconds(1)}}),
                         params),
               "WC_CHECK failed: nice outside \\[-20, 19\\]");
}

TEST(SimulatorTest, PipelineVarHandoff) {
  Topology topo = Topology::Flat(1, 2, 1);
  Simulator sim(topo, DefaultOptions());
  SyncId var = sim.CreateVar();
  ThreadId producer = sim.Spawn(std::make_unique<ScriptBehavior>(
      std::vector<Action>{ComputeAction{Milliseconds(2)}, VarAddAction{var, 1}},
      /*repeat=*/5));
  ThreadId consumer = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
      SpinUntilAction{var, 5}, ComputeAction{Milliseconds(1)}}));
  EXPECT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  (void)producer;
  EXPECT_EQ(sim.VarValue(var), 5);
  EXPECT_GE(sim.thread(consumer).finished_at, Milliseconds(11));
}

class BarrierLike : public Behavior {
 public:
  explicit BarrierLike(SyncId barrier) : barrier_(barrier) {}
  Action Next(BehaviorContext& ctx) override {
    if (i_ >= 20) {
      return ExitAction{};
    }
    if (!at_barrier_) {
      at_barrier_ = true;
      return ComputeAction{ctx.rng->NextTime(Microseconds(500), Milliseconds(2))};
    }
    at_barrier_ = false;
    ++i_;
    return SpinBarrierAction{barrier_};
  }

 private:
  SyncId barrier_;
  int i_ = 0;
  bool at_barrier_ = false;
};

TEST(SimulatorTest, DeterministicAcrossRuns) {
  auto run = [](uint64_t seed) {
    Topology topo = Topology::Flat(2, 4, 2);
    Simulator::Options opts = DefaultOptions();
    opts.seed = seed;
    Simulator sim(topo, opts);
    SyncId barrier = sim.CreateSpinBarrier(8);
    std::vector<Time> finishes;
    std::vector<ThreadId> tids;
    for (int i = 0; i < 8; ++i) {
      tids.push_back(sim.Spawn(std::make_unique<BarrierLike>(barrier)));
    }
    sim.RunUntilAllExited(Seconds(10));
    for (ThreadId tid : tids) {
      finishes.push_back(sim.thread(tid).finished_at);
    }
    return finishes;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(SimulatorTest, TimerWakeOnOfflinedCoreStillWorks) {
  Topology topo = Topology::Flat(2, 2, 1);
  Simulator sim(topo, DefaultOptions());
  ThreadId tid = sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
      ComputeAction{Milliseconds(1)}, SleepAction{Milliseconds(20)},
      ComputeAction{Milliseconds(1)}}));
  // Offline the core it slept on while it sleeps.
  sim.At(Milliseconds(5), [&] { sim.SetCpuOnline(0, false); });
  EXPECT_TRUE(sim.RunUntilAllExited(Seconds(1)));
  EXPECT_EQ(sim.thread(tid).state, ThreadState::kExited);
}

// Hotplug evacuates a pinned thread off its only cpu. As in Linux's
// select_fallback_rq, a mask with no online cpu means the thread is no
// longer affine: its mask widens to every cpu, it runs on an online one,
// and the widening stays after the cpu comes back. At no instant does it
// sit on an offline cpu.
TEST(SimulatorTest, PinnedThreadIsNoLongerAffineOnceHotplugOfflinesItsCpu) {
  Topology topo = Topology::Flat(1, 4);
  Simulator sim(topo, DefaultOptions());
  Simulator::SpawnParams params;
  params.affinity = CpuSet::Single(2);
  params.parent_cpu = 2;
  ThreadId tid = sim.Spawn(
      std::make_unique<ScriptBehavior>(
          std::vector<Action>{ComputeAction{Milliseconds(4)}, SleepAction{Milliseconds(1)}},
          /*repeat=*/100),
      params);
  const SchedEntity& se = sim.sched().Entity(tid);

  // Every 50 us, a queued thread must be on an online cpu.
  struct Probe {
    Simulator* sim;
    const SchedEntity* se;
    int samples = 0;
    int offline = 0;
  } probe{&sim, &se};
  for (Time t = Microseconds(50); t <= Milliseconds(10); t += Microseconds(50)) {
    sim.At(t, [p = &probe] {
      p->samples += 1;
      if (p->se->on_rq && !p->sim->sched().IsOnline(p->se->cpu)) {
        p->offline += 1;
      }
    });
  }

  sim.Run(Milliseconds(1));
  ASSERT_TRUE(se.on_rq);
  ASSERT_EQ(se.cpu, 2);
  sim.SetCpuOnline(2, false);
  EXPECT_EQ(se.affinity, topo.AllCpus()) << "no longer affine to cpu 2";
  EXPECT_TRUE(se.on_rq);
  EXPECT_TRUE(sim.sched().IsOnline(se.cpu));
  sim.Run(Milliseconds(2));
  sim.SetCpuOnline(2, true);
  sim.Run(Milliseconds(10));
  EXPECT_EQ(se.affinity, topo.AllCpus());
  EXPECT_EQ(probe.samples, 200);
  EXPECT_EQ(probe.offline, 0);
}

// The fallback runs at wakeup and fork too, not only at evacuation: a
// thread asleep when its only cpu goes offline, and a thread spawned pinned
// to that offline cpu, each land on an online cpu with the mask widened.
TEST(SimulatorTest, WakeAndForkWidenAMaskWithNoOnlineCpu) {
  Topology topo = Topology::Flat(1, 4);
  Simulator sim(topo, DefaultOptions());
  Simulator::SpawnParams params;
  params.affinity = CpuSet::Single(2);
  params.parent_cpu = 2;
  auto spawn = [&] {
    return sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                         ComputeAction{Milliseconds(1)}, SleepAction{Milliseconds(5)},
                         ComputeAction{Milliseconds(2)}}),
                     params);
  };
  ThreadId sleeper = spawn();
  sim.Run(Milliseconds(2));
  ASSERT_FALSE(sim.sched().Entity(sleeper).on_rq);
  sim.SetCpuOnline(2, false);
  ThreadId forked = spawn();
  sim.Run(Milliseconds(7));  // The sleeper has woken at ~6 ms.
  for (ThreadId tid : {sleeper, forked}) {
    const SchedEntity& se = sim.sched().Entity(tid);
    EXPECT_TRUE(sim.sched().IsOnline(se.cpu)) << "tid " << tid;
    EXPECT_EQ(se.affinity, topo.AllCpus()) << "tid " << tid;
  }
  EXPECT_TRUE(sim.RunUntilAllExited(Seconds(1)));
}

}  // namespace
}  // namespace wcores

// Unit tests driving the Scheduler directly through a fake client (no
// simulator): lifecycle, wakeup placement, balancing, NOHZ, hotplug.
#include "src/core/scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/topo/topology.h"

namespace wcores {
namespace {

class FakeClient : public SchedClient {
 public:
  void KickCpu(CpuId cpu) override { kicks.push_back(cpu); }
  void NohzKick(CpuId cpu) override { nohz_kicks.push_back(cpu); }

  std::vector<CpuId> kicks;
  std::vector<CpuId> nohz_kicks;
};

class SchedulerTest : public ::testing::Test {
 protected:
  void Build(const Topology& topo, const SchedFeatures& features = SchedFeatures::Stock()) {
    topo_ = std::make_unique<Topology>(topo);
    sched_ = std::make_unique<Scheduler>(*topo_, features, SchedTunables::ForCpus(topo.n_cores()),
                                         &client_);
  }

  // Creates a thread and makes it the running thread of its cpu.
  ThreadId RunThreadOn(Time now, CpuId cpu) {
    ThreadParams params;
    params.parent_cpu = cpu;
    ThreadId tid = sched_->CreateThread(now, params);
    EXPECT_EQ(sched_->PickNext(now, cpu), tid);
    return tid;
  }

  std::unique_ptr<Topology> topo_;
  FakeClient client_;
  std::unique_ptr<Scheduler> sched_;
};

// ---- Lifecycle ---------------------------------------------------------------

TEST_F(SchedulerTest, CreateThreadLandsOnParentCpu) {
  Build(Topology::Flat(2, 4, 1));
  ThreadParams params;
  params.parent_cpu = 5;
  ThreadId tid = sched_->CreateThread(0, params);
  EXPECT_EQ(sched_->Entity(tid).cpu, 5);
  EXPECT_EQ(sched_->NrRunning(5), 1);
  // The idle cpu was kicked to pick it up.
  EXPECT_EQ(client_.kicks, std::vector<CpuId>{5});
}

TEST_F(SchedulerTest, CreateThreadRespectsAffinity) {
  Build(Topology::Flat(2, 4, 1));
  ThreadParams params;
  params.parent_cpu = 0;
  params.affinity = CpuSet::Single(6);
  ThreadId tid = sched_->CreateThread(0, params);
  EXPECT_EQ(sched_->Entity(tid).cpu, 6);
}

TEST_F(SchedulerTest, ExitEmptiesCpu) {
  Build(Topology::Flat(1, 2, 1));
  RunThreadOn(0, 0);
  sched_->ExitCurrent(Milliseconds(1), 0);
  EXPECT_TRUE(sched_->IsIdleCpu(0));
  EXPECT_EQ(sched_->stats().exits, 1u);
}

TEST_F(SchedulerTest, BlockThenWakeRunnableAgain) {
  Build(Topology::Flat(1, 2, 1));
  ThreadId tid = RunThreadOn(0, 0);
  sched_->BlockCurrent(Milliseconds(1), 0);
  EXPECT_FALSE(sched_->Entity(tid).on_rq);
  CpuId cpu = sched_->Wake(Milliseconds(5), tid, 0);
  EXPECT_TRUE(sched_->Entity(tid).on_rq);
  EXPECT_EQ(cpu, 0);  // Previous core was idle: wake there.
}

TEST_F(SchedulerTest, AutogroupMembershipCounts) {
  Build(Topology::Flat(1, 4, 1));
  AutogroupId group = sched_->CreateAutogroup();
  ThreadParams params;
  params.autogroup = group;
  sched_->CreateThread(0, params);
  sched_->CreateThread(0, params);
  EXPECT_DOUBLE_EQ(sched_->AutogroupDivisor(group), 2.0);
  // Root group unaffected.
  EXPECT_DOUBLE_EQ(sched_->AutogroupDivisor(kRootAutogroup), 1.0);
}

TEST_F(SchedulerTest, AutogroupDisabledDividesByOne) {
  SchedFeatures features;
  features.autogroup_enabled = false;
  Build(Topology::Flat(1, 4, 1), features);
  AutogroupId group = sched_->CreateAutogroup();
  ThreadParams params;
  params.autogroup = group;
  sched_->CreateThread(0, params);
  sched_->CreateThread(0, params);
  EXPECT_DOUBLE_EQ(sched_->AutogroupDivisor(group), 1.0);
}

TEST_F(SchedulerTest, RqLoadDividedByAutogroupSize) {
  Build(Topology::Flat(1, 4, 1));
  AutogroupId big = sched_->CreateAutogroup();
  ThreadParams params;
  params.autogroup = big;
  params.parent_cpu = 0;
  for (int i = 0; i < 8; ++i) {
    sched_->CreateThread(0, params);
  }
  ThreadParams solo;
  solo.parent_cpu = 1;
  solo.autogroup = sched_->CreateAutogroup();
  sched_->CreateThread(0, solo);
  // 8 threads / autogroup of 8 = total ~1024; 1 thread / group of 1 = 1024.
  EXPECT_NEAR(sched_->RqLoad(0, 0), 1024.0, 1.0);
  EXPECT_NEAR(sched_->RqLoad(0, 1), 1024.0, 1.0);
}

// A fork into, or an exit from, an autogroup changes the divisor of every
// member's runqueue — including runqueues whose membership did not change,
// so their load_version stays put. The memo must still recompute at the
// same instant.
TEST_F(SchedulerTest, RqLoadMemoSeesSameInstantDivisorChange) {
  Build(Topology::Flat(1, 4, 1));
  AutogroupId group = sched_->CreateAutogroup();
  ThreadParams params;
  params.autogroup = group;
  params.parent_cpu = 0;
  sched_->CreateThread(0, params);
  params.parent_cpu = 2;
  ThreadId exiting = sched_->CreateThread(0, params);
  ASSERT_EQ(sched_->PickNext(0, 2), exiting);

  const Time t = Milliseconds(10);
  const double two_members = sched_->RqLoad(t, 0);  // Fills the memo.

  params.parent_cpu = 1;
  ThreadId forked = sched_->CreateThread(t, params);
  ASSERT_NE(sched_->Entity(forked).cpu, 0);
  const double three_members = sched_->RqLoad(t, 0);
  EXPECT_EQ(three_members, sched_->RqLoadRecomputed(t, 0));
  EXPECT_NE(three_members, two_members);

  sched_->ExitCurrent(t, 2);
  const double after_exit = sched_->RqLoad(t, 0);
  EXPECT_EQ(after_exit, sched_->RqLoadRecomputed(t, 0));
  EXPECT_NE(after_exit, three_members);
}

// ---- Wakeup placement (§3.3) ----------------------------------------------------

TEST_F(SchedulerTest, StockWakeStaysOnNodeEvenIfOtherNodeIdle) {
  Build(Topology::Flat(2, 2, 1));  // Nodes {0,1} and {2,3}.
  // Fill node 0 with two running threads plus our sleeper.
  ThreadId sleeper = RunThreadOn(0, 0);
  sched_->BlockCurrent(Milliseconds(1), 0);
  RunThreadOn(Milliseconds(1), 0);
  RunThreadOn(Milliseconds(1), 1);
  client_.kicks.clear();
  // Node 1 (cpus 2,3) is fully idle; waker runs on cpu 1 (same node as prev).
  CpuId cpu = sched_->Wake(Milliseconds(2), sleeper, 1);
  EXPECT_TRUE(cpu == 0 || cpu == 1) << "woke on " << cpu;
  EXPECT_GE(sched_->NrRunning(cpu), 2);  // Overload-on-Wakeup.
  EXPECT_EQ(sched_->stats().wakeups_on_busy, 1u);
}

TEST_F(SchedulerTest, FixedWakeUsesLongestIdleCore) {
  SchedFeatures features;
  features.fix_overload_wakeup = true;
  Build(Topology::Flat(2, 2, 1), features);
  ThreadId sleeper = RunThreadOn(0, 0);
  sched_->BlockCurrent(Milliseconds(1), 0);
  RunThreadOn(Milliseconds(1), 0);
  RunThreadOn(Milliseconds(1), 1);
  // cpu 2 idle since 0; make cpu 3 idle later so cpu 2 is the longest idle.
  ThreadId t3 = RunThreadOn(Milliseconds(1), 3);
  sched_->PickNext(Milliseconds(2), 3);
  sched_->BlockCurrent(Milliseconds(2), 3);
  (void)t3;
  CpuId cpu = sched_->Wake(Milliseconds(3), sleeper, 1);
  EXPECT_EQ(cpu, 2);  // The longest-idle core in the system.
  EXPECT_EQ(sched_->NrRunning(2), 1);
}

TEST_F(SchedulerTest, FixedWakePrefersIdlePrevCore) {
  SchedFeatures features;
  features.fix_overload_wakeup = true;
  Build(Topology::Flat(2, 2, 1), features);
  ThreadId sleeper = RunThreadOn(0, 1);
  sched_->BlockCurrent(Milliseconds(1), 1);
  // cpu 1 stays idle; other cores idle too. Local core wins.
  CpuId cpu = sched_->Wake(Milliseconds(5), sleeper, 3);
  EXPECT_EQ(cpu, 1);
}

TEST_F(SchedulerTest, StockWakePrefersIdleCoreOfNode) {
  Build(Topology::Flat(2, 4, 1));
  ThreadId sleeper = RunThreadOn(0, 0);
  sched_->BlockCurrent(Milliseconds(1), 0);
  RunThreadOn(Milliseconds(1), 0);  // prev core now busy.
  CpuId cpu = sched_->Wake(Milliseconds(2), sleeper, 0);
  EXPECT_NE(cpu, 0);
  EXPECT_EQ(topo_->NodeOf(cpu), 0);  // Same node, idle core.
  EXPECT_EQ(sched_->stats().wakeups_on_idle, 1u);
}

TEST_F(SchedulerTest, WakeRespectsAffinity) {
  Build(Topology::Flat(2, 2, 1));
  ThreadParams params;
  params.parent_cpu = 0;
  params.affinity = CpuSet::Single(3);
  ThreadId tid = sched_->CreateThread(0, params);
  sched_->PickNext(0, 3);
  sched_->BlockCurrent(Milliseconds(1), 3);
  CpuId cpu = sched_->Wake(Milliseconds(2), tid, 0);
  EXPECT_EQ(cpu, 3);
}

TEST_F(SchedulerTest, WakePreemptionKicksBusyCpu) {
  Build(Topology::Flat(1, 1, 1));
  // A sleeper blocks, then a hog runs far ahead in vruntime; the wake must
  // preempt the hog (sleeper credit puts the woken thread well behind).
  ThreadId sleeper = RunThreadOn(0, 0);
  sched_->BlockCurrent(Milliseconds(1), 0);
  ThreadParams params;
  params.parent_cpu = 0;
  sched_->CreateThread(Milliseconds(1), params);  // The hog.
  sched_->PickNext(Milliseconds(1), 0);
  sched_->Tick(Milliseconds(201), 0);
  client_.kicks.clear();
  sched_->Wake(Milliseconds(201), sleeper, 0);
  EXPECT_TRUE(sched_->NeedResched(0));
  EXPECT_EQ(client_.kicks, std::vector<CpuId>{0});
}

// ---- Idle bookkeeping -------------------------------------------------------------

TEST_F(SchedulerTest, LongestIdleCpuOrdersByIdleSince) {
  Build(Topology::Flat(1, 4, 1));
  // Make cpus 1 and 2 busy then idle at different times.
  RunThreadOn(0, 1);
  RunThreadOn(0, 2);
  sched_->ExitCurrent(Milliseconds(10), 1);
  sched_->PickNext(Milliseconds(10), 1);
  sched_->ExitCurrent(Milliseconds(20), 2);
  sched_->PickNext(Milliseconds(20), 2);
  // cpus 0,3 idle since boot (0) -> longest; among {1,2}, 1 is older.
  CpuSet only12;
  only12.Set(1);
  only12.Set(2);
  EXPECT_EQ(sched_->LongestIdleCpu(only12), 1);
  EXPECT_EQ(sched_->LongestIdleCpu(CpuSet::FirstN(4)), 0);
}

TEST_F(SchedulerTest, CanStealSeesAffinity) {
  Build(Topology::Flat(1, 4, 1));
  ThreadParams pinned;
  pinned.parent_cpu = 0;
  pinned.affinity = CpuSet::Single(0);
  sched_->CreateThread(0, pinned);
  ThreadParams loose;
  loose.parent_cpu = 0;
  sched_->CreateThread(0, loose);
  EXPECT_TRUE(sched_->CanSteal(1, 0));  // The loose thread is stealable.
  sched_->PickNext(0, 0);               // The pinned one was first; runs.
  EXPECT_TRUE(sched_->CanSteal(1, 0));
}

// ---- Load balancing ----------------------------------------------------------------

TEST_F(SchedulerTest, IdleBalancePullsFromOverloadedCore) {
  Build(Topology::Flat(1, 2, 1));
  ThreadParams params;
  params.parent_cpu = 0;
  sched_->CreateThread(0, params);
  sched_->CreateThread(0, params);
  sched_->PickNext(0, 0);
  // cpu 1 runs out of work -> PickNext triggers (new-)idle balance.
  ThreadId pulled = sched_->PickNext(Milliseconds(1), 1);
  EXPECT_NE(pulled, kInvalidThread);
  EXPECT_EQ(sched_->stats().migrations_idle, 1u);
  EXPECT_EQ(sched_->NrRunning(0), 1);
  EXPECT_EQ(sched_->NrRunning(1), 1);
}

TEST_F(SchedulerTest, IdleBalanceRespectsAffinity) {
  Build(Topology::Flat(1, 2, 1));
  ThreadParams params;
  params.parent_cpu = 0;
  params.affinity = CpuSet::Single(0);
  sched_->CreateThread(0, params);
  sched_->CreateThread(0, params);
  sched_->PickNext(0, 0);
  EXPECT_EQ(sched_->PickNext(Milliseconds(1), 1), kInvalidThread);
  EXPECT_EQ(sched_->NrRunning(0), 2);
}

TEST_F(SchedulerTest, TickKicksNohzBalancerWhenOverloaded) {
  Build(Topology::Flat(1, 4, 1));
  ThreadParams params;
  params.parent_cpu = 0;
  sched_->CreateThread(0, params);
  sched_->CreateThread(0, params);
  sched_->PickNext(0, 0);
  sched_->Tick(Milliseconds(4), 0);
  ASSERT_EQ(client_.nohz_kicks.size(), 1u);
  // The first tickless idle core is chosen.
  EXPECT_EQ(client_.nohz_kicks[0], 1);
}

TEST_F(SchedulerTest, NohzKicksAreRateLimited) {
  Build(Topology::Flat(1, 4, 1));
  ThreadParams params;
  params.parent_cpu = 0;
  sched_->CreateThread(0, params);
  sched_->CreateThread(0, params);
  sched_->PickNext(0, 0);
  sched_->Tick(Milliseconds(4), 0);
  sched_->Tick(Milliseconds(4) + 1, 0);  // Within the kick interval.
  EXPECT_EQ(client_.nohz_kicks.size(), 1u);
}

TEST_F(SchedulerTest, RunNohzBalanceSpreadsWork) {
  Build(Topology::Flat(1, 4, 1));
  ThreadParams params;
  params.parent_cpu = 0;
  for (int i = 0; i < 4; ++i) {
    sched_->CreateThread(0, params);
  }
  sched_->PickNext(0, 0);
  client_.kicks.clear();
  // Balance on behalf of all tickless idle cores (intervals start at 0, so
  // advance time beyond the top-level interval).
  sched_->RunNohzBalance(Milliseconds(50), 1);
  EXPECT_GT(sched_->stats().migrations_nohz, 0u);
  EXPECT_GE(sched_->NrRunning(1), 1);
  // Pulling onto a tickless core must kick it awake.
  EXPECT_FALSE(client_.kicks.empty());
}

TEST_F(SchedulerTest, NoBalanceCallsBeforeIntervalElapses) {
  Build(Topology::Flat(1, 4, 1));
  ThreadParams params;
  params.parent_cpu = 0;
  sched_->CreateThread(0, params);
  sched_->CreateThread(0, params);
  sched_->PickNext(0, 0);
  uint64_t calls_before = sched_->stats().balance_calls;
  sched_->RunNohzBalance(Microseconds(100), 1);  // Earlier than any interval.
  uint64_t skips = sched_->stats().balance_interval_skips;
  EXPECT_EQ(sched_->stats().balance_calls, calls_before);
  EXPECT_GT(skips, 0u);
}

// ---- Hotplug (§3.4) -------------------------------------------------------------------

TEST_F(SchedulerTest, OfflineEvacuatesThreads) {
  Build(Topology::Flat(2, 2, 1));
  ThreadParams params;
  params.parent_cpu = 1;
  ThreadId a = sched_->CreateThread(0, params);
  ThreadId b = sched_->CreateThread(0, params);
  sched_->SetCpuOnline(Milliseconds(1), 1, false);
  EXPECT_FALSE(sched_->IsOnline(1));
  EXPECT_EQ(sched_->NrRunning(1), 0);
  EXPECT_NE(sched_->Entity(a).cpu, 1);
  EXPECT_NE(sched_->Entity(b).cpu, 1);
  EXPECT_EQ(sched_->stats().migrations_hotplug, 2u);
}

TEST_F(SchedulerTest, OfflineCpuReceivesNoThreads) {
  Build(Topology::Flat(2, 2, 1));
  sched_->SetCpuOnline(0, 2, false);
  ThreadParams params;
  params.parent_cpu = 2;
  ThreadId tid = sched_->CreateThread(Milliseconds(1), params);
  EXPECT_NE(sched_->Entity(tid).cpu, 2);
}

TEST_F(SchedulerTest, StockRegenerationDropsNumaLevels) {
  Build(Topology::Bulldozer8x8());
  EXPECT_EQ(sched_->Domains(0).domains.size(), 4u);
  sched_->SetCpuOnline(Milliseconds(1), 3, false);
  EXPECT_EQ(sched_->Domains(0).domains.size(), 2u);  // SMT + NODE only.
  sched_->SetCpuOnline(Milliseconds(2), 3, true);
  EXPECT_EQ(sched_->Domains(0).domains.size(), 2u);  // Still broken.
}

TEST_F(SchedulerTest, FixedRegenerationKeepsNumaLevels) {
  SchedFeatures features;
  features.fix_missing_domains = true;
  Build(Topology::Bulldozer8x8(), features);
  sched_->SetCpuOnline(Milliseconds(1), 3, false);
  EXPECT_EQ(sched_->Domains(0).domains.size(), 4u);
  sched_->SetCpuOnline(Milliseconds(2), 3, true);
  EXPECT_EQ(sched_->Domains(0).domains.size(), 4u);
  EXPECT_TRUE(sched_->Domains(0).domains.back().span.Test(3));
}

TEST_F(SchedulerTest, ReonlinedCpuIsUsableAgain) {
  Build(Topology::Flat(1, 2, 1));
  sched_->SetCpuOnline(0, 1, false);
  sched_->SetCpuOnline(Milliseconds(1), 1, true);
  EXPECT_TRUE(sched_->IsOnline(1));
  ThreadParams params;
  params.parent_cpu = 1;
  ThreadId tid = sched_->CreateThread(Milliseconds(2), params);
  EXPECT_EQ(sched_->Entity(tid).cpu, 1);
}

TEST_F(SchedulerTest, AffinityBrokenWhenAllAllowedCpusOffline) {
  Build(Topology::Flat(1, 2, 1));
  ThreadParams params;
  params.parent_cpu = 1;
  params.affinity = CpuSet::Single(1);
  ThreadId tid = sched_->CreateThread(0, params);
  sched_->SetCpuOnline(Milliseconds(1), 1, false);
  // The kernel breaks affinity rather than losing the thread.
  EXPECT_EQ(sched_->Entity(tid).cpu, 0);
  EXPECT_TRUE(sched_->Entity(tid).on_rq);
}

// ---- vruntime re-basing --------------------------------------------------------------

TEST_F(SchedulerTest, CrossCpuWakeRebasesVruntime) {
  SchedFeatures features;
  features.fix_overload_wakeup = true;
  Build(Topology::Flat(1, 2, 1), features);
  ThreadId sleeper = RunThreadOn(0, 0);
  sched_->Tick(Milliseconds(100), 0);  // Accumulate vruntime on cpu 0.
  sched_->BlockCurrent(Milliseconds(100), 0);
  // Occupy cpu 0 so the wake lands on idle cpu 1.
  RunThreadOn(Milliseconds(100), 0);
  CpuId cpu = sched_->Wake(Milliseconds(101), sleeper, 0);
  EXPECT_EQ(cpu, 1);
  // vruntime must be sane relative to cpu 1's min_vruntime (not 100ms ahead).
  EXPECT_LE(sched_->Entity(sleeper).vruntime, Milliseconds(150));
}

TEST_F(SchedulerTest, StatsCountersAdvance) {
  Build(Topology::Flat(1, 2, 1));
  ThreadId tid = RunThreadOn(0, 0);
  sched_->Tick(Milliseconds(4), 0);
  sched_->BlockCurrent(Milliseconds(5), 0);
  sched_->Wake(Milliseconds(6), tid, 0);
  const SchedStats& stats = sched_->stats();
  EXPECT_EQ(stats.forks, 1u);
  EXPECT_EQ(stats.ticks, 1u);
  EXPECT_EQ(stats.wakeups, 1u);
}

}  // namespace
}  // namespace wcores

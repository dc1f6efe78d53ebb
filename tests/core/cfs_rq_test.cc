#include "src/core/cfs_rq.h"

#include <gtest/gtest.h>

#include <deque>

namespace wcores {
namespace {

class CfsRqTest : public ::testing::Test {
 protected:
  CfsRqTest() : tunables_(SchedTunables::ForCpus(64)), rq_(0, &tunables_) {}

  SchedEntity* NewEntity(int nice = 0) {
    entities_.emplace_back();
    SchedEntity& se = entities_.back();
    se.tid = static_cast<ThreadId>(entities_.size() - 1);
    se.SetNice(nice);
    se.affinity = CpuSet::FirstN(64);
    return &se;
  }

  SchedTunables tunables_;
  CfsRunqueue rq_;
  std::deque<SchedEntity> entities_;
};

TEST_F(CfsRqTest, StartsIdle) {
  EXPECT_TRUE(rq_.Idle());
  EXPECT_EQ(rq_.nr_running(), 0);
  EXPECT_EQ(rq_.queued(), 0);
  EXPECT_EQ(rq_.PickNext(0), nullptr);
}

TEST_F(CfsRqTest, EnqueuePickRun) {
  SchedEntity* se = NewEntity();
  rq_.Enqueue(se, 0, CfsRunqueue::EnqueueKind::kNew);
  EXPECT_EQ(rq_.nr_running(), 1);
  EXPECT_TRUE(se->on_rq);
  SchedEntity* picked = rq_.PickNext(0);
  EXPECT_EQ(picked, se);
  EXPECT_TRUE(se->running);
  EXPECT_EQ(rq_.queued(), 0);
  EXPECT_EQ(rq_.nr_running(), 1);  // curr counts.
}

TEST_F(CfsRqTest, UpdateCurrAdvancesVruntime) {
  SchedEntity* se = NewEntity();
  rq_.Enqueue(se, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.PickNext(0);
  rq_.UpdateCurr(Milliseconds(10));
  EXPECT_EQ(se->vruntime, Milliseconds(10));  // nice 0: wall rate.
  EXPECT_EQ(se->sum_exec_runtime, Milliseconds(10));
  EXPECT_EQ(se->slice_exec, Milliseconds(10));
}

TEST_F(CfsRqTest, VruntimeScalesWithWeight) {
  SchedEntity* heavy = NewEntity(-5);  // weight 3121.
  rq_.Enqueue(heavy, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.PickNext(0);
  rq_.UpdateCurr(Milliseconds(10));
  // delta_vr = 10ms * 1024 / 3121 ~ 3.28ms.
  EXPECT_NEAR(static_cast<double>(heavy->vruntime), 10e6 * 1024 / 3121, 1e4);
}

TEST_F(CfsRqTest, PicksSmallestVruntime) {
  SchedEntity* a = NewEntity();
  SchedEntity* b = NewEntity();
  a->vruntime = Milliseconds(5);
  b->vruntime = Milliseconds(3);
  rq_.Enqueue(a, 0, CfsRunqueue::EnqueueKind::kMigrate);
  rq_.Enqueue(b, 0, CfsRunqueue::EnqueueKind::kMigrate);
  EXPECT_EQ(rq_.PickNext(0), b);
}

TEST_F(CfsRqTest, PutCurrRequeuesRunnable) {
  SchedEntity* a = NewEntity();
  SchedEntity* b = NewEntity();
  rq_.Enqueue(a, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.Enqueue(b, 0, CfsRunqueue::EnqueueKind::kNew);
  SchedEntity* first = rq_.PickNext(0);
  rq_.UpdateCurr(Milliseconds(50));
  rq_.PutCurr(Milliseconds(50), CfsRunqueue::PutKind::kStillRunnable);
  EXPECT_EQ(rq_.nr_running(), 2);
  // The other entity has lower vruntime now.
  SchedEntity* second = rq_.PickNext(Milliseconds(50));
  EXPECT_NE(second, first);
}

TEST_F(CfsRqTest, PutCurrBlockedRemoves) {
  SchedEntity* se = NewEntity();
  rq_.Enqueue(se, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.PickNext(0);
  rq_.PutCurr(Milliseconds(1), CfsRunqueue::PutKind::kBlocked);
  EXPECT_TRUE(rq_.Idle());
  EXPECT_FALSE(se->on_rq);
  EXPECT_EQ(se->last_dequeued, Milliseconds(1));
}

TEST_F(CfsRqTest, WakeupPlacementGetsSleeperCredit) {
  // Run one entity far ahead, then wake a long-sleeping one: it is placed
  // half a latency behind min_vruntime, not at its stale old vruntime.
  SchedEntity* hog = NewEntity();
  rq_.Enqueue(hog, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.PickNext(0);
  rq_.UpdateCurr(Seconds(1));
  SchedEntity* sleeper = NewEntity();
  sleeper->vruntime = 0;
  rq_.Enqueue(sleeper, Seconds(1), CfsRunqueue::EnqueueKind::kWakeup);
  Time credit = tunables_.sched_latency / 2;
  EXPECT_EQ(sleeper->vruntime, rq_.min_vruntime() - credit);
}

TEST_F(CfsRqTest, WakeupPlacementDoesNotRewindFreshSleeper) {
  SchedEntity* hog = NewEntity();
  rq_.Enqueue(hog, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.PickNext(0);
  rq_.UpdateCurr(Seconds(1));
  SchedEntity* sleeper = NewEntity();
  sleeper->vruntime = rq_.min_vruntime() + Milliseconds(1);  // Barely ahead.
  rq_.Enqueue(sleeper, Seconds(1), CfsRunqueue::EnqueueKind::kWakeup);
  EXPECT_EQ(sleeper->vruntime, rq_.min_vruntime() + Milliseconds(1));
}

TEST_F(CfsRqTest, MinVruntimeMonotonic) {
  SchedEntity* a = NewEntity();
  rq_.Enqueue(a, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.PickNext(0);
  Time prev = rq_.min_vruntime();
  for (int i = 1; i <= 10; ++i) {
    rq_.UpdateCurr(Milliseconds(10) * i);
    EXPECT_GE(rq_.min_vruntime(), prev);
    prev = rq_.min_vruntime();
  }
  EXPECT_GT(prev, 0u);
}

TEST_F(CfsRqTest, TimesliceSharesLatencyByWeight) {
  SchedEntity* a = NewEntity();
  SchedEntity* b = NewEntity();
  rq_.Enqueue(a, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.Enqueue(b, 0, CfsRunqueue::EnqueueKind::kNew);
  // Two equal threads: half the latency each.
  EXPECT_EQ(rq_.TimesliceFor(*a), tunables_.sched_latency / 2);
}

TEST_F(CfsRqTest, TimesliceFloorsAtMinGranularity) {
  std::vector<SchedEntity*> ses;
  for (int i = 0; i < 100; ++i) {
    SchedEntity* se = NewEntity();
    rq_.Enqueue(se, 0, CfsRunqueue::EnqueueKind::kNew);
    ses.push_back(se);
  }
  EXPECT_EQ(rq_.TimesliceFor(*ses[0]), tunables_.min_granularity);
}

TEST_F(CfsRqTest, CheckPreemptTickAfterSliceExpires) {
  SchedEntity* a = NewEntity();
  SchedEntity* b = NewEntity();
  rq_.Enqueue(a, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.Enqueue(b, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.PickNext(0);
  rq_.UpdateCurr(Milliseconds(1));
  EXPECT_FALSE(rq_.CheckPreemptTick());
  rq_.UpdateCurr(tunables_.sched_latency);  // Far past the slice.
  EXPECT_TRUE(rq_.CheckPreemptTick());
}

TEST_F(CfsRqTest, NoPreemptionWhenAlone) {
  SchedEntity* a = NewEntity();
  rq_.Enqueue(a, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.PickNext(0);
  rq_.UpdateCurr(Seconds(5));
  EXPECT_FALSE(rq_.CheckPreemptTick());
}

TEST_F(CfsRqTest, CheckPreemptWakeupNeedsMargin) {
  SchedEntity* curr = NewEntity();
  rq_.Enqueue(curr, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.PickNext(0);
  rq_.UpdateCurr(Milliseconds(2));
  SchedEntity woken;
  woken.tid = 99;
  woken.SetNice(0);
  woken.vruntime = curr->vruntime;  // Equal: no preemption.
  EXPECT_FALSE(rq_.CheckPreemptWakeup(woken));
  woken.vruntime = 0;
  rq_.UpdateCurr(tunables_.wakeup_granularity * 2);
  EXPECT_TRUE(rq_.CheckPreemptWakeup(woken));
}

TEST_F(CfsRqTest, PreemptWakeupOnIdleCpu) {
  SchedEntity woken;
  woken.tid = 99;
  EXPECT_TRUE(rq_.CheckPreemptWakeup(woken));
}

TEST_F(CfsRqTest, LoadSumsEntities) {
  SchedEntity* a = NewEntity();
  SchedEntity* b = NewEntity();
  a->load.SetState(0, true);
  b->load.SetState(0, true);
  rq_.Enqueue(a, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.Enqueue(b, 0, CfsRunqueue::EnqueueKind::kNew);
  double load = rq_.LoadAt(0, [](AutogroupId) { return 1.0; });
  EXPECT_NEAR(load, 2048.0, 1.0);
  // Autogroup division (§2.2.1).
  double divided = rq_.LoadAt(0, [](AutogroupId) { return 64.0; });
  EXPECT_NEAR(divided, 32.0, 0.1);
}

TEST_F(CfsRqTest, HasStealableRespectsAffinity) {
  SchedEntity* pinned = NewEntity();
  pinned->affinity = CpuSet::Single(0);
  rq_.Enqueue(pinned, 0, CfsRunqueue::EnqueueKind::kNew);
  EXPECT_TRUE(rq_.HasStealableFor(0));
  EXPECT_FALSE(rq_.HasStealableFor(1));
}

TEST_F(CfsRqTest, CurrIsNotStealable) {
  SchedEntity* a = NewEntity();
  rq_.Enqueue(a, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.PickNext(0);
  EXPECT_FALSE(rq_.HasStealableFor(1));  // Only curr; nothing queued.
}

TEST_F(CfsRqTest, TotalWeightTracksMembership) {
  SchedEntity* a = NewEntity();
  SchedEntity* b = NewEntity(5);
  rq_.Enqueue(a, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.Enqueue(b, 0, CfsRunqueue::EnqueueKind::kNew);
  EXPECT_EQ(rq_.total_weight(), 1024u + 335u);
  rq_.PickNext(0);  // a runs; weight unchanged.
  EXPECT_EQ(rq_.total_weight(), 1024u + 335u);
  rq_.PutCurr(1, CfsRunqueue::PutKind::kBlocked);
  EXPECT_EQ(rq_.total_weight(), 335u);
  rq_.DequeueQueued(b, 1);
  EXPECT_EQ(rq_.total_weight(), 0u);
}

TEST_F(CfsRqTest, FairnessOverManySlices) {
  // Two equal threads alternating under tick-driven preemption split CPU
  // time ~50/50 (the WFQ core of §2.1).
  SchedEntity* a = NewEntity();
  SchedEntity* b = NewEntity();
  rq_.Enqueue(a, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.Enqueue(b, 0, CfsRunqueue::EnqueueKind::kNew);
  Time now = 0;
  rq_.PickNext(now);
  for (int tick = 0; tick < 1000; ++tick) {
    now += Milliseconds(4);
    rq_.UpdateCurr(now);
    if (rq_.CheckPreemptTick()) {
      rq_.PutCurr(now, CfsRunqueue::PutKind::kStillRunnable);
      rq_.PickNext(now);
    }
  }
  double share_a = static_cast<double>(a->sum_exec_runtime) / static_cast<double>(now);
  EXPECT_NEAR(share_a, 0.5, 0.05);
}

TEST_F(CfsRqTest, WeightedFairnessFavorsHigherWeight) {
  // nice -6 vs nice 0: the weight ratio is 3906/1024 ~ 3.81. Tick-driven
  // preemption at 1ms approximates it closely.
  SchedEntity* heavy = NewEntity(-6);
  SchedEntity* light = NewEntity(0);
  rq_.Enqueue(heavy, 0, CfsRunqueue::EnqueueKind::kNew);
  rq_.Enqueue(light, 0, CfsRunqueue::EnqueueKind::kNew);
  Time now = 0;
  rq_.PickNext(now);
  for (int tick = 0; tick < 16000; ++tick) {
    now += Milliseconds(1);
    rq_.UpdateCurr(now);
    if (rq_.CheckPreemptTick()) {
      rq_.PutCurr(now, CfsRunqueue::PutKind::kStillRunnable);
      rq_.PickNext(now);
    }
  }
  double ratio = static_cast<double>(heavy->sum_exec_runtime) /
                 static_cast<double>(light->sum_exec_runtime);
  EXPECT_NEAR(ratio, 3906.0 / 1024.0, 0.4);
}

}  // namespace
}  // namespace wcores

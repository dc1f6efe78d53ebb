// Direct tests of the O(1) policy's priority arrays.
//
// The conformance suite runs o1 through the policy-agnostic gates (mechanism
// invariants, differential fold, golden hash); these tests pin the 2.6.8
// semantics the arrays themselves owe, read off the switch-in order on one
// cpu: FIFO round-robin within a level, slice expiry into the expired array
// with an array swap when the active one drains, and reweight to the tail of
// the new level in the same array. A seeded sweep checks ValidateArrays and
// the queued census on every cpu, and death tests show the O(1) link check
// in Remove still fires on a task that is not filed in the level it names.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/modsched/o1_policy.h"
#include "src/sim/simulator.h"
#include "src/simkit/rng.h"
#include "tests/modsched/conformance_harness.h"

namespace wcores {
namespace {

struct Stint {
  ThreadId tid;
  Time start;
  Time ran = 0;
};

// Records every stint on cpu 0: who switched in, when, and for how long.
class StintSink : public TraceSink {
 public:
  void OnSwitchIn(Time now, CpuId cpu, ThreadId tid, Time waited) override {
    (void)waited;
    if (cpu == 0) {
      stints.push_back(Stint{tid, now});
    }
  }
  void OnSwitchOut(Time now, CpuId cpu, ThreadId tid, Time ran, bool still_runnable) override {
    (void)now;
    (void)still_runnable;
    if (cpu == 0 && !stints.empty() && stints.back().tid == tid) {
      stints.back().ran = ran;
    }
  }

  std::vector<ThreadId> Order() const {
    std::vector<ThreadId> order;
    for (const Stint& s : stints) {
      order.push_back(s.tid);
    }
    return order;
  }

  std::vector<Stint> stints;
};

// One cpu's worth of o1: every thread is a hog pinned to cpu 0 of a small
// flat machine, so the balancers can move nothing and cpu 0's switch-in
// order is the arrays' pick order.
class O1OneCpu {
 public:
  O1OneCpu() : topo_(Topology::Flat(1, 4)), sim_(topo_, O1Options(&policy_), &sink_) {}

  ThreadId SpawnHog(int nice) {
    Simulator::SpawnParams params;
    params.nice = nice;
    params.affinity = CpuSet::Single(0);
    params.parent_cpu = 0;
    std::vector<Action> script = {ComputeAction{Seconds(100)}};
    return sim_.Spawn(std::make_unique<ScriptBehavior>(std::move(script)), params);
  }

  Simulator& sim() { return sim_; }
  O1Policy& policy() { return policy_; }
  const StintSink& sink() const { return sink_; }

  void ExpectArraysHold(int queued) {
    EXPECT_TRUE(policy_.ValidateArrays(0)) << "t=" << sim_.Now();
    EXPECT_EQ(policy_.QueuedInArrays(0), queued) << "t=" << sim_.Now();
  }

 private:
  static Simulator::Options O1Options(SchedPolicy* policy) {
    Simulator::Options opts;
    opts.policy = policy;
    return opts;
  }

  // Declared before sim_: the simulator borrows all three.
  Topology topo_;
  O1Policy policy_;
  StintSink sink_;
  Simulator sim_;
};

// A full stint ends at the first tick at or past the timeslice.
void ExpectFullSlice(const Stint& s, Time slice) {
  EXPECT_GE(s.ran, slice) << "tid " << s.tid << " at t=" << s.start;
  EXPECT_LT(s.ran, slice + Milliseconds(4)) << "tid " << s.tid << " at t=" << s.start;
}

TEST(O1Policy, EqualPriorityRoundRobinsInFifoOrder) {
  O1OneCpu m;
  ThreadId a = m.SpawnHog(0);
  ThreadId b = m.SpawnHog(0);
  ThreadId c = m.SpawnHog(0);
  m.sim().Run(Milliseconds(50));
  m.ExpectArraysHold(2);
  m.sim().Run(Milliseconds(1000));

  std::vector<ThreadId> order = m.sink().Order();
  ASSERT_GE(order.size(), 9u);
  const ThreadId cycle[] = {a, b, c};
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], cycle[i % 3]) << "switch-in " << i;
  }
  Time slice = m.policy().TimesliceOf(O1Policy::PrioOf(0));
  EXPECT_EQ(slice, Milliseconds(100));
  for (size_t i = 0; i + 1 < m.sink().stints.size(); ++i) {
    ExpectFullSlice(m.sink().stints[i], slice);
  }
}

TEST(O1Policy, ExpiredSliceDemotesAndTheArraysSwap) {
  O1OneCpu m;
  ThreadId high = m.SpawnHog(-5);  // prio 115, 125 ms slices.
  ThreadId low = m.SpawnHog(5);    // prio 125, 75 ms slices.

  // Mid-way through low's first stint: high has used its slice and waits in
  // the expired array, so a lower-priority task runs although a higher one
  // is runnable — the O(1) scheduler's starvation guard.
  m.sim().Run(Milliseconds(160));
  EXPECT_EQ(m.sim().sched().CurrentThread(0), low);
  EXPECT_TRUE(m.sim().sched().Entity(high).on_rq);
  m.ExpectArraysHold(1);

  // Once low expires too, the active array is empty: the arrays swap and
  // high (now first in the new active array) runs its next round.
  m.sim().Run(Milliseconds(1000));
  std::vector<ThreadId> order = m.sink().Order();
  ASSERT_GE(order.size(), 6u);
  for (size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i % 2 == 0 ? high : low) << "switch-in " << i;
  }
  for (size_t i = 0; i + 1 < m.sink().stints.size(); ++i) {
    const Stint& s = m.sink().stints[i];
    ExpectFullSlice(s, m.policy().TimesliceOf(O1Policy::PrioOf(s.tid == high ? -5 : 5)));
  }
}

TEST(O1Policy, ReweightRequeuesAtTheTailOfTheNewLevelInTheSameArray) {
  O1OneCpu m;
  ThreadId a = m.SpawnHog(0);  // Runs first; expires into the expired array.
  ThreadId b = m.SpawnHog(0);
  ThreadId c = m.SpawnHog(1);
  ThreadId d = m.SpawnHog(1);

  // Active array at 10 ms: 120:[b], 121:[c, d]. Moving b to nice 1 files it
  // behind c and d; had it moved to the expired array instead, a (120)
  // would run before it after the swap.
  m.sim().Run(Milliseconds(10));
  m.sim().sched().SetNice(m.sim().Now(), b, 1);
  m.ExpectArraysHold(3);

  // The same in the expired array: at 150 ms a waits there and c runs.
  // Raising a's priority keeps it expired — filed in the active array it
  // would preempt c at the next tick.
  m.sim().Run(Milliseconds(150));
  ASSERT_EQ(m.sim().sched().CurrentThread(0), c);
  m.sim().sched().SetNice(m.sim().Now(), a, -10);
  m.ExpectArraysHold(3);

  m.sim().Run(Milliseconds(700));
  std::vector<ThreadId> order = m.sink().Order();
  std::vector<ThreadId> expected = {a, c, d, b, a, c, d};
  ASSERT_GE(order.size(), expected.size());
  order.resize(expected.size());
  EXPECT_EQ(order, expected);
  ExpectFullSlice(m.sink().stints[1], m.policy().TimesliceOf(O1Policy::PrioOf(1)));
}

// Random mixes under o1 with random renicing, swept at a fixed cadence:
// every cpu's arrays are well formed and hold exactly its queued threads,
// curr excluded (curr lives outside the arrays, as in 2.6.8).
struct SweepState {
  Simulator* sim;
  O1Policy* policy;
  Rng rng{0};
  int sweeps = 0;
  int renices = 0;
};

void SweepArrays(SweepState* st) {
  const Scheduler& sched = st->sim->sched();
  for (CpuId cpu = 0; cpu < st->sim->topo().n_cores(); ++cpu) {
    ASSERT_TRUE(st->policy->ValidateArrays(cpu)) << "cpu " << cpu << " t=" << st->sim->Now();
    int queued = sched.NrRunning(cpu) - (sched.CurrentThread(cpu) != kInvalidThread ? 1 : 0);
    ASSERT_EQ(st->policy->QueuedInArrays(cpu), queued)
        << "cpu " << cpu << " t=" << st->sim->Now();
  }
  st->sweeps += 1;
  // Renice a random thread: queued ones take the OnRqReweight path.
  auto tid = static_cast<ThreadId>(st->rng.NextBelow(static_cast<uint64_t>(sched.ThreadCount())));
  if (sched.Entity(tid).on_rq && !sched.Entity(tid).running) {
    st->renices += 1;
  }
  st->sim->sched().SetNice(st->sim->Now(), tid, static_cast<int>(st->rng.NextBelow(11)) - 5);
  if (st->sim->Now() < conformance::kHorizon && !::testing::Test::HasFatalFailure()) {
    st->sim->After(conformance::kCheckInterval, [st] { SweepArrays(st); });
  }
}

TEST(O1Policy, ArraysMatchTheRunqueuesUnderRandomMixes) {
  int renices = 0;
  for (uint64_t run = 0; run < 4; ++run) {
    uint64_t seed = conformance::BaseSeed() + 7919 * run;
    uint64_t sm = seed;
    Rng rng(SplitMix64(sm));
    Topology topo = conformance::RandomTopology(rng);
    O1Policy policy;
    Simulator::Options opts;
    opts.features = conformance::RandomFeatures(rng);
    opts.seed = seed;
    opts.policy = &policy;
    Simulator sim(topo, opts);
    conformance::SpawnRandomMix(sim, rng, static_cast<int>(rng.NextInRange(6, 48)));

    SweepState st{&sim, &policy, Rng(seed)};
    sim.After(conformance::kCheckInterval, [p = &st] { SweepArrays(p); });
    sim.Run(conformance::kHorizon + Milliseconds(1));
    ASSERT_FALSE(::testing::Test::HasFatalFailure())
        << conformance::ReproCommand("policy=o1", seed, 7919 * run);
    EXPECT_GE(st.sweeps, 150) << conformance::ReproCommand("policy=o1", seed, 7919 * run);
    renices += st.renices;
  }
  EXPECT_GT(renices, 0) << "no sweep reweighted a queued thread";
}

// The integrity check in Remove: a task must be linked where its record
// says. Dequeuing it from another cpu's arrays, or through a neighbour whose
// link no longer names it, aborts.
TEST(O1PolicyDeathTest, RemoveFromAnotherCpusArraysAborts) {
  O1OneCpu m;
  m.SpawnHog(0);
  m.SpawnHog(0);
  ThreadId middle = m.SpawnHog(0);
  m.SpawnHog(0);
  m.sim().Run(Milliseconds(1));
  // Mid-list, both neighbours' links name it, so only its recorded cpu
  // tells that it is not filed in cpu 1's level.
  SchedEntity* se = &m.sim().sched().MutableEntity(middle);
  EXPECT_DEATH(m.policy().OnRqDequeue(m.sim().Now(), 1, se),
               "task not in its recorded priority queue");
}

TEST(O1PolicyDeathTest, RemoveThroughABrokenLinkAborts) {
  O1OneCpu m;
  m.SpawnHog(0);
  ThreadId b = m.SpawnHog(0);
  ThreadId c = m.SpawnHog(0);
  m.sim().Run(Milliseconds(1));
  ASSERT_TRUE(m.policy().ValidateArrays(0));
  Time now = m.sim().Now();
  SchedEntity* se_b = &m.sim().sched().MutableEntity(b);
  SchedEntity* se_c = &m.sim().sched().MutableEntity(c);
  // Filing b on cpu 1 as well unlinks nothing on cpu 0: c's prev still
  // names b, but b's next no longer names c.
  EXPECT_DEATH(
      {
        m.policy().OnRqEnqueue(now, 1, se_b, CfsRunqueue::EnqueueKind::kWakeup);
        m.policy().OnRqDequeue(now, 0, se_c);
      },
      "task not in its recorded priority queue");
}

}  // namespace
}  // namespace wcores

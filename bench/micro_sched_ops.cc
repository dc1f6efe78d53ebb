// Microbenchmarks of the scheduler's hot operations: the costs that motivate
// per-core runqueues and infrequent load balancing (§2.2), measured in real
// (host) time with google-benchmark.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/core/cfs_rq.h"
#include "src/core/rbtree.h"
#include "src/core/scheduler.h"
#include "src/modsched/policy_registry.h"
#include "src/sim/simulator.h"
#include "src/simkit/cpuset.h"
#include "src/simkit/event_queue.h"
#include "src/tools/sweep/trace_hash.h"
#include "src/topo/topology.h"

namespace wcores {
namespace {

// ---- Red-black runqueue structure -------------------------------------------

struct BenchItem {
  uint64_t key;
  int tid;
  RbNode node;
};

struct BenchItemLess {
  bool operator()(const BenchItem& a, const BenchItem& b) const {
    if (a.key != b.key) {
      return a.key < b.key;
    }
    return a.tid < b.tid;
  }
};

void BM_RbTreeInsertErase(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<BenchItem> items(n);
  Rng rng(1);
  for (int i = 0; i < n; ++i) {
    items[i].key = rng.Next();
    items[i].tid = i;
  }
  RbTree<BenchItem, &BenchItem::node, BenchItemLess> tree;
  for (int i = 0; i < n - 1; ++i) {
    tree.Insert(&items[i]);
  }
  for (auto _ : state) {
    tree.Insert(&items[n - 1]);
    tree.Erase(&items[n - 1]);
  }
  state.SetLabel("tree size " + std::to_string(n));
}
BENCHMARK(BM_RbTreeInsertErase)->Arg(8)->Arg(64)->Arg(1024);

// Insert/erase at the tree boundaries: the runqueue's actual enqueue
// pattern. Wakeup enqueues land at-or-below min_vruntime (sleeper credit)
// and a preempted CPU hog re-enqueues at the maximum, so both ends are the
// hot case the leftmost/rightmost hint in RbTree::Insert targets.
void BM_RbTreeInsertEraseBoundary(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<BenchItem> items(n);
  Rng rng(1);
  for (int i = 0; i < n - 2; ++i) {
    items[i].key = 1 + rng.Next() % (~0ull - 2);
    items[i].tid = i;
  }
  items[n - 2].key = 0;  // Below every other key: leftmost hint.
  items[n - 2].tid = n - 2;
  items[n - 1].key = ~0ull;  // Above every other key: rightmost hint.
  items[n - 1].tid = n - 1;
  RbTree<BenchItem, &BenchItem::node, BenchItemLess> tree;
  for (int i = 0; i < n - 2; ++i) {
    tree.Insert(&items[i]);
  }
  for (auto _ : state) {
    tree.Insert(&items[n - 2]);
    tree.Insert(&items[n - 1]);
    tree.Erase(&items[n - 2]);
    tree.Erase(&items[n - 1]);
  }
  state.SetLabel("tree size " + std::to_string(n));
}
BENCHMARK(BM_RbTreeInsertEraseBoundary)->Arg(8)->Arg(64)->Arg(1024);

void BM_RbTreeLeftmost(benchmark::State& state) {
  const int n = 1024;
  std::vector<BenchItem> items(n);
  Rng rng(1);
  RbTree<BenchItem, &BenchItem::node, BenchItemLess> tree;
  for (int i = 0; i < n; ++i) {
    items[i].key = rng.Next();
    items[i].tid = i;
    tree.Insert(&items[i]);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Leftmost());
  }
}
BENCHMARK(BM_RbTreeLeftmost);

// ---- CFS runqueue ------------------------------------------------------------

void BM_RunqueueEnqueueDequeue(benchmark::State& state) {
  SchedTunables tunables = SchedTunables::ForCpus(64);
  CfsRunqueue rq(0, &tunables);
  const int n = static_cast<int>(state.range(0));
  std::deque<SchedEntity> entities(n);
  for (int i = 0; i < n; ++i) {
    entities[i].tid = i;
    entities[i].SetNice(0);
    entities[i].vruntime = static_cast<Time>(i) * Milliseconds(1);
    rq.Enqueue(&entities[i], 0, CfsRunqueue::EnqueueKind::kNew);
  }
  Time now = Milliseconds(1);
  for (auto _ : state) {
    SchedEntity* se = &entities[0];
    rq.DequeueQueued(se, now);
    rq.Enqueue(se, now, CfsRunqueue::EnqueueKind::kMigrate);
    now += 1;
  }
  state.SetLabel("rq size " + std::to_string(n));
}
BENCHMARK(BM_RunqueueEnqueueDequeue)->Arg(2)->Arg(16)->Arg(128);

// ---- Whole-scheduler paths ---------------------------------------------------

class NullClient : public SchedClient {
 public:
  void KickCpu(CpuId) override {}
  void NohzKick(CpuId) override {}
};

// One wakeup through select_task_rq + enqueue, then block again.
void BM_WakeupPlacement(benchmark::State& state) {
  Topology topo = Topology::Bulldozer8x8();
  NullClient client;
  Scheduler sched(topo, SchedFeatures::Stock(), SchedTunables::ForCpus(topo.n_cores()), &client);
  ThreadParams params;
  ThreadId tid = sched.CreateThread(0, params);
  sched.PickNext(0, sched.Entity(tid).cpu);
  sched.BlockCurrent(1, sched.Entity(tid).cpu);
  Time now = 2;
  for (auto _ : state) {
    CpuId cpu = sched.Wake(now, tid, 0);
    sched.PickNext(now + 1, cpu);
    sched.BlockCurrent(now + 2, cpu);
    now += 3;
  }
}
BENCHMARK(BM_WakeupPlacement);

// A component diagnostic for the fixed wakeup path's pick: the longest-idle
// cpu over the full affinity mask, a scan of the allowed tickless cpus, at 8
// and 64 cores with the machine mostly busy (10% idle — the overloaded case
// every wake hits) and mostly idle (90%, where the scan is longest).
void BM_LongestIdleCpu(benchmark::State& state) {
  const int n_cores = static_cast<int>(state.range(0));
  const int idle_pct = static_cast<int>(state.range(1));
  Topology topo = n_cores == 8 ? Topology::Flat(2, 4) : Topology::Bulldozer8x8();
  NullClient client;
  Scheduler sched(topo, SchedFeatures::Stock(), SchedTunables::ForCpus(n_cores), &client);
  const int n_idle = std::max(1, n_cores * idle_pct / 100);
  std::vector<bool> keep_idle(static_cast<size_t>(n_cores), false);
  for (int i = 0; i < n_idle; ++i) {
    keep_idle[static_cast<size_t>(i * n_cores / n_idle)] = true;  // Spread over nodes.
  }
  for (CpuId c = 0; c < n_cores; ++c) {
    if (keep_idle[static_cast<size_t>(c)]) {
      continue;
    }
    ThreadParams params;
    params.parent_cpu = c;
    params.affinity = CpuSet::Single(c);  // Pinned: stays busy.
    sched.CreateThread(0, params);
  }
  CpuSet allowed = topo.AllCpus();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.LongestIdleCpu(allowed));
  }
  state.SetLabel(std::to_string(n_cores) + " cores, " + std::to_string(idle_pct) + "% idle");
}
BENCHMARK(BM_LongestIdleCpu)->Args({8, 10})->Args({8, 90})->Args({64, 10})->Args({64, 90});

// One full periodic-balance pass over all domains of one core on a machine
// with 10 runnable threads per core, at 8 cores (one-node scale: two flat
// nodes) and 64 cores (the paper's 8x8 Bulldozer).
void BM_PeriodicBalancePass(benchmark::State& state) {
  const int n_cores = static_cast<int>(state.range(0));
  Topology topo = n_cores == 8 ? Topology::Flat(2, 4) : Topology::Bulldozer8x8();
  NullClient client;
  Scheduler sched(topo, SchedFeatures::Stock(), SchedTunables::ForCpus(topo.n_cores()), &client);
  Time now = 0;
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    for (int i = 0; i < 10; ++i) {
      ThreadParams params;
      params.parent_cpu = c;
      sched.CreateThread(now, params);
    }
    sched.PickNext(now, c);
  }
  now = Milliseconds(10);
  for (auto _ : state) {
    sched.Tick(now, 0);
    now += Milliseconds(200);  // Always past every balance interval.
  }
  state.SetLabel(std::to_string(topo.n_cores()) + " cores, " +
                 std::to_string(topo.n_cores() * 10) + " threads");
}
BENCHMARK(BM_PeriodicBalancePass)->Arg(8)->Arg(64);

// A component diagnostic for the common tick: every domain interval skips,
// so the periodic walk visits each domain of the ticking core and only
// counts balance_interval_skips. Intervals are stretched so no balance ever
// comes due inside the measurement — this isolates exactly the all-skips
// path that dominates ticks on a busy machine.
void BM_TickAllSkips(benchmark::State& state) {
  Topology topo = Topology::Bulldozer8x8();
  NullClient client;
  SchedTunables tunables = SchedTunables::ForCpus(topo.n_cores());
  tunables.base_balance_interval = Seconds(100);  // Never due during the run.
  Scheduler sched(topo, SchedFeatures::Stock(), tunables, &client);
  Time now = 0;
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    ThreadParams params;  // One thread: busy tick, no NOHZ-kick scan.
    params.parent_cpu = c;
    params.affinity = CpuSet::Single(c);
    sched.CreateThread(now, params);
    sched.PickNext(now, c);
  }
  now = Milliseconds(10);
  for (auto _ : state) {
    sched.Tick(now, 0);
    now += Microseconds(1);
  }
  state.SetLabel("64 cores, all domain intervals skip");
}
BENCHMARK(BM_TickAllSkips);

// Periodic balancing with per-instant churn: every iteration reweights one
// queued thread on cpu 1, so cpu 1's load version changes between passes
// while every other runqueue's membership stays constant.
void BM_PeriodicBalancePassChurn(benchmark::State& state) {
  Topology topo = Topology::Bulldozer8x8();
  NullClient client;
  Scheduler sched(topo, SchedFeatures::Stock(), SchedTunables::ForCpus(topo.n_cores()), &client);
  Time now = 0;
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    for (int i = 0; i < 10; ++i) {
      ThreadParams params;
      params.parent_cpu = c;
      params.affinity = CpuSet::Single(c);  // Pinned: the stacking persists.
      sched.CreateThread(now, params);
    }
    sched.PickNext(now, c);
  }
  ThreadParams churn_params;
  churn_params.parent_cpu = 1;
  churn_params.affinity = CpuSet::Single(1);
  ThreadId churner = sched.CreateThread(now, churn_params);
  now = Milliseconds(10);
  int flip = 0;
  for (auto _ : state) {
    flip ^= 1;
    sched.SetNice(now, churner, flip);  // Reweight: version bump on cpu 1.
    sched.Tick(now, 0);
    now += Milliseconds(200);  // Always past every balance interval.
  }
  state.SetLabel("64 cores, 640 threads, churn on cpu1");
}
BENCHMARK(BM_PeriodicBalancePassChurn);

// One newidle (idle-balance) pass: cpu 0 runs dry while cpus 1..7 of its
// node hold ten pinned queued threads each (nothing stealable) and every
// remote core runs one pinned hog. Each pass runs at a fresh instant, so
// every runqueue is folded once per pass and the RqLoad memo serves its
// re-reads at the higher domain levels. This is the pass that dominates
// fig2_make_r/fixed wall time.
void BM_NewidlePass(benchmark::State& state) {
  Topology topo = Topology::Bulldozer8x8();
  NullClient client;
  Scheduler sched(topo, SchedFeatures::Stock(), SchedTunables::ForCpus(topo.n_cores()), &client);
  Time now = 0;
  for (CpuId c = 1; c < 8; ++c) {
    for (int i = 0; i < 10; ++i) {
      ThreadParams params;
      params.parent_cpu = c;
      params.affinity = CpuSet::Single(c);  // Pinned: newidle cannot steal it.
      sched.CreateThread(now, params);
    }
  }
  for (CpuId c = 8; c < topo.n_cores(); ++c) {
    ThreadParams params;
    params.parent_cpu = c;
    params.affinity = CpuSet::Single(c);
    sched.CreateThread(now, params);
    sched.PickNext(now, c);
  }
  ThreadParams tparams;
  tparams.parent_cpu = 0;
  tparams.affinity = CpuSet::Single(0);
  ThreadId toggler = sched.CreateThread(now, tparams);
  sched.PickNext(now, 0);
  now = Milliseconds(10);
  for (auto _ : state) {
    sched.BlockCurrent(now, 0);
    sched.PickNext(now, 0);  // Empty runqueue: the measured newidle pass.
    sched.Wake(now + 1, toggler, 0);
    sched.PickNext(now + 1, 0);
    now += Microseconds(50);  // Fresh instant per pass.
  }
  state.SetLabel("64 cores, 70 stacked on node0, newidle on cpu0");
}
BENCHMARK(BM_NewidlePass);

// One NOHZ sweep: a kicked idle core runs balancing on behalf of all ~60
// tickless idle cores of a 64-core machine while 4 cores hold pinned load.
// Every idle core's top-level domain lists the same node groups, so the
// sweep folds the same member loads once per tree.
void BM_NohzBalanceSweep(benchmark::State& state) {
  Topology topo = Topology::Bulldozer8x8();
  NullClient client;
  Scheduler sched(topo, SchedFeatures::Stock(), SchedTunables::ForCpus(topo.n_cores()), &client);
  Time now = 0;
  for (CpuId c = 0; c < 4; ++c) {
    for (int i = 0; i < 10; ++i) {
      ThreadParams params;
      params.parent_cpu = c;
      params.affinity = CpuSet::Single(c);  // Pinned: the imbalance persists.
      sched.CreateThread(now, params);
    }
    sched.PickNext(now, c);
  }
  now = Milliseconds(10);
  for (auto _ : state) {
    sched.RunNohzBalance(now, 4);
    now += Milliseconds(200);  // Always past every balance interval.
  }
  state.SetLabel("64 cores, 60 idle, load pinned to 4");
}
BENCHMARK(BM_NohzBalanceSweep);

// ---- Per-member loops of a balance pass -------------------------------------

// Range-for over a CpuSet of the first `n` cpus: the member walk every
// group fold, steal loop and OnConsidered digest runs. /64 is one
// top-level domain span of the 64-core machine.
void BM_CpuSetIterate(benchmark::State& state) {
  const CpuSet set = CpuSet::FirstN(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    int sum = 0;
    for (CpuId c : set) {
      sum += c;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CpuSetIterate)->Arg(64);

// TraceHashSink::OnConsidered over a span of `n` cpus: one tag, the
// initiator and kind, then one Mix per member cpu id.
void BM_TraceHashConsidered(benchmark::State& state) {
  const CpuSet span = CpuSet::FirstN(static_cast<int>(state.range(0)));
  TraceHashSink sink;
  Time now = 0;
  for (auto _ : state) {
    sink.OnConsidered(now, 0, span, ConsideredKind::kIdleBalance);
    now += Microseconds(50);
  }
  benchmark::DoNotOptimize(sink.digest());
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TraceHashConsidered)->Arg(64);

// One schedule+fire round-trip through the event queue (slot alloc, push,
// pop, invoke) with `depth` events pending at each push: the per-event floor
// of everything the simulator does. /1 is the bare path; /44 is nas_spin's
// mean pending depth, with a third of pushes due now as in its census.
void BM_EventDispatch(benchmark::State& state) {
  EventQueue q;
  Rng rng(1);
  uint64_t fired = 0;
  uint64_t* p = &fired;
  for (int64_t i = 1; i < state.range(0); ++i) {
    q.ScheduleAfter(1 + rng.NextBelow(1000), [p] { ++*p; });
  }
  for (auto _ : state) {
    q.ScheduleAfter(rng.NextBelow(3) == 0 ? 0 : 1 + rng.NextBelow(1000), [p] { ++*p; });
    q.RunOne();
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<int64_t>(fired));
}
BENCHMARK(BM_EventDispatch)->Arg(1)->Arg(44);

// A full simulated second of a busy 64-core machine: events per second of
// host time is the simulator's throughput metric.
void BM_SimulatedSecond(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Topology topo = Topology::Bulldozer8x8();
    Simulator::Options opts;
    opts.seed = 5;
    auto sim = std::make_unique<Simulator>(topo, opts);
    for (int i = 0; i < 128; ++i) {
      Simulator::SpawnParams params;
      params.parent_cpu = i % topo.n_cores();
      sim->Spawn(std::make_unique<ScriptBehavior>(
                     std::vector<Action>{ComputeAction{Milliseconds(2)},
                                         SleepAction{Microseconds(500)}},
                     /*repeat=*/100000),
                 params);
    }
    state.ResumeTiming();
    sim->Run(Seconds(1));
    state.counters["events"] = static_cast<double>(sim->queue().executed_count());
  }
}
BENCHMARK(BM_SimulatedSecond)->Unit(benchmark::kMillisecond);

// Building and tearing down one Simulator (scheduler, runqueues, domains
// and the policy's per-cpu state) with no threads: the setup every fleet
// scenario pays before its first event. Args: topology, policy.
void BM_SimulatorSetup(benchmark::State& state) {
  const char* const kTopos[] = {"flat1x4", "flat4x8", "bulldozer8x8"};
  const char* const kPolicies[] = {"cfs", "o1", "coreidle"};
  Topology topo = state.range(0) == 0   ? Topology::Flat(1, 4)
                  : state.range(0) == 1 ? Topology::Flat(4, 8)
                                        : Topology::Bulldozer8x8();
  const char* policy_name = kPolicies[state.range(1)];
  for (auto _ : state) {
    std::unique_ptr<SchedPolicy> policy = CreateSchedPolicy(policy_name);
    Simulator::Options opts;
    opts.policy = policy.get();
    Simulator sim(topo, opts);
    benchmark::DoNotOptimize(&sim);
  }
  state.SetLabel(std::string(policy_name) + " on " + kTopos[state.range(0)]);
}
BENCHMARK(BM_SimulatorSetup)->ArgsProduct({{0, 1, 2}, {0, 1, 2}})->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace wcores

// Microbenchmarks of the event queue and the runqueue mechanism (rb-tree,
// CFS enqueue/dequeue), measured in real (host) time with google-benchmark.
// The simbench ledger times the policy hooks, the trace sinks and setup; it
// folds the queue and the runqueue into engine.residual, so these stay as
// component diagnostics until that residual is split (EXPERIMENTS.md "One
// perf instrument" maps each retired benchmark to the ledger row that
// replaced it).
#include <benchmark/benchmark.h>

#include <deque>
#include <string>
#include <vector>

#include "src/core/cfs_rq.h"
#include "src/core/rbtree.h"
#include "src/simkit/event_queue.h"
#include "src/simkit/rng.h"

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

// ---- Event queue -------------------------------------------------------------

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

}  // namespace
}  // namespace wcores

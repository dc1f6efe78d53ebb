// Ablations of the design decisions DESIGN.md calls out.
//
//  (a) busy_balance_factor: without the kernel's 32x interval stretching for
//      busy cores, the balancer bounces queued threads between runqueues and
//      re-anchors their vruntime each hop — starving them (DESIGN.md #7).
//  (b) Barrier wait policy: pure-blocking barriers hide crowded threads from
//      the balancer; pure-spin barriers turn every crowding into a blow-up;
//      the hybrid reproduces the paper's tiering (DESIGN.md #10).
//  (c) Context-switch cost: sensitivity of a sync-heavy workload.
//  (d) Mid-run feature toggling: flipping fix_group_imbalance while the
//      workload runs, via Scheduler::UpdateFeatures — exercising the
//      feature-generation invalidation of the load memos outside of tests.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/sim/simulator.h"
#include "src/topo/topology.h"
#include "src/workloads/behaviors.h"
#include "src/workloads/make_r.h"
#include "src/workloads/nas.h"

namespace wcores {
namespace {

double PinnedLuSeconds(int busy_factor, Time ctx_cost) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options opts;
  opts.seed = 6001;
  opts.tunables = SchedTunables::ForCpus(topo.n_cores());
  opts.tunables->busy_balance_factor = busy_factor;
  opts.tunables->context_switch_cost = ctx_cost;
  Simulator sim(topo, opts);
  NasConfig config;
  config.app = NasApp::kLu;
  config.threads = 16;
  config.affinity = topo.CpusOfNode(1) | topo.CpusOfNode(2);
  config.spawn_cpu = topo.CpusOfNode(1).First();
  config.scale = 0.15;
  NasWorkload wl(&sim, config);
  wl.Setup();
  sim.Run(Seconds(120));
  if (!wl.Finished()) {
    return -1;  // Livelocked / starved within the window.
  }
  return ToSeconds(wl.CompletionTime());
}

double BarrierAppSeconds(BarrierMode mode, int threads_per_core) {
  Topology topo = Topology::Flat(2, 4, 2);
  Simulator::Options opts;
  opts.seed = 6002;
  Simulator sim(topo, opts);
  int threads = topo.n_cores() * threads_per_core;
  SyncId barrier = mode == BarrierMode::kBlock ? sim.CreateBlockingBarrier(threads)
                                               : sim.CreateSpinBarrier(threads);
  for (int i = 0; i < threads; ++i) {
    Simulator::SpawnParams params;
    params.parent_cpu = 0;
    sim.Spawn(std::make_unique<BarrierComputeBehavior>(barrier, mode, Milliseconds(2), 0.15,
                                                       100, Milliseconds(1)),
              params);
  }
  if (!sim.RunUntilAllExited(Seconds(300))) {
    return -1;
  }
  return ToSeconds(sim.Now());
}

// make+R completion when the Group Imbalance fix is flipped mid-run at
// `toggle_at` (kTimeNever = never toggled). Starts from `initial`.
double MakeWithToggleSeconds(bool initial, Time toggle_at) {
  Topology topo = Topology::Bulldozer8x8();
  Simulator::Options opts;
  opts.features.fix_group_imbalance = initial;
  opts.seed = 6003;
  Simulator sim(topo, opts);
  MakeRConfig config;
  config.make_work_per_thread = Milliseconds(300);
  config.r_work = Seconds(3);
  MakeRWorkload wl(&sim, config);
  wl.Setup();
  if (toggle_at != kTimeNever) {
    sim.At(toggle_at, [&sim, initial] {
      SchedFeatures f = sim.sched().features();
      f.fix_group_imbalance = !initial;
      sim.sched().UpdateFeatures(f);
    });
  }
  sim.Run(Seconds(10));
  if (!wl.MakeFinished()) {
    return -1;
  }
  return ToSeconds(wl.MakeCompletionTime());
}

void Print(const char* label, double v) {
  if (v < 0) {
    std::printf("  %-34s did not finish (starvation/livelock)\n", label);
  } else {
    std::printf("  %-34s %8.3f s\n", label, v);
  }
}

}  // namespace
}  // namespace wcores

int main(int argc, char** argv) {
  using namespace wcores;
  BenchOptions opts = ParseBenchArgs(argc, argv);
  (void)opts;
  PrintHeader("Ablations: the design decisions behind the reproduction",
              "DESIGN.md items 7 (busy factor), 10 (barrier policy), and switch cost");

  std::printf("(a) pinned lu (bug active) vs busy_balance_factor:\n");
  for (int factor : {1, 4, 32, 128}) {
    char label[64];
    std::snprintf(label, sizeof(label), "busy_balance_factor = %d", factor);
    Print(label, PinnedLuSeconds(factor, Microseconds(2)));
  }

  std::printf("\n(b) 100-iteration barrier app vs wait policy (1x and 2x oversubscribed):\n");
  for (int per_core : {1, 2}) {
    for (BarrierMode mode : {BarrierMode::kSpin, BarrierMode::kHybrid, BarrierMode::kBlock}) {
      const char* name = mode == BarrierMode::kSpin
                             ? "pure spin"
                             : (mode == BarrierMode::kHybrid ? "hybrid (1ms grace)" : "blocking");
      char label[64];
      std::snprintf(label, sizeof(label), "%d/core, %s", per_core, name);
      Print(label, BarrierAppSeconds(mode, per_core));
    }
  }

  std::printf("\n(c) pinned lu vs context-switch cost:\n");
  for (uint64_t us : {0ULL, 2ULL, 10ULL, 50ULL}) {
    char label[64];
    std::snprintf(label, sizeof(label), "context_switch_cost = %lluus",
                  static_cast<unsigned long long>(us));
    Print(label, PinnedLuSeconds(32, Microseconds(us)));
  }

  std::printf("\n(d) make+R vs mid-run GroupImbalance-fix toggling:\n");
  Print("stock for the whole run", MakeWithToggleSeconds(false, kTimeNever));
  Print("fix enabled at t=100ms", MakeWithToggleSeconds(false, Milliseconds(100)));
  Print("fix disabled at t=100ms", MakeWithToggleSeconds(true, Milliseconds(100)));
  Print("fixed for the whole run", MakeWithToggleSeconds(true, kTimeNever));
  return 0;
}

// Figure 5: the Missing Scheduling Domains bug, from Core 0's perspective.
//
// After a core is disabled and re-enabled, a 16-thread application is
// launched on Node 1. The visualization tool records the cores each
// balancing call examines; with the bug, Core 0 only ever considers its SMT
// sibling and the cores of its own node — never the overloaded Node 1 —
// because the cross-NUMA domain levels were dropped during regeneration.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"
#include "src/tools/heatmap.h"
#include "src/tools/profiler.h"
#include "src/tools/recorder.h"
#include "src/topo/topology.h"
#include "src/workloads/nas.h"

namespace wcores {
namespace {

struct RunOutput {
  CpuSet considered_by_core0;
  std::string timeline;
  std::string csv;
  uint64_t balance_calls = 0;
  double completion_s = 0;
};

RunOutput Run(bool fixed, const BenchOptions& bench_opts) {
  Topology topo = Topology::Bulldozer8x8();
  TelemetrySession telemetry(topo.n_cores());
  std::string label = fixed ? "fig5_fixed_" : "fig5_stock_";
  AttachTelemetryStream(bench_opts, &telemetry, topo, label);
  EventRecorder& recorder = telemetry.recorder();
  Simulator::Options opts;
  opts.features.fix_missing_domains = fixed;
  opts.seed = 3005;
  Simulator sim(topo, opts, telemetry.sink());

  sim.SetCpuOnline(3, false);
  sim.SetCpuOnline(3, true);
  recorder.Clear();  // Trace only the application run.

  NasConfig config;
  config.app = NasApp::kEp;
  config.threads = 16;
  config.spawn_cpu = topo.CpusOfNode(1).First();
  config.scale = 0.4;
  NasWorkload wl(&sim, config);
  wl.Setup();
  // Keep core 0 busy with one thread so it runs periodic balancing, as in
  // the figure (its vertical blue lines come every 4ms).
  Simulator::SpawnParams hog;
  hog.parent_cpu = 0;
  sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{ComputeAction{Seconds(2)}}),
            hog);
  sim.Run(Seconds(30));

  RunOutput out;
  out.considered_by_core0 = ConsideredUnion(recorder.events(), 0);
  out.timeline = ConsideredToAscii(recorder.events(), 0, topo.n_cores(), 64);
  out.csv = ConsideredToCsv(recorder.events(), 0);
  for (const TraceEvent& e : recorder.events()) {
    if (e.kind == TraceEvent::Kind::kConsidered && e.cpu == 0 &&
        e.sub != static_cast<uint8_t>(ConsideredKind::kWakeup)) {
      out.balance_calls += 1;
    }
  }
  out.completion_s = ToSeconds(wl.CompletionTime());
  WriteTelemetry(bench_opts, &telemetry, sim.sched(), sim.Now(), label);
  return out;
}

}  // namespace
}  // namespace wcores

int main(int argc, char** argv) {
  using namespace wcores;
  BenchOptions opts = ParseBenchArgs(argc, argv, TelemetryFlag::kAccepted);
  PrintHeader("Figure 5: the Missing Scheduling Domains bug (Core 0's balancing view)",
              "EuroSys'16 Figure 5 — cores considered by Core 0 after hotplug, 16-thread app "
              "on Node 1");

  RunOutput buggy = Run(/*fixed=*/false, opts);
  RunOutput fixed = Run(/*fixed=*/true, opts);

  std::printf("stock: cores Core 0 examined across %llu balancing calls: %s\n",
              static_cast<unsigned long long>(buggy.balance_calls),
              buggy.considered_by_core0.ToString().c_str());
  std::printf("fixed: cores Core 0 examined across %llu balancing calls: %s\n\n",
              static_cast<unsigned long long>(fixed.balance_calls),
              fixed.considered_by_core0.ToString().c_str());

  std::printf("stock timeline (rows: cores; columns: successive balancing calls by Core 0;\n"
              "'|' = considered — note Core 0 never looks past its own node):\n%s\n",
              buggy.timeline.c_str());

  std::printf("app completion: stock %.3fs, fixed %.3fs\n", buggy.completion_s,
              fixed.completion_s);
  WriteFile(opts, "fig5_considered_stock.csv", buggy.csv);
  WriteFile(opts, "fig5_considered_fixed.csv", fixed.csv);
  std::printf("CSV files written to %s/ (fig5_considered_*).\n", opts.out_dir.c_str());
  return 0;
}

// Figure 2: the Group Imbalance bug, visualized.
//
// Workload of §3.1: a 64-thread kernel `make` plus two single-threaded R
// processes launched from different ttys (different autogroups) on the
// 64-core 8-node machine. The visualization tool records every runqueue
// size/load change; the heatmaps reproduce:
//   (a) #threads in each core's runqueue over time   — stock scheduler
//   (b) load of each core's runqueue over time       — stock scheduler
//   (c) same as (a) with the Group Imbalance fix applied
#include <cstdio>

#include "bench/bench_util.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"
#include "src/tools/heatmap.h"
#include "src/tools/recorder.h"
#include "src/topo/topology.h"
#include "src/workloads/make_r.h"

namespace wcores {
namespace {

struct RunOutput {
  double make_s = 0;
  std::vector<double> r_s;
  Heatmap nr;
  Heatmap load;
};

RunOutput RunMakeR(bool fixed, const BenchOptions& bench_opts) {
  Topology topo = Topology::Bulldozer8x8();
  TelemetrySession telemetry(topo.n_cores());
  std::string label = fixed ? "fig2_fixed_" : "fig2_stock_";
  AttachTelemetryStream(bench_opts, &telemetry, topo, label);
  Simulator::Options opts;
  opts.features.fix_group_imbalance = fixed;
  opts.seed = 3001;
  Simulator sim(topo, opts, telemetry.sink());
  MakeRConfig config;
  config.make_work_per_thread = Milliseconds(400);
  config.r_work = Seconds(3);
  MakeRWorkload wl(&sim, config);
  wl.Setup();
  sim.Run(Seconds(10));
  if (!wl.MakeFinished()) {
    std::fprintf(stderr, "WARNING: make did not finish\n");
  }

  RunOutput out;
  out.make_s = ToSeconds(wl.MakeCompletionTime());
  for (Time t : wl.RCompletionTimes()) {
    out.r_s.push_back(ToSeconds(t));
  }
  Time window = wl.MakeCompletionTime();
  const std::vector<TraceEvent>& events = telemetry.recorder().events();
  out.nr = BuildHeatmap(events, TraceEvent::Kind::kNrRunning, topo.n_cores(), 0, window, 110);
  out.load = BuildHeatmap(events, TraceEvent::Kind::kLoad, topo.n_cores(), 0, window, 110);
  WriteTelemetry(bench_opts, &telemetry, sim.sched(), sim.Now(), label);
  return out;
}

}  // namespace
}  // namespace wcores

int main(int argc, char** argv) {
  using namespace wcores;
  BenchOptions opts = ParseBenchArgs(argc, argv, TelemetryFlag::kAccepted);
  PrintHeader("Figure 2: the Group Imbalance bug (make x64 + 2 R processes)",
              "EuroSys'16 Figure 2a/2b/2c; paper: make completes 13% faster with the fix");

  RunOutput buggy = RunMakeR(/*fixed=*/false, opts);
  RunOutput fixed = RunMakeR(/*fixed=*/true, opts);

  std::printf("(a) runqueue sizes over time, stock scheduler (rows: cores, node separators):\n");
  std::printf("%s\n", HeatmapToAscii(buggy.nr, 8, 3.0).c_str());
  std::printf("(b) runqueue loads over time, stock scheduler:\n");
  std::printf("%s\n", HeatmapToAscii(buggy.load, 8).c_str());
  std::printf("(c) runqueue sizes over time, Group Imbalance fix applied:\n");
  std::printf("%s\n", HeatmapToAscii(fixed.nr, 8, 3.0).c_str());

  WriteFile(opts, "fig2a_rq_sizes_stock.csv", HeatmapToCsv(buggy.nr));
  WriteFile(opts, "fig2b_rq_loads_stock.csv", HeatmapToCsv(buggy.load));
  WriteFile(opts, "fig2c_rq_sizes_fixed.csv", HeatmapToCsv(fixed.nr));
  WriteFile(opts, "fig2a_rq_sizes_stock.pgm", HeatmapToPgm(buggy.nr, 3.0));
  WriteFile(opts, "fig2c_rq_sizes_fixed.pgm", HeatmapToPgm(fixed.nr, 3.0));

  double delta = (fixed.make_s - buggy.make_s) / buggy.make_s * 100.0;
  std::printf("make completion: stock %.3fs, fixed %.3fs (%+.1f%%; paper: -13%%)\n", buggy.make_s,
              fixed.make_s, delta);
  for (size_t r = 0; r < buggy.r_s.size(); ++r) {
    std::printf("R process %zu completion: stock %.3fs, fixed %.3fs (should be ~unchanged)\n", r,
                buggy.r_s[r], fixed.r_s[r]);
  }
  std::printf("CSV/PGM files written to %s/ (fig2a/b/c).\n", opts.out_dir.c_str());
  if (!opts.telemetry_dir.empty()) {
    std::printf("telemetry reports written to %s/\n", opts.telemetry_dir.c_str());
  }
  return 0;
}

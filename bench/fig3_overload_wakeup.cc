// Figure 3: the Overload-on-Wakeup bug, visualized.
//
// The TPC-H-like database (64 workers, autogroups disabled as in the paper)
// plus transient kernel threads. The runqueue-size heatmap shows instances
// of the bug: cores idle for long stretches while others hold two runnable
// database threads; with the fix, wakeups target the longest-idle core and
// the episodes disappear. The bench also quantifies the episodes: total
// virtual time during which some core is idle while another is overloaded
// with stealable work.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"
#include "src/tools/heatmap.h"
#include "src/tools/recorder.h"
#include "src/topo/topology.h"
#include "src/workloads/tpch.h"
#include "src/workloads/transient.h"

namespace wcores {
namespace {

struct RunOutput {
  double total_s = 0;
  double violation_s = 0;  // Integrated idle-while-overloaded time.
  uint64_t wakeups = 0;
  uint64_t wakeups_on_busy = 0;
  Heatmap nr;
};

RunOutput RunDb(bool fixed, const BenchOptions& bench_opts) {
  Topology topo = Topology::Bulldozer8x8();
  TelemetrySession telemetry(topo.n_cores());
  std::string label = fixed ? "fig3_fixed_" : "fig3_stock_";
  AttachTelemetryStream(bench_opts, &telemetry, topo, label);
  Simulator::Options opts;
  opts.features.fix_overload_wakeup = fixed;
  opts.features.autogroup_enabled = false;  // As in the paper's Figure 3 runs.
  opts.seed = 3003;
  Simulator sim(topo, opts, telemetry.sink());

  TpchConfig config;
  config.queries = {TpchQuery18(/*scale=*/6.0)};
  TpchWorkload wl(&sim, config);
  wl.Setup();
  TransientThreadGenerator::Options topts;
  topts.mean_interval = Milliseconds(2);
  TransientThreadGenerator transients(&sim, topts);
  transients.Start();

  // Sample the invariant every millisecond to integrate violation time.
  RunOutput out;
  Time step = Milliseconds(1);
  uint64_t violated_samples = 0;
  uint64_t samples = 0;
  for (Time t = step;; t += step) {
    sim.Run(t);
    if (wl.Finished() || t > Seconds(60)) {
      break;
    }
    ++samples;
    bool idle = false;
    bool overloaded = false;
    for (CpuId c = 0; c < topo.n_cores(); ++c) {
      int nr = sim.sched().NrRunning(c);
      idle = idle || nr == 0;
      overloaded = overloaded || nr >= 2;
    }
    if (idle && overloaded) {
      ++violated_samples;
    }
  }
  out.total_s = ToSeconds(wl.TotalTime());
  out.violation_s = ToSeconds(violated_samples * step);
  out.wakeups = sim.sched().stats().wakeups;
  out.wakeups_on_busy = sim.sched().stats().wakeups_on_busy;
  out.nr = BuildHeatmap(telemetry.recorder().events(), TraceEvent::Kind::kNrRunning,
                        topo.n_cores(), 0, wl.TotalTime(), 110);
  WriteTelemetry(bench_opts, &telemetry, sim.sched(), sim.Now(), label);
  (void)samples;
  return out;
}

}  // namespace
}  // namespace wcores

int main(int argc, char** argv) {
  using namespace wcores;
  BenchOptions opts = ParseBenchArgs(argc, argv, TelemetryFlag::kAccepted);
  PrintHeader("Figure 3: the Overload-on-Wakeup bug (TPC-H Q18 + transient threads)",
              "EuroSys'16 Figure 3; threads wake on busy cores of their node while other "
              "cores sit idle");

  RunOutput buggy = RunDb(/*fixed=*/false, opts);
  RunOutput fixed = RunDb(/*fixed=*/true, opts);

  std::printf("runqueue sizes over time, stock scheduler:\n%s\n",
              HeatmapToAscii(buggy.nr, 8, 2.0).c_str());
  std::printf("runqueue sizes over time, wakeup fix applied:\n%s\n",
              HeatmapToAscii(fixed.nr, 8, 2.0).c_str());

  WriteFile(opts, "fig3_rq_sizes_stock.csv", HeatmapToCsv(buggy.nr));
  WriteFile(opts, "fig3_rq_sizes_fixed.csv", HeatmapToCsv(fixed.nr));
  WriteFile(opts, "fig3_rq_sizes_stock.pgm", HeatmapToPgm(buggy.nr, 2.0));

  std::printf("Q18 completion:            stock %.3fs, fixed %.3fs (%+.1f%%; paper: -22.2%%)\n",
              buggy.total_s, fixed.total_s,
              (fixed.total_s - buggy.total_s) / buggy.total_s * 100.0);
  std::printf("idle-while-overloaded time: stock %.3fs, fixed %.3fs\n", buggy.violation_s,
              fixed.violation_s);
  std::printf("wakeups onto busy cores:    stock %llu/%llu, fixed %llu/%llu\n",
              static_cast<unsigned long long>(buggy.wakeups_on_busy),
              static_cast<unsigned long long>(buggy.wakeups),
              static_cast<unsigned long long>(fixed.wakeups_on_busy),
              static_cast<unsigned long long>(fixed.wakeups));
  std::printf("CSV/PGM files written to %s/ (fig3_*).\n", opts.out_dir.c_str());
  return 0;
}

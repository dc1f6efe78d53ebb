// §4.1 detection-probability study: "the probability of detecting the actual
// bugs ... depends on the frequency and duration of the invariant violation.
// ... If the fraction is small, the chances of detecting the bug are also
// small, but so is the impact on performance. ... if the bug-triggering
// workload keeps running, the chances that the sanity checker detects the
// bug during at least one of the checks keep increasing."
//
// We synthesize intermittent violations (Overload-on-Wakeup style: episodes
// of a pinned 2-threads-1-core overload lasting D, recurring with duty cycle
// F) and measure, across seeds, the probability that at least one check
// confirms a violation, as a function of F and of total runtime.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/sim/simulator.h"
#include "src/telemetry/telemetry.h"
#include "src/tools/sanity_checker.h"
#include "src/topo/topology.h"

namespace wcores {
namespace {

// One run: violation episodes of duration ~`episode` starting every
// `period`, for `total` virtual time. The episodes are *real* bug
// occurrences: on a machine with the Missing Scheduling Domains bug armed
// (hotplugged core), a burst of 16 threads forked on node 0 stays confined
// to its 8 cores (2 per core) until the burst's work drains — while the
// other 56 cores idle. Returns true if the checker confirmed at least one
// violation.
bool DetectedOnce(Time episode, Time period, Time total, uint64_t seed,
                  std::string* example_report, const BenchOptions& bench_opts,
                  uint64_t* starvation_findings, std::string* last_stream_json) {
  Topology topo = Topology::Bulldozer8x8();
  // A small telemetry session rides along so confirmed violations carry a
  // machine-wide latency digest (the recorder stays tiny; only the latency
  // accountant matters here).
  TelemetrySession telemetry(topo.n_cores(), /*recorder_capacity=*/1 << 12);
  if (!bench_opts.telemetry_dir.empty()) {
    // The streaming starvation detector rides along as the second invariant
    // monitor of §4.1: per-task runnable-but-off-cpu horizons, next to the
    // checker's machine-level idle-while-overloaded invariant.
    telemetry.AttachStream(TelemetryStream::ForTopology(topo));
  }
  Simulator::Options opts;
  opts.seed = seed;
  Simulator sim(topo, opts, telemetry.sink());
  sim.SetCpuOnline(3, false);  // Arm the bug.
  sim.SetCpuOnline(3, true);

  // Aperiodic episodes (inter-arrival jittered +/-50%), like real bug
  // occurrences: each S-check then samples an independent alignment, so
  // longer runs accumulate detection probability.
  Rng rng(seed);
  Time start = rng.NextTime(0, period);
  while (start + episode <= total) {
    sim.At(start, [&sim, episode] {
      for (int i = 0; i < 16; ++i) {
        Simulator::SpawnParams params;
        params.parent_cpu = 0;
        sim.Spawn(std::make_unique<ScriptBehavior>(
                      std::vector<Action>{ComputeAction{episode / 2}}),
                  params);
      }
    });
    start += rng.NextTime(period / 2, period + period / 2);
  }

  SanityChecker::Options copts;
  copts.check_interval = Seconds(1);             // S, the paper's default.
  copts.confirmation_window = Milliseconds(100);  // M.
  copts.latency_snapshot = [&telemetry] { return telemetry.LatencySnapshot(); };
  SanityChecker checker(&sim, copts);
  checker.Start();
  sim.Run(total);
  if (example_report != nullptr && example_report->empty() && !checker.violations().empty()) {
    *example_report = SanityChecker::Report(checker.violations().front());
  }
  if (TelemetryStream* stream = telemetry.stream()) {
    stream->Finish(sim.Now());
    *starvation_findings += stream->findings_total();
    *last_stream_json = stream->SummaryJson();
  }
  return !checker.violations().empty();
}

double DetectionProbability(Time episode, Time period, Time total, int runs,
                            std::string* example_report, const BenchOptions& bench_opts,
                            uint64_t* starvation_findings, std::string* last_stream_json) {
  int hits = 0;
  for (int r = 0; r < runs; ++r) {
    if (DetectedOnce(episode, period, total, 1000 + 31 * static_cast<uint64_t>(r),
                     example_report, bench_opts, starvation_findings, last_stream_json)) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / runs;
}

}  // namespace
}  // namespace wcores

int main(int argc, char** argv) {
  using namespace wcores;
  BenchOptions opts = ParseBenchArgs(argc, argv, TelemetryFlag::kAccepted);
  PrintHeader("Sanity-checker detection probability vs violation duty cycle",
              "EuroSys'16 §4.1 — S = 1s, M = 100ms, intermittent violations");

  constexpr int kRuns = 20;
  std::printf("%-28s %-12s %-12s %s\n", "episode/period", "duty cycle", "runtime",
              "P(detect >= once)");
  std::string csv = "episode_ms,period_ms,duty,total_s,p_detect\n";
  struct Row {
    Time episode;
    Time period;
    Time total;
  };
  const Row kRows[] = {
      {Milliseconds(150), Seconds(4), Seconds(10)},
      {Milliseconds(400), Seconds(4), Seconds(10)},
      {Milliseconds(800), Seconds(4), Seconds(10)},
      {Milliseconds(1500), Seconds(4), Seconds(10)},
      {Milliseconds(400), Seconds(4), Seconds(40)},
      {Milliseconds(400), Seconds(4), Seconds(160)},
  };
  std::string example_report;
  uint64_t starvation_findings = 0;
  std::string last_stream_json;
  for (const Row& row : kRows) {
    double p = DetectionProbability(row.episode, row.period, row.total, kRuns, &example_report,
                                    opts, &starvation_findings, &last_stream_json);
    char label[64];
    std::snprintf(label, sizeof(label), "%.0fms / %.0fs", ToMilliseconds(row.episode),
                  ToSeconds(row.period));
    std::printf("%-28s %10.1f%% %9.0fs  %.2f\n", label,
                100.0 * ToSeconds(row.episode) / ToSeconds(row.period), ToSeconds(row.total), p);
    char line[128];
    std::snprintf(line, sizeof(line), "%.0f,%.0f,%.3f,%.0f,%.2f\n", ToMilliseconds(row.episode),
                  ToMilliseconds(row.period), ToSeconds(row.episode) / ToSeconds(row.period),
                  ToSeconds(row.total), p);
    csv += line;
  }
  WriteFile(opts, "checker_detection.csv", csv);
  std::printf("\nShape checks: longer episodes and longer runtimes raise detection\n"
              "probability toward 1, as §4.1 argues; sub-M episodes are (correctly) missed.\n"
              "CSV: %s/checker_detection.csv\n", opts.out_dir.c_str());
  if (!example_report.empty()) {
    std::printf("\nexample confirmed violation (with latency digest):\n%s", example_report.c_str());
  }
  if (!opts.telemetry_dir.empty()) {
    std::printf("\nstreaming starvation detector (second monitor, 100ms horizon): "
                "%llu findings across all runs\n",
                static_cast<unsigned long long>(starvation_findings));
    if (!last_stream_json.empty()) {
      std::printf("STREAM checker_detection_last_ %s\n", last_stream_json.c_str());
      WriteArtifact(std::filesystem::path(opts.telemetry_dir) / "checker_detection_stream.json",
                    last_stream_json + "\n");
    }
  }
  return 0;
}

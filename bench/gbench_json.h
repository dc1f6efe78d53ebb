// Custom google-benchmark main that also emits BENCH_<name>.json.
//
// The stock benchmark_main prints to the console and exits; the perf
// trajectory needs machine-readable output checked in per commit. This
// reporter keeps the normal console output and mirrors every run into a
// BenchReport row.
//
// Usage, replacing BENCHMARK_MAIN():
//   int main(int argc, char** argv) { return wcores::GbenchJsonMain("micro_x", argc, argv); }
//
// The binary accepts --out=DIR (ours) plus all --benchmark_* flags.
#ifndef BENCH_GBENCH_JSON_H_
#define BENCH_GBENCH_JSON_H_

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace wcores {

class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) {
        continue;
      }
      BenchReport::Row row;
      row.name = run.benchmark_name();
      row.labels["time_unit"] = benchmark::GetTimeUnitString(run.time_unit);
      row.metrics["real_time"] = run.GetAdjustedRealTime();
      row.metrics["cpu_time"] = run.GetAdjustedCPUTime();
      row.metrics["iterations"] = static_cast<double>(run.iterations);
      for (const auto& [name, counter] : run.counters) {
        row.metrics[name] = static_cast<double>(counter);
      }
      rows.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<BenchReport::Row> rows;
};

inline int GbenchJsonMain(const std::string& bench_name, int argc, char** argv) {
  // Split our flags from benchmark's: only --out=DIR is ours; everything
  // else is handed to benchmark::Initialize, which rejects what it does
  // not know.
  BenchOptions opts;
  std::vector<char*> bm_argv;
  bm_argv.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      opts.out_dir = arg.substr(6);
      if (opts.out_dir.empty()) {
        BadFlagValue("out", "", "a directory path");
      }
    } else {
      bm_argv.push_back(argv[i]);
    }
  }
  int bm_argc = static_cast<int>(bm_argv.size());
  benchmark::Initialize(&bm_argc, bm_argv.data());
  if (benchmark::ReportUnrecognizedArguments(bm_argc, bm_argv.data())) {
    return 1;
  }

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  BenchReport report;
  report.bench = bench_name;
  report.rows = std::move(reporter.rows);
  report.Write(opts);
  std::printf("wrote %s/BENCH_%s.json\n", opts.out_dir.c_str(), bench_name.c_str());
  return 0;
}

}  // namespace wcores

#endif  // BENCH_GBENCH_JSON_H_

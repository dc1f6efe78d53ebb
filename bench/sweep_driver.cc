// Parallel scenario-sweep driver.
//
// Runs the figure/table scenario matrix (plus optional random scenarios)
// through the sweep runner at increasing host-thread counts, checks that
// the combined trace hash is identical at every count (parallelism must
// not change behavior), and reports the scaling curve. Emits
// BENCH_sweep.json with per-scenario results and per-thread-count wall
// times so the perf trajectory is machine-readable.
//
// --telemetry[=DIR] attaches the bounded-memory streaming pipeline to every
// scenario (one STREAM summary line per run, DIR/sweep_stream.jsonl) and
// cross-checks that attachment leaves every trace hash byte-identical.
// --big-mix=MIN_EVENTS instead runs one huge random mix in a single pass
// with the stream attached and asserts the pipeline's contract at scale:
// >= MIN_EVENTS trace events, every one of them analyzed, and peak
// aggregator memory within the O(tasks + cpus) budget.
// --policy=NAME|all instead runs the cross-policy arena: the same scenario
// matrix under each registered scheduling policy (cfs, o1, coreidle, ...),
// with a per-policy replay-determinism check, a per-scenario leaderboard,
// and BENCH_policy_arena.json.
//
// Fleet-scale sweep service (src/tools/sweep/{grid,manifest,receipts,shard}):
//   --make-manifest=FILE [--grid=SPEC]   expand a parameter grid and
//       materialize the manifest of scenario instances (SPEC defaults to
//       the 540-instance default fleet grid; see grid.h for the syntax).
//   --shard=I/N --manifest=FILE --results=DIR [--threads=T]   claim work
//       from the manifest with flock-based work stealing, append one JSON
//       receipt line per completed scenario to DIR/shard-I.jsonl, and skip
//       anything already receipted (resume). Merge and verify the shards
//       with `wc-trend merge`.
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/modsched/policy_registry.h"
#include "src/simkit/check.h"
#include "src/tools/sweep/grid.h"
#include "src/tools/sweep/manifest.h"
#include "src/tools/sweep/shard.h"
#include "src/tools/sweep/sweep.h"

namespace wcores {
namespace {

// The scenario's headline completion metric (lower = better), or a negative
// value when the workload defines none (random mixes run to a fixed
// horizon and are reported, not ranked).
double CompletionScore(const ScenarioResult& r) {
  for (const char* key : {"make_s", "q18_s", "completion_s"}) {
    auto it = r.metrics.find(key);
    if (it != r.metrics.end()) {
      return it->second;
    }
  }
  return -1.0;
}

// Cross-policy arena: the full scenario matrix under every requested
// policy, a per-policy determinism check (each policy's sweep replays
// bit-identically across thread counts), a per-scenario leaderboard, and
// BENCH_policy_arena.json.
int RunPolicyArena(const BenchOptions& opts, const std::string& policy_arg, double scale,
                   int random_count, uint64_t seed, int max_threads) {
  PrintHeader("Cross-policy scheduler arena",
              "§5 modular scheduling: one scenario matrix, every registered policy");

  std::vector<std::string> policies;
  if (policy_arg == "all") {
    policies = SchedPolicyNames();
  } else {
    if (CreateSchedPolicy(policy_arg) == nullptr) {
      std::fprintf(stderr, "unknown --policy '%s'; registered:", policy_arg.c_str());
      for (const std::string& name : SchedPolicyNames()) {
        std::fprintf(stderr, " %s", name.c_str());
      }
      std::fprintf(stderr, " all\n");
      return 2;
    }
    policies.push_back(policy_arg);
  }

  std::vector<Scenario> base = FigureScenarios(scale);
  for (Scenario& s : RandomScenarios(seed, random_count)) {
    base.push_back(std::move(s));
  }

  BenchReport report;
  report.bench = "policy_arena";
  report.context_num["scenarios"] = static_cast<double>(base.size());
  report.context_num["policies"] = static_cast<double>(policies.size());
  report.context_num["scale"] = scale;

  // results[p][i] is policy p's result for base scenario i.
  std::vector<std::vector<ScenarioResult>> results;
  for (const std::string& policy : policies) {
    std::vector<Scenario> matrix = base;
    for (Scenario& s : matrix) {
      s.policy = policy;
    }
    SweepOptions sweep_opts;
    sweep_opts.threads = max_threads;
    SweepReport run = RunSweep(matrix, sweep_opts);
    // Per-policy hash check: the same matrix at one worker must replay
    // bit-identically — every policy inherits the determinism contract,
    // not just CFS.
    SweepOptions serial;
    serial.threads = 1;
    SweepReport replay = RunSweep(matrix, serial);
    WC_CHECK(run.CombinedHash() == replay.CombinedHash(),
             "policy sweep hash differs across thread counts");
    std::printf("policy %-10s combined_hash=%016llx  wall=%8.1f ms\n", policy.c_str(),
                static_cast<unsigned long long>(run.CombinedHash()), run.wall_ms);

    for (const ScenarioResult& r : run.results) {
      BenchReport::Row row;
      row.name = policy + "/" + r.name;
      row.labels["policy"] = policy;
      row.labels["scenario"] = r.name;
      row.labels["trace_hash"] = [&] {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(r.trace_hash));
        return std::string(buf);
      }();
      row.metrics["sim_events"] = static_cast<double>(r.sim_events);
      row.metrics["context_switches"] = static_cast<double>(r.context_switches);
      row.metrics["migrations"] = static_cast<double>(r.migrations);
      row.metrics["wall_ms"] = r.wall_ms;
      double score = CompletionScore(r);
      if (score >= 0) {
        row.metrics["completion_s"] = score;
      }
      for (const auto& [k, v] : r.metrics) {
        row.metrics[k] = v;
      }
      report.rows.push_back(std::move(row));
    }
    results.push_back(std::move(run.results));
  }

  // Per-scenario leaderboard. Scenarios with a completion metric rank by
  // it; horizon-bound scenarios (random mixes) are shown unranked.
  std::printf("\nleaderboard (completion seconds; * = winner, - = horizon-bound):\n");
  std::printf("  %-28s", "scenario");
  for (const std::string& p : policies) {
    std::printf(" %12s", p.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < base.size(); ++i) {
    double best = -1.0;
    size_t best_p = 0;
    for (size_t p = 0; p < policies.size(); ++p) {
      double score = CompletionScore(results[p][i]);
      if (score >= 0 && (best < 0 || score < best)) {
        best = score;
        best_p = p;
      }
    }
    std::printf("  %-28s", base[i].name.c_str());
    for (size_t p = 0; p < policies.size(); ++p) {
      double score = CompletionScore(results[p][i]);
      if (score >= 0) {
        std::printf(" %10.3f%s", score, best >= 0 && p == best_p ? "*" : " ");
      } else {
        std::printf(" %10s -", "");
      }
    }
    std::printf("\n");
  }

  report.Write(opts);
  std::printf("\nwrote %s/BENCH_policy_arena.json\n", opts.out_dir.c_str());
  return 0;
}

// One-pass soak of the streaming pipeline. Scenario sizing (threads, scale,
// horizon) is pinned so the run deterministically crosses the event floor;
// the floor itself stays a flag so CI's intent ("at least ten million") is
// visible at the call site.
int RunBigMix(const BenchOptions& opts, uint64_t min_events, uint64_t seed) {
  PrintHeader("Streaming-telemetry soak: one-pass big random mix",
              "bounded-memory analytics over a >=10M-event trace (§4 methodology)");

  Scenario s;
  s.name = "big_mix/" + std::to_string(seed);
  s.topo = Scenario::Topo::kBulldozer8x8;
  s.workload = Scenario::Workload::kRandomMix;
  s.mix_threads = 4096;
  s.scale = 8.0;  // 40% of the mix become 16s compute hogs: sustained churn.
  s.seed = seed;
  s.horizon = Seconds(200);
  s.stream = true;

  std::printf("scenario: %s  threads=%d scale=%.1f horizon=%.0fs\n", s.name.c_str(),
              s.mix_threads, s.scale, ToSeconds(s.horizon));
  ScenarioResult r = RunScenario(s);

  std::printf("trace_events=%llu  switches=%llu  migrations=%llu  wall=%.1f ms\n",
              static_cast<unsigned long long>(r.trace_events),
              static_cast<unsigned long long>(r.context_switches),
              static_cast<unsigned long long>(r.migrations), r.wall_ms);
  std::printf("STREAM %s %s\n", r.name.c_str(), r.stream_summary.c_str());
  std::printf("memory: peak=%llu budget=%llu (%.1f%% used)\n",
              static_cast<unsigned long long>(r.stream_agg_bytes_peak),
              static_cast<unsigned long long>(r.stream_budget_bytes),
              100.0 * static_cast<double>(r.stream_agg_bytes_peak) /
                  static_cast<double>(r.stream_budget_bytes ? r.stream_budget_bytes : 1));

  // The pipeline's contract, enforced: every event analyzed in one pass,
  // memory bounded by O(tasks + cpus).
  WC_CHECK(r.trace_events >= min_events, "big-mix produced fewer trace events than required");
  WC_CHECK(r.stream_events == r.trace_events,
           "stream analyzed a different event count than the trace hash saw");
  WC_CHECK(r.stream_within_budget, "stream aggregator memory exceeded the O(tasks+cpus) budget");

  BenchReport report;
  report.bench = "stream_soak";
  report.context_num["min_events"] = static_cast<double>(min_events);
  BenchReport::Row row;
  row.name = r.name;
  row.metrics["trace_events"] = static_cast<double>(r.trace_events);
  row.metrics["context_switches"] = static_cast<double>(r.context_switches);
  row.metrics["wall_ms"] = r.wall_ms;
  row.metrics["agg_bytes_peak"] = static_cast<double>(r.stream_agg_bytes_peak);
  row.metrics["budget_bytes"] = static_cast<double>(r.stream_budget_bytes);
  row.metrics["stream_events"] = static_cast<double>(r.stream_events);
  row.metrics["starvation_findings"] = static_cast<double>(r.stream_findings);
  report.rows.push_back(std::move(row));
  report.Write(opts);
  std::printf("wrote %s/BENCH_stream_soak.json\n", opts.out_dir.c_str());
  return 0;
}

// Expand --grid into a manifest file: the materialization half of the
// fleet service. Exits through the hard-error path on a bad spec.
int RunMakeManifest(const std::string& path, const std::string& grid_spec) {
  PrintHeader("Fleet sweep: materialize scenario-grid manifest",
              "§4 methodology at fleet scale: parameter grid -> manifest of instances");
  GridSpec spec;
  std::string error;
  if (!ParseGridSpec(grid_spec, &spec, &error)) {
    std::fprintf(stderr, "invalid value '%s' for --grid: %s\n", grid_spec.c_str(),
                 error.c_str());
    return 2;
  }
  std::vector<Scenario> scenarios = ExpandGrid(spec);
  WriteManifest(path, scenarios);
  std::printf("manifest %s: %zu scenario instances\n", path.c_str(), scenarios.size());
  std::printf("  axes: %zu topos x %zu workloads x %zu feature sets x %zu policies x %zu"
              " mixes x %d seeds\n",
              spec.topos.size(), spec.workloads.size(), spec.feature_sets.size(),
              spec.policies.size(), spec.mix_threads.size(), spec.seeds_per_cell);
  return 0;
}

// One shard of a fleet run: claim scenarios from the manifest, append
// receipts, resume past anything already done.
int RunShardMode(const std::string& manifest_path, int shard_index, int shard_count,
                 const std::string& results_dir, int threads) {
  PrintHeader("Fleet sweep: sharded manifest runner",
              "§4 methodology at fleet scale: receipts make distributed runs verifiable");
  Manifest manifest;
  std::string error;
  if (!LoadManifest(manifest_path, &manifest, &error)) {
    std::fprintf(stderr, "sweep_driver: %s\n", error.c_str());
    return 1;
  }
  std::printf("shard %d/%d over %zu scenarios -> %s (threads=%d)\n", shard_index, shard_count,
              manifest.scenarios.size(), results_dir.c_str(), threads);
  ShardOptions shard_opts;
  shard_opts.results_dir = results_dir;
  shard_opts.shard_index = shard_index;
  shard_opts.shard_count = shard_count;
  shard_opts.threads = threads;
  ShardReport report = RunShard(manifest.scenarios, shard_opts);
  std::printf("shard %d/%d done: ran=%d skipped=%d contended=%d requeued=%d"
              " (scenario wall %.1f ms)\n",
              shard_index, shard_count, report.ran, report.skipped, report.contended,
              report.requeued, report.wall_ms_total);
  std::printf("receipts: %s\n", report.receipts_path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  std::string threads_s, scale_s, random_s, seed_s, bigmix_s, policy_s;
  std::string manifest_s, results_s, shard_s, make_manifest_s, grid_s;
  BenchOptions opts = ParseBenchArgs(
      argc, argv, TelemetryFlag::kAccepted,
      {
          {"threads", &threads_s, "max host threads to sweep up to (default: hardware)"},
          {"scale", &scale_s, "workload scale factor (default 0.25)"},
          {"random", &random_s, "extra random scenarios to append (default 6)"},
          {"seed", &seed_s, "seed for the random scenarios (default 99)"},
          {"big-mix", &bigmix_s,
           "skip the matrix; run one huge streamed random mix and assert >= this many events"},
          {"policy", &policy_s,
           "cross-policy arena: run the matrix under this policy name, or 'all'"},
          {"make-manifest", &make_manifest_s,
           "expand --grid and write the fleet manifest to this path, then exit"},
          {"grid", &grid_s, "grid spec for --make-manifest ('default' or key=v;... syntax)"},
          {"shard", &shard_s, "run as fleet shard I/N over --manifest into --results"},
          {"manifest", &manifest_s, "manifest file for --shard"},
          {"results", &results_s, "results directory for --shard (receipts + claims)"},
      });
  HostCores host = DetectHostCores();
  int max_threads = static_cast<int>(
      ParseIntFlag("threads", threads_s, host.cores, 1, 1 << 20));
  double scale = ParseDoubleFlag("scale", scale_s, 0.25, 1e-6, 1e6);
  int random_count = static_cast<int>(ParseIntFlag("random", random_s, 6, 0, 1 << 20));
  uint64_t seed = ParseU64Flag("seed", seed_s, 99);

  if (!opts.telemetry_dir.empty() &&
      !(make_manifest_s.empty() && shard_s.empty() && bigmix_s.empty() && policy_s.empty())) {
    std::fprintf(stderr, "--telemetry only applies to the scenario matrix\n");
    return 2;
  }
  if (!make_manifest_s.empty()) {
    return RunMakeManifest(make_manifest_s, grid_s.empty() ? "default" : grid_s);
  }
  if (!shard_s.empty()) {
    size_t slash = shard_s.find('/');
    if (slash == std::string::npos) {
      BadFlagValue("shard", shard_s, "I/N with 0 <= I < N");
    }
    int shard_count = static_cast<int>(
        ParseIntFlag("shard", shard_s.substr(slash + 1), -1, 1, 1 << 20));
    int shard_index = static_cast<int>(
        ParseIntFlag("shard", shard_s.substr(0, slash), -1, 0, shard_count - 1));
    if (manifest_s.empty() || results_s.empty()) {
      std::fprintf(stderr, "--shard requires --manifest=FILE and --results=DIR\n");
      return 2;
    }
    return RunShardMode(manifest_s, shard_index, shard_count, results_s,
                        threads_s.empty() ? 1 : max_threads);
  }
  if (!manifest_s.empty() || !results_s.empty() || !grid_s.empty()) {
    std::fprintf(stderr,
                 "--manifest/--results/--grid only apply with --shard or --make-manifest\n");
    return 2;
  }

  if (!bigmix_s.empty()) {
    return RunBigMix(opts, ParseU64Flag("big-mix", bigmix_s, 0), seed);
  }
  if (!policy_s.empty()) {
    return RunPolicyArena(opts, policy_s, scale, random_count, seed, max_threads);
  }

  PrintHeader("Parallel scenario sweep", "§4 evaluation methodology (scenario matrix)");

  std::vector<Scenario> scenarios = FigureScenarios(scale);
  for (Scenario& s : RandomScenarios(seed, random_count)) {
    scenarios.push_back(std::move(s));
  }
  const bool stream = !opts.telemetry_dir.empty();
  if (stream) {
    for (Scenario& s : scenarios) {
      s.stream = true;
    }
  }
  std::printf("%zu scenarios, up to %d host threads (host has %d%s)\n\n", scenarios.size(),
              max_threads, host.cores, host.detected ? "" : ", detection failed");

  // Thread counts: 1, 2, 4, ... up to max_threads (always including both
  // endpoints), so the 1→4 scaling factor is directly measurable.
  std::vector<int> counts;
  for (int t = 1; t < max_threads; t *= 2) {
    counts.push_back(t);
  }
  counts.push_back(max_threads);

  BenchReport report;
  report.bench = "sweep";
  // host_cores is the value the sweep actually used: when detection fails
  // (hardware_concurrency() == 0) we sweep with 1 thread and must say 1,
  // not 0, or trend tooling reads a zero-core host. The detection failure
  // itself is reported explicitly alongside.
  report.context_num["host_cores"] = host.cores;
  report.context_num["host_cores_detected"] = host.detected ? 1 : 0;
  report.context_num["scenarios"] = static_cast<double>(scenarios.size());
  report.context_num["scale"] = scale;

  uint64_t reference_hash = 0;
  double wall_1thread = 0;
  SweepReport last;
  for (size_t ci = 0; ci < counts.size(); ++ci) {
    SweepOptions sweep_opts;
    sweep_opts.threads = counts[ci];
    SweepReport r = RunSweep(scenarios, sweep_opts);
    if (ci == 0) {
      reference_hash = r.CombinedHash();
      wall_1thread = r.wall_ms;
    } else {
      // Parallelism must be invisible in the results.
      WC_CHECK(r.CombinedHash() == reference_hash, "sweep results differ across thread counts");
    }
    double speedup = wall_1thread / (r.wall_ms > 0 ? r.wall_ms : 1e-9);
    std::printf("threads=%2d  wall=%9.1f ms  speedup=%.2fx  events=%llu  hash=%016llx\n",
                r.threads, r.wall_ms, speedup,
                static_cast<unsigned long long>(r.TotalSimEvents()),
                static_cast<unsigned long long>(r.CombinedHash()));
    BenchReport::Row row;
    row.name = "scaling/threads=" + std::to_string(r.threads);
    row.metrics["threads"] = r.threads;
    row.metrics["wall_ms"] = r.wall_ms;
    row.metrics["speedup_vs_1"] = speedup;
    report.rows.push_back(std::move(row));
    last = std::move(r);
  }

  std::printf("\nper-scenario results (threads=%d):\n", last.threads);
  double total_virtual = 0;
  for (const ScenarioResult& r : last.results) {
    total_virtual += r.virtual_seconds;
    std::printf("  %-28s hash=%016llx events=%8llu switches=%7llu migr=%6llu %6.1f ms\n",
                r.name.c_str(), static_cast<unsigned long long>(r.trace_hash),
                static_cast<unsigned long long>(r.sim_events),
                static_cast<unsigned long long>(r.context_switches),
                static_cast<unsigned long long>(r.migrations), r.wall_ms);
    BenchReport::Row row;
    row.name = r.name;
    row.labels["trace_hash"] = [&] {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(r.trace_hash));
      return std::string(buf);
    }();
    row.metrics["sim_events"] = static_cast<double>(r.sim_events);
    row.metrics["context_switches"] = static_cast<double>(r.context_switches);
    row.metrics["migrations"] = static_cast<double>(r.migrations);
    row.metrics["virtual_s"] = r.virtual_seconds;
    row.metrics["wall_ms"] = r.wall_ms;
    for (const auto& [k, v] : r.metrics) {
      row.metrics[k] = v;
    }
    if (stream) {
      row.metrics["stream_agg_bytes_peak"] = static_cast<double>(r.stream_agg_bytes_peak);
      row.metrics["stream_budget_bytes"] = static_cast<double>(r.stream_budget_bytes);
      row.metrics["stream_findings"] = static_cast<double>(r.stream_findings);
    }
    report.rows.push_back(std::move(row));
  }
  report.context_num["virtual_seconds_total"] = total_virtual;

  if (stream) {
    // One summary line per run, plus a jsonl artifact, plus the pure-observer
    // cross-check: the same matrix without the stream must hash identically.
    std::printf("\nstreaming summaries (one line per scenario):\n");
    std::string jsonl;
    for (const ScenarioResult& r : last.results) {
      std::printf("STREAM %s %s\n", r.name.c_str(), r.stream_summary.c_str());
      jsonl += "{\"name\": \"" + JsonEscape(r.name) + "\", \"stream\": " + r.stream_summary +
               "}\n";
      WC_CHECK(r.stream_within_budget, "stream aggregator memory exceeded budget in the sweep");
      WC_CHECK(r.stream_events == r.trace_events,
               "stream analyzed a different event count than the trace hash saw");
    }
    std::vector<Scenario> bare = scenarios;
    for (Scenario& s : bare) {
      s.stream = false;
    }
    SweepOptions bare_opts;
    bare_opts.threads = last.threads;
    SweepReport bare_report = RunSweep(bare, bare_opts);
    WC_CHECK(bare_report.CombinedHash() == reference_hash,
             "attaching the streaming pipeline changed a trace hash");
    std::printf("pure-observer check: %zu trace hashes identical without the stream (%016llx)\n",
                bare_report.results.size(),
                static_cast<unsigned long long>(bare_report.CombinedHash()));
    WriteArtifact(std::filesystem::path(opts.telemetry_dir) / "sweep_stream.jsonl", jsonl);
    std::printf("wrote %s/sweep_stream.jsonl\n", opts.telemetry_dir.c_str());
  }

  // The scaling ratio downstream tooling reads (ROADMAP "sweep scaling
  // evidence"). On a 1-core host there is only the threads=1 row and no
  // ratio to take — emit an explicit "scaling": null (NaN serializes as
  // null) rather than omitting the key, so consumers see "unmeasurable
  // here" instead of dividing by a missing row.
  if (counts.size() > 1) {
    report.context_num["scaling"] = wall_1thread / (last.wall_ms > 0 ? last.wall_ms : 1e-9);
  } else {
    report.context_num["scaling"] = std::numeric_limits<double>::quiet_NaN();
    std::printf("\n1-core host: scaling unmeasurable, reporting \"scaling\": null\n");
  }

  report.Write(opts);
  std::printf("\nwrote %s/BENCH_sweep.json\n", opts.out_dir.c_str());
  return 0;
}

}  // namespace
}  // namespace wcores

int main(int argc, char** argv) { return wcores::Main(argc, argv); }

// Parallel scenario-sweep driver.
//
// Runs the figure/table scenario matrix (plus optional random scenarios)
// through the sweep runner once, at --threads workers, and prints each
// scenario's trace hash and the combined hash. It is not a perf instrument:
// scripts/ab_bench.sh measures speed, and the hashes are pinned by
// Determinism.SweepMatrixGoldens (thread-count invariance by
// Determinism.SweepThreadCountInvariance).
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
// with a per-policy replay-determinism check and a per-scenario
// leaderboard.
//
// Fleet-scale sweep service (src/tools/sweep/{grid,receipts,shard}):
//   --shard=I/N [--grid=SPEC] --results=DIR [--threads=T]   expand the
//       parameter grid (SPEC defaults to the 540-instance default fleet
//       grid; see grid.h for the syntax), claim its scenarios with
//       flock-based work stealing, append one JSON receipt line per
//       completed scenario to DIR/shard-I.jsonl, and skip anything already
//       receipted (resume). Merge and verify the shards with
//       `wc-trend merge --grid=SPEC`.
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/modsched/policy_registry.h"
#include "src/simkit/check.h"
#include "src/tools/sweep/grid.h"
#include "src/tools/sweep/jsonl.h"
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
// policy, a per-policy determinism check (each policy's sweep at `threads`
// workers replays bit-identically at one), and a per-scenario leaderboard.
int RunPolicyArena(const std::string& policy_arg, double scale, int random_count,
                   uint64_t seed, int threads) {
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

  // results[p][i] is policy p's result for base scenario i.
  std::vector<std::vector<ScenarioResult>> results;
  for (const std::string& policy : policies) {
    std::vector<Scenario> matrix = base;
    for (Scenario& s : matrix) {
      s.policy = policy;
    }
    SweepOptions sweep_opts;
    sweep_opts.threads = threads;
    SweepReport run = RunSweep(matrix, sweep_opts);
    // Per-policy hash check: the same matrix at one worker must replay
    // bit-identically — every policy inherits the determinism contract,
    // not just CFS.
    SweepOptions serial;
    serial.threads = 1;
    SweepReport replay = RunSweep(matrix, serial);
    WC_CHECK(run.CombinedHash() == replay.CombinedHash(),
             "policy sweep hash differs on replay");
    std::printf("policy %-10s combined_hash=%016llx  wall=%8.1f ms\n", policy.c_str(),
                static_cast<unsigned long long>(run.CombinedHash()), run.wall_ms);
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
  return 0;
}

// One-pass soak of the streaming pipeline. Scenario sizing (threads, scale,
// horizon) is pinned so the run deterministically crosses the event floor;
// the floor itself stays a flag so CI's intent ("at least ten million") is
// visible at the call site.
int RunBigMix(uint64_t min_events, uint64_t seed) {
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
  return 0;
}

// One shard of a fleet run: expand the grid, claim its scenarios, append
// receipts, resume past anything already done. A bad spec exits 2.
int RunShardMode(const std::string& grid_spec, int shard_index, int shard_count,
                 const std::string& results_dir, int threads) {
  GridSpec spec;
  std::string error;
  if (!ParseGridSpec(grid_spec, &spec, &error)) {
    std::fprintf(stderr, "invalid value '%s' for --grid: %s\n", grid_spec.c_str(),
                 error.c_str());
    return 2;
  }
  PrintHeader("Fleet sweep: sharded grid runner",
              "§4 methodology at fleet scale: receipts make distributed runs verifiable");
  std::vector<Scenario> scenarios = ExpandGrid(spec);
  std::printf("shard %d/%d over %zu scenarios -> %s (threads=%d)\n", shard_index, shard_count,
              scenarios.size(), results_dir.c_str(), threads);
  ShardOptions shard_opts;
  shard_opts.results_dir = results_dir;
  shard_opts.shard_index = shard_index;
  shard_opts.shard_count = shard_count;
  shard_opts.threads = threads;
  ShardReport report = RunShard(scenarios, shard_opts);
  std::printf("shard %d/%d done: ran=%d skipped=%d contended=%d requeued=%d"
              " (scenario wall %.1f ms)\n",
              shard_index, shard_count, report.ran, report.skipped, report.contended,
              report.requeued, report.wall_ms_total);
  std::printf("receipts: %s\n", report.receipts_path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  std::string threads_s, scale_s, random_s, seed_s, bigmix_s, policy_s;
  std::string results_s, shard_s, grid_s;
  BenchOptions opts = ParseBenchArgs(
      argc, argv, TelemetryFlag::kAccepted,
      {
          {"threads", &threads_s, "host threads for the sweep (default 1)"},
          {"scale", &scale_s, "workload scale factor (default 0.25)"},
          {"random", &random_s, "extra random scenarios to append (default 6)"},
          {"seed", &seed_s, "seed for the random scenarios (default 99)"},
          {"big-mix", &bigmix_s,
           "skip the matrix; run one huge streamed random mix and assert >= this many events"},
          {"policy", &policy_s,
           "cross-policy arena: run the matrix under this policy name, or 'all'"},
          {"shard", &shard_s, "run as fleet shard I/N over --grid into --results"},
          {"grid", &grid_s, "grid spec for --shard ('default' or key=v;... syntax)"},
          {"results", &results_s, "results directory for --shard (receipts + claims)"},
      });
  int threads = static_cast<int>(ParseIntFlag("threads", threads_s, 1, 1, 1 << 20));
  double scale = ParseDoubleFlag("scale", scale_s, 0.25, 1e-6, 1e6);
  int random_count = static_cast<int>(ParseIntFlag("random", random_s, 6, 0, 1 << 20));
  uint64_t seed = ParseU64Flag("seed", seed_s, 99);

  if (!opts.telemetry_dir.empty() &&
      !(shard_s.empty() && bigmix_s.empty() && policy_s.empty())) {
    std::fprintf(stderr, "--telemetry only applies to the scenario matrix\n");
    return 2;
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
    if (results_s.empty()) {
      std::fprintf(stderr, "--shard requires --results=DIR\n");
      return 2;
    }
    return RunShardMode(grid_s.empty() ? "default" : grid_s, shard_index, shard_count, results_s,
                        threads);
  }
  if (!results_s.empty() || !grid_s.empty()) {
    std::fprintf(stderr, "--results/--grid only apply with --shard\n");
    return 2;
  }

  if (!bigmix_s.empty()) {
    return RunBigMix(ParseU64Flag("big-mix", bigmix_s, 0), seed);
  }
  if (!policy_s.empty()) {
    return RunPolicyArena(policy_s, scale, random_count, seed, threads);
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

  SweepOptions sweep_opts;
  sweep_opts.threads = threads;
  SweepReport sweep = RunSweep(scenarios, sweep_opts);
  std::printf("%zu scenarios  threads=%d  wall=%.1f ms  events=%llu  hash=%016llx\n\n",
              scenarios.size(), sweep.threads, sweep.wall_ms,
              static_cast<unsigned long long>(sweep.TotalSimEvents()),
              static_cast<unsigned long long>(sweep.CombinedHash()));
  std::printf("per-scenario results:\n");
  for (const ScenarioResult& r : sweep.results) {
    std::printf("  %-28s hash=%016llx events=%8llu switches=%7llu migr=%6llu %6.1f ms\n",
                r.name.c_str(), static_cast<unsigned long long>(r.trace_hash),
                static_cast<unsigned long long>(r.sim_events),
                static_cast<unsigned long long>(r.context_switches),
                static_cast<unsigned long long>(r.migrations), r.wall_ms);
  }

  if (stream) {
    // One summary line per run, plus a jsonl artifact, plus the pure-observer
    // cross-check: the same matrix without the stream must hash identically.
    std::printf("\nstreaming summaries (one line per scenario):\n");
    std::string jsonl;
    for (const ScenarioResult& r : sweep.results) {
      std::printf("STREAM %s %s\n", r.name.c_str(), r.stream_summary.c_str());
      jsonl += "{\"name\": " + QuoteJson(r.name) + ", \"stream\": " + r.stream_summary + "}\n";
      WC_CHECK(r.stream_within_budget, "stream aggregator memory exceeded budget in the sweep");
      WC_CHECK(r.stream_events == r.trace_events,
               "stream analyzed a different event count than the trace hash saw");
    }
    std::vector<Scenario> bare = scenarios;
    for (Scenario& s : bare) {
      s.stream = false;
    }
    SweepReport bare_report = RunSweep(bare, sweep_opts);
    WC_CHECK(bare_report.CombinedHash() == sweep.CombinedHash(),
             "attaching the streaming pipeline changed a trace hash");
    std::printf("pure-observer check: %zu trace hashes identical without the stream (%016llx)\n",
                bare_report.results.size(),
                static_cast<unsigned long long>(bare_report.CombinedHash()));
    WriteArtifact(std::filesystem::path(opts.telemetry_dir) / "sweep_stream.jsonl", jsonl);
    std::printf("wrote %s/sweep_stream.jsonl\n", opts.telemetry_dir.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace wcores

int main(int argc, char** argv) { return wcores::Main(argc, argv); }

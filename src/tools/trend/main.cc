// wc-trend CLI: merge/verify sharded sweep results, diff merged stores.
//
//   wc-trend merge [--grid=SPEC] --results=DIR [--out=FILE]
//       Expand the grid (an absent --grid is "default", an empty one a bad
//       spec; see grid.h), union
//       shard receipts, verify them against the grid's scenarios, write the
//       canonical merged store. Exit 0 iff the store is complete and
//       consistent; 1 on missing/conflicting/corrupt receipts; 2 on a bad
//       spec.
//
//   wc-trend diff A.jsonl B.jsonl
//       Compare two merged stores (e.g. two commits' runs): added/removed
//       scenarios, trace-hash changes, metric deltas. Always exits 0 when
//       both stores parse; the report is the product.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "src/tools/sweep/grid.h"
#include "src/tools/sweep/jsonl.h"
#include "src/tools/trend/trend.h"

namespace wcores {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  wc-trend merge [--grid=SPEC] --results=DIR [--out=FILE]\n"
               "  wc-trend diff A.jsonl B.jsonl\n");
  return 2;
}

int RunMerge(const std::vector<std::string>& args) {
  std::string grid_spec = "default", results_dir, out_path;
  for (const std::string& arg : args) {
    if (arg.rfind("--grid=", 0) == 0) {
      grid_spec = arg.substr(7);
    } else if (arg.rfind("--results=", 0) == 0) {
      results_dir = arg.substr(10);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
      if (out_path.empty()) {
        std::fprintf(stderr, "wc-trend: invalid value '' for --out: a file path\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "wc-trend merge: unknown argument '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (results_dir.empty()) {
    return Usage();
  }
  GridSpec spec;
  std::string error;
  if (!ParseGridSpec(grid_spec, &spec, &error)) {
    std::fprintf(stderr, "wc-trend: invalid value '%s' for --grid: %s\n", grid_spec.c_str(),
                 error.c_str());
    return 2;
  }
  std::vector<Scenario> scenarios = ExpandGrid(spec);
  ResultsStore store;
  if (!LoadResultsStore(results_dir, &store, &error)) {
    std::fprintf(stderr, "wc-trend: %s\n", error.c_str());
    return 1;
  }
  for (const std::string& warning : store.warnings) {
    std::fprintf(stderr, "wc-trend: warning: dropped receipt line: %s\n", warning.c_str());
  }
  MergeReport report = MergeResults(scenarios, store);
  std::printf(
      "merge: %zu scenarios, %d receipts in %d shard files -> %d unique"
      " (%d duplicate, %d stale, %d trailing dropped)\n",
      scenarios.size(), report.receipts, store.files, report.unique,
      report.duplicates, report.stale, report.dropped_trailing);
  std::printf("combined_hash=%s\n", Hex16(report.combined_hash).c_str());
  for (const std::string& name : report.missing) {
    std::printf("MISSING %s\n", name.c_str());
  }
  for (const std::string& name : report.conflicts) {
    std::printf("CONFLICT %s\n", name.c_str());
  }
  for (const std::string& name : report.orphans) {
    std::printf("ORPHAN %s\n", name.c_str());
  }
  if (report.dropped_interior > 0) {
    std::printf("CORRUPT %d interior receipt line(s) dropped\n", report.dropped_interior);
  }
  if (!report.ok()) {
    std::printf("merge FAILED: %zu missing, %zu conflicts, %zu orphans, %d corrupt\n",
                report.missing.size(), report.conflicts.size(), report.orphans.size(),
                report.dropped_interior);
    return 1;
  }
  if (!out_path.empty()) {
    std::filesystem::path p(out_path);
    if (p.has_parent_path()) {
      std::error_code ec;
      std::filesystem::create_directories(p.parent_path(), ec);
    }
    std::ofstream out(p);
    if (!out.good()) {
      std::fprintf(stderr, "wc-trend: cannot write '%s'\n", out_path.c_str());
      return 1;
    }
    out << report.canonical;
    out.flush();
    if (!out.good()) {
      std::fprintf(stderr, "wc-trend: write to '%s' failed\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%d canonical receipts)\n", out_path.c_str(), report.unique);
  }
  std::printf("merge OK: store is complete and consistent\n");
  return 0;
}

int RunDiff(const std::vector<std::string>& args) {
  std::string path_a, path_b;
  for (const std::string& arg : args) {
    if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "wc-trend diff: unknown argument '%s'\n", arg.c_str());
      return Usage();
    } else if (path_a.empty()) {
      path_a = arg;
    } else if (path_b.empty()) {
      path_b = arg;
    } else {
      return Usage();
    }
  }
  if (path_a.empty() || path_b.empty()) {
    return Usage();
  }
  std::vector<Receipt> a, b;
  std::string error;
  if (!LoadMergedStore(path_a, &a, &error) || !LoadMergedStore(path_b, &b, &error)) {
    std::fprintf(stderr, "wc-trend: %s\n", error.c_str());
    return 1;
  }
  DiffReport report = DiffStores(a, b);
  std::printf("diff: %zu vs %zu scenarios\n", a.size(), b.size());
  for (const std::string& name : report.removed) {
    std::printf("REMOVED %s\n", name.c_str());
  }
  for (const std::string& name : report.added) {
    std::printf("ADDED %s\n", name.c_str());
  }
  for (const DiffReport::HashChange& change : report.hash_changes) {
    std::printf("HASH %s %s -> %s\n", change.name.c_str(), Hex16(change.hash_a).c_str(),
                Hex16(change.hash_b).c_str());
  }
  for (const DiffReport::MetricDelta& delta : report.metric_deltas) {
    std::printf("METRIC %s %s %s -> %s\n", delta.name.c_str(), delta.key.c_str(),
                delta.value_a.empty() ? "(absent)" : delta.value_a.c_str(),
                delta.value_b.empty() ? "(absent)" : delta.value_b.c_str());
  }
  if (report.identical()) {
    std::printf("stores are identical (%d scenarios unchanged)\n", report.unchanged);
  } else {
    std::printf("%zu added, %zu removed, %zu hash changes, %zu metric deltas, %d unchanged\n",
                report.added.size(), report.removed.size(), report.hash_changes.size(),
                report.metric_deltas.size(), report.unchanged);
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) {
    args.push_back(argv[i]);
  }
  if (std::strcmp(argv[1], "merge") == 0) {
    return RunMerge(args);
  }
  if (std::strcmp(argv[1], "diff") == 0) {
    return RunDiff(args);
  }
  std::fprintf(stderr, "wc-trend: unknown command '%s'\n", argv[1]);
  return Usage();
}

}  // namespace
}  // namespace wcores

int main(int argc, char** argv) { return wcores::Main(argc, argv); }

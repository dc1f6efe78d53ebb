// Fleet sweep service tests: grid expansion, receipt stores, resume semantics (truncated tails, stale fingerprints, conflicting
// receipts), sharded execution equivalence, and the wc-trend merge/diff
// contracts. The cross-process kill/resume path is exercised by ci.sh stage
// "fleet"; everything here is in-process so it runs under ctest -j.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/tools/sweep/grid.h"
#include "src/tools/sweep/receipts.h"
#include "src/tools/sweep/shard.h"
#include "src/tools/sweep/sweep.h"
#include "src/tools/trend/trend.h"

namespace wcores {
namespace {

std::string TempPath(const std::string& leaf) {
  static int counter = 0;
  std::string path =
      ::testing::TempDir() + "fleet_test_" + std::to_string(++counter) + "_" + leaf;
  // Paths are deterministic across runs, and the fleet store is *designed*
  // to resume from leftovers — scrub so every test starts cold.
  std::filesystem::remove_all(path);
  return path;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// A small grid that runs fast enough to execute inside unit tests.
GridSpec TinyGrid() {
  GridSpec spec;
  std::string error;
  bool ok = ParseGridSpec(
      "topo=flat1x4;workload=mix;feat=stock,fixed;policy=cfs;mix=4;seeds=2;"
      "scale=0.02;horizon_ms=20;seed=11",
      &spec, &error);
  EXPECT_TRUE(ok) << error;
  return spec;
}

// ---- Grid expansion --------------------------------------------------------

TEST(FleetGrid, DefaultGridIsFleetScale) {
  std::vector<Scenario> scenarios = ExpandGrid(DefaultFleetGrid());
  EXPECT_GE(scenarios.size(), 500u);  // ISSUE acceptance floor.
  std::set<std::string> names;
  std::set<uint64_t> fingerprints;
  for (const Scenario& s : scenarios) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate name " << s.name;
    EXPECT_TRUE(fingerprints.insert(ScenarioFingerprint(s)).second)
        << "fingerprint collision at " << s.name;
  }
}

TEST(FleetGrid, SeedsDeriveFromCellIdentityNotOrder) {
  // Adding a value to one axis must not reseed pre-existing cells.
  GridSpec narrow = TinyGrid();
  GridSpec wide = narrow;
  wide.policies.push_back("o1");
  std::vector<Scenario> a = ExpandGrid(narrow);
  std::vector<Scenario> b = ExpandGrid(wide);
  for (const Scenario& sa : a) {
    bool found = false;
    for (const Scenario& sb : b) {
      if (sb.name == sa.name) {
        EXPECT_EQ(sb.seed, sa.seed) << sa.name;
        EXPECT_EQ(ScenarioFingerprint(sb), ScenarioFingerprint(sa)) << sa.name;
        found = true;
      }
    }
    EXPECT_TRUE(found) << sa.name;
  }
  EXPECT_GT(b.size(), a.size());
}

TEST(FleetGrid, FingerprintSensitivity) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  ASSERT_FALSE(scenarios.empty());
  Scenario s = scenarios[0];
  uint64_t base = ScenarioFingerprint(s);
  Scenario seed = s;
  seed.seed ^= 1;
  EXPECT_NE(ScenarioFingerprint(seed), base);
  Scenario feat = s;
  feat.features.fix_group_imbalance = !feat.features.fix_group_imbalance;
  EXPECT_NE(ScenarioFingerprint(feat), base);
  Scenario pol = s;
  pol.policy = "o1";
  EXPECT_NE(ScenarioFingerprint(pol), base);
  Scenario hor = s;
  hor.horizon += 1;
  EXPECT_NE(ScenarioFingerprint(hor), base);
}

TEST(FleetGrid, ParseGridSpecRejectsBadInput) {
  GridSpec spec;
  std::string error;
  for (const char* text : {
           "bogus_key=1", "topo=not_a_topo", "mix=abc", "seeds=0",
           // Digits only, and nothing that overflows uint64 or Time.
           "horizon_ms=-1", "horizon_ms=+5", "horizon_ms= 5", "horizon_ms=99999999999999",
           "horizon_ms=18446744073709551616", "seed=-1", "seed=18446744073709551616", "mix=-4",
           "seeds=-1", "mix=0x10",
           // No entries at all is an error, never the default grid.
           "", ";"}) {
    error.clear();
    EXPECT_FALSE(ParseGridSpec(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  // The largest horizon whose Milliseconds() still fits in Time, and the
  // largest seed, are accepted.
  const uint64_t max_ms = kTimeNever / kMillisecond - 1;
  ASSERT_TRUE(ParseGridSpec("horizon_ms=" + std::to_string(max_ms), &spec, &error)) << error;
  EXPECT_EQ(spec.horizon, Milliseconds(max_ms));
  ASSERT_TRUE(ParseGridSpec("seed=18446744073709551615", &spec, &error)) << error;
  EXPECT_EQ(spec.base_seed, ~uint64_t{0});
  EXPECT_TRUE(ParseGridSpec("default", &spec, &error)) << error;
  EXPECT_EQ(ExpandGrid(spec).size(), ExpandGrid(DefaultFleetGrid()).size());
}

// A repeated axis value would expand to duplicate scenario names, which the
// shard runner refuses with an abort; a repeated key is ambiguous. Both are
// parse errors instead.
TEST(FleetGrid, ParseGridSpecRejectsRepeats) {
  GridSpec spec;
  std::string error;
  for (const char* text : {"topo=flat1x4,flat1x4", "workload=mix,mix", "feat=stock,fixed,stock",
                           "policy=cfs,cfs", "mix=6,6", "mix=6,06", "topo=flat1x4;topo=flat2x4",
                           "seed=1;seed=1", "horizon_ms=20;mix=4;horizon_ms=40"}) {
    error.clear();
    EXPECT_FALSE(ParseGridSpec(text, &spec, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  EXPECT_TRUE(ParseGridSpec("topo=flat1x4,flat2x4;mix=6,10;seed=1", &spec, &error)) << error;
}

// ---- Receipts --------------------------------------------------------------

Receipt MakeReceipt(const std::string& name, uint64_t fp, uint64_t hash) {
  Receipt r;
  r.name = name;
  r.fingerprint = fp;
  r.trace_hash = hash;
  r.trace_events = 42;
  r.sim_events = 7;
  r.context_switches = 3;
  r.migrations = 1;
  r.virtual_s = 0.02;
  r.all_exited = true;
  r.metrics["make_span_s"] = 1.5;
  return r;
}

TEST(FleetReceipts, RoundTrip) {
  Receipt r = MakeReceipt("grid/a", 0xdeadbeefcafef00dull, 0x1122334455667788ull);
  const std::string line = ReceiptLine(r);
  Receipt back;
  std::string error;
  ASSERT_TRUE(ParseReceiptLine(line, &back, &error)) << error;
  EXPECT_EQ(back.name, r.name);
  EXPECT_EQ(back.fingerprint, r.fingerprint);
  EXPECT_EQ(back.trace_hash, r.trace_hash);
  EXPECT_EQ(back.trace_events, r.trace_events);
  EXPECT_EQ(back.metrics, r.metrics);
  // One format: parse then write gives back the same bytes.
  EXPECT_EQ(ReceiptLine(back), line);

  // A store written when receipts carried a host wall time still loads,
  // and the key is gone once the line is written again.
  const std::string old_line =
      R"({"name": "grid/a", "fingerprint": "deadbeefcafef00d", )"
      R"("trace_hash": "1122334455667788", "trace_events": 42, "sim_events": 7, )"
      R"("context_switches": 3, "migrations": 1, "virtual_s": 0.02, "all_exited": 1, )"
      R"("metrics": {"make_span_s": 1.5}, "wall_ms": 12.25})";
  Receipt old;
  ASSERT_TRUE(ParseReceiptLine(old_line, &old, &error)) << error;
  EXPECT_EQ(ReceiptLine(old), line);
}

// Counts round-trip through the parser's double, so only whole numbers
// below 2^53 are counts the writer could have produced.
TEST(FleetReceipts, RejectsNonIntegralOrHugeCounts) {
  const std::string line = ReceiptLine(MakeReceipt("grid/a", 1, 10));
  // The line with `field` (as written) replaced by `replacement`.
  auto with = [&](const std::string& field, const std::string& replacement) {
    std::string edited = line;
    size_t pos = edited.find(field);
    EXPECT_NE(pos, std::string::npos) << field;
    if (pos != std::string::npos) {
      edited.replace(pos, field.size(), replacement);
    }
    return edited;
  };
  Receipt r;
  std::string error;
  for (const std::string bad : {"1.5", "1e30", "2e16"}) {
    EXPECT_FALSE(ParseReceiptLine(with("\"trace_events\": 42", "\"trace_events\": " + bad), &r,
                                  &error))
        << bad;
  }
  EXPECT_FALSE(ParseReceiptLine(with("\"all_exited\": 1", "\"all_exited\": 2"), &r, &error));
  // The largest whole number a double holds exactly is accepted.
  ASSERT_TRUE(ParseReceiptLine(
      with("\"trace_events\": 42", "\"trace_events\": 9007199254740991"), &r, &error))
      << error;
  EXPECT_EQ(r.trace_events, 9007199254740991u);
}

TEST(FleetReceipts, TruncatedTrailingLineIsTolerated) {
  std::string dir = TempPath("store_trunc");
  std::filesystem::create_directories(dir);
  Receipt a = MakeReceipt("grid/a", 1, 10);
  Receipt b = MakeReceipt("grid/b", 2, 20);
  // Simulate a shard killed mid-append: complete line, then half a line.
  WriteAll(dir + "/shard-0.jsonl",
           ReceiptLine(a) + "\n" + ReceiptLine(b).substr(0, 25));

  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  ASSERT_EQ(store.receipts.size(), 1u);
  EXPECT_EQ(store.receipts[0].name, "grid/a");
  EXPECT_EQ(store.dropped_trailing, 1);
  EXPECT_EQ(store.dropped_interior, 0);
}

TEST(FleetReceipts, InteriorCorruptionIsCountedSeparately) {
  std::string dir = TempPath("store_interior");
  std::filesystem::create_directories(dir);
  Receipt a = MakeReceipt("grid/a", 1, 10);
  Receipt b = MakeReceipt("grid/b", 2, 20);
  WriteAll(dir + "/shard-0.jsonl",
           ReceiptLine(a) + "\n{broken\n" + ReceiptLine(b) + "\n");

  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  ASSERT_EQ(store.receipts.size(), 2u);
  EXPECT_EQ(store.dropped_trailing, 0);
  EXPECT_EQ(store.dropped_interior, 1);
}

TEST(FleetReceipts, CleanPrefixStopsBeforeDirtyTail) {
  Receipt a = MakeReceipt("grid/a", 1, 10);
  std::string good = ReceiptLine(a) + "\n";
  EXPECT_EQ(CleanReceiptPrefixBytes(good), good.size());
  EXPECT_EQ(CleanReceiptPrefixBytes(good + "{half"), good.size());
  EXPECT_EQ(CleanReceiptPrefixBytes(good + good.substr(0, 12)), good.size());
  EXPECT_EQ(CleanReceiptPrefixBytes("{half"), 0u);
  EXPECT_EQ(CleanReceiptPrefixBytes(""), 0u);
}

// ---- Sharded execution and resume ------------------------------------------

// Runs a full single-process reference sweep for `scenarios` and returns the
// merged canonical text via a one-shard RunShard + MergeResults.
std::string ReferenceCanonical(const std::vector<Scenario>& scenarios,
                               const std::string& results_dir, uint64_t* combined) {
  ShardOptions opts;
  opts.results_dir = results_dir;
  opts.shard_index = 0;
  opts.shard_count = 1;
  opts.threads = 2;
  ShardReport report = RunShard(scenarios, opts);
  EXPECT_EQ(report.ran, static_cast<int>(scenarios.size()));

  ResultsStore store;
  std::string error;
  EXPECT_TRUE(LoadResultsStore(results_dir, &store, &error)) << error;
  MergeReport merge = MergeResults(scenarios, store);
  EXPECT_TRUE(merge.ok());
  if (combined != nullptr) {
    *combined = merge.combined_hash;
  }
  return merge.canonical;
}

TEST(FleetShard, TwoShardsMergeBitIdenticalToSingleProcess) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  uint64_t ref_hash = 0;
  std::string ref = ReferenceCanonical(scenarios, TempPath("ref"), &ref_hash);

  // Two concurrent shards into one store. flock(2) locks are per
  // open-file-description, so claims contend correctly even inside one
  // process.
  std::string dir = TempPath("two");
  ShardReport r0, r1;
  std::thread t0([&]() {
    ShardOptions o{dir, 0, 2, 1};
    r0 = RunShard(scenarios, o);
  });
  std::thread t1([&]() {
    ShardOptions o{dir, 1, 2, 1};
    r1 = RunShard(scenarios, o);
  });
  t0.join();
  t1.join();
  EXPECT_EQ(r0.ran + r0.skipped + r1.ran + r1.skipped + r0.contended + r1.contended,
            static_cast<int>(scenarios.size()) * 2);

  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  MergeReport merge = MergeResults(scenarios, store);
  EXPECT_TRUE(merge.ok()) << (merge.missing.empty() ? "" : merge.missing[0]);
  EXPECT_EQ(merge.canonical, ref);  // Bit-identical to single-process run.
  EXPECT_EQ(merge.combined_hash, ref_hash);
}

TEST(FleetShard, ResumeSkipsCompletedScenarios) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("resume");
  ShardOptions opts{dir, 0, 1, 2};
  ShardReport first = RunShard(scenarios, opts);
  EXPECT_EQ(first.ran, static_cast<int>(scenarios.size()));

  ShardReport second = RunShard(scenarios, opts);
  EXPECT_EQ(second.ran, 0);
  EXPECT_EQ(second.skipped, static_cast<int>(scenarios.size()));
}

TEST(FleetShard, TruncatedTailReRunsThatScenarioOnly) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("kill");
  ShardOptions opts{dir, 0, 1, 1};
  RunShard(scenarios, opts);

  // Simulate a kill mid-append: chop the last receipt line in half.
  std::string path = dir + "/shard-0.jsonl";
  std::string content = ReadAll(path);
  WriteAll(path, content.substr(0, content.size() - 40));

  ShardReport resumed = RunShard(scenarios, opts);
  EXPECT_EQ(resumed.ran, 1);
  EXPECT_EQ(resumed.skipped, static_cast<int>(scenarios.size()) - 1);

  // The self-repair truncation means the store is clean after resume, and
  // the merged canonical output matches an uninterrupted run.
  uint64_t ref_hash = 0;
  std::string ref = ReferenceCanonical(scenarios, TempPath("kill_ref"), &ref_hash);
  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  MergeReport merge = MergeResults(scenarios, store);
  EXPECT_TRUE(merge.ok());
  EXPECT_EQ(merge.dropped_interior, 0);
  EXPECT_EQ(merge.canonical, ref);
}

TEST(FleetShard, StaleFingerprintForcesReRun) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("stale");
  ShardOptions opts{dir, 0, 1, 1};
  RunShard(scenarios, opts);

  // Change the grid under the store: same names, different parameters.
  std::vector<Scenario> shifted = scenarios;
  for (Scenario& s : shifted) {
    s.seed ^= 0x9e3779b97f4a7c15ull;
  }
  ShardReport resumed = RunShard(shifted, opts);
  EXPECT_EQ(resumed.ran, static_cast<int>(shifted.size()));
  EXPECT_EQ(resumed.skipped, 0);
  EXPECT_EQ(resumed.requeued, static_cast<int>(shifted.size()));
}

TEST(FleetShard, ConflictingReceiptsForceReExecution) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("conflict");
  ShardOptions opts{dir, 0, 1, 1};
  RunShard(scenarios, opts);

  // Forge a second receipt for scenario 0 with the right fingerprint but a
  // different hash — a determinism violation as seen from the store.
  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  Receipt forged = store.receipts[0];
  forged.trace_hash ^= 0xff;
  std::ofstream(dir + "/shard-9.jsonl", std::ios::app) << ReceiptLine(forged) << "\n";

  ShardReport resumed = RunShard(scenarios, opts);
  EXPECT_EQ(resumed.ran, 1);  // Only the conflicted scenario re-runs.
  EXPECT_EQ(resumed.requeued, 1);
  EXPECT_EQ(resumed.skipped, static_cast<int>(scenarios.size()) - 1);
}

TEST(FleetShardDeathTest, DuplicateScenarioNamesAreRejected) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  scenarios.push_back(scenarios[0]);
  ShardOptions opts{TempPath("dup_shard"), 0, 1, 1};
  EXPECT_DEATH(RunShard(scenarios, opts), "duplicate scenario name");
}

// ---- wc-trend merge/diff ---------------------------------------------------

TEST(FleetTrend, MergeDetectsMissingAndConflict) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("merge_err");
  ShardOptions opts{dir, 0, 1, 1};
  RunShard(scenarios, opts);

  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;

  // Missing: one extra scenario nothing receipted.
  std::vector<Scenario> wider = scenarios;
  Scenario extra = scenarios[0];
  extra.name = "grid/extra";
  extra.seed = 999;
  wider.push_back(extra);
  MergeReport missing = MergeResults(wider, store);
  EXPECT_FALSE(missing.ok());
  ASSERT_EQ(missing.missing.size(), 1u);
  EXPECT_EQ(missing.missing[0], "grid/extra");

  // Conflict: forge a matching-fingerprint, different-hash receipt.
  Receipt forged = store.receipts[0];
  forged.trace_hash ^= 0xff;
  store.receipts.push_back(forged);
  MergeReport conflict = MergeResults(scenarios, store);
  EXPECT_FALSE(conflict.ok());
  ASSERT_EQ(conflict.conflicts.size(), 1u);
  EXPECT_EQ(conflict.conflicts[0], forged.name);

  // Orphan: a receipt whose name the scenarios do not include.
  store.receipts.pop_back();
  Receipt orphan = store.receipts[0];
  orphan.name = "grid/ghost";
  store.receipts.push_back(orphan);
  MergeReport orphaned = MergeResults(scenarios, store);
  EXPECT_FALSE(orphaned.ok());
  ASSERT_EQ(orphaned.orphans.size(), 1u);
  EXPECT_EQ(orphaned.orphans[0], "grid/ghost");
}

TEST(FleetTrend, MergeDedupsByteIdenticalDuplicates) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("merge_dup");
  ShardOptions opts{dir, 0, 1, 1};
  RunShard(scenarios, opts);

  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  // A benign claim race: the same scenario receipted twice, same bytes.
  store.receipts.push_back(store.receipts[0]);

  MergeReport merge = MergeResults(scenarios, store);
  EXPECT_TRUE(merge.ok());
  EXPECT_EQ(merge.duplicates, 1);
  EXPECT_EQ(merge.unique, static_cast<int>(scenarios.size()));
}

TEST(FleetTrend, DiffReportsAddsRemovesHashAndMetricChanges) {
  Receipt a1 = MakeReceipt("grid/a", 1, 10);
  Receipt b1 = MakeReceipt("grid/b", 2, 20);
  Receipt c1 = MakeReceipt("grid/c", 3, 30);
  Receipt a2 = a1;                 // Unchanged.
  Receipt b2 = b1;
  b2.trace_hash = 21;              // Hash drift.
  b2.metrics["make_span_s"] = 2.5; // Metric moved with it.
  Receipt d2 = MakeReceipt("grid/d", 4, 40);  // Added; c removed.

  DiffReport diff = DiffStores({a1, b1, c1}, {a2, b2, d2});
  EXPECT_FALSE(diff.identical());
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0], "grid/d");
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0], "grid/c");
  ASSERT_EQ(diff.hash_changes.size(), 1u);
  EXPECT_EQ(diff.hash_changes[0].name, "grid/b");
  EXPECT_EQ(diff.hash_changes[0].hash_a, 20u);
  EXPECT_EQ(diff.hash_changes[0].hash_b, 21u);
  ASSERT_EQ(diff.metric_deltas.size(), 1u);
  EXPECT_EQ(diff.metric_deltas[0].name, "grid/b");
  EXPECT_EQ(diff.metric_deltas[0].key, "make_span_s");
  EXPECT_EQ(diff.metric_deltas[0].value_a, "1.5");
  EXPECT_EQ(diff.metric_deltas[0].value_b, "2.5");
  EXPECT_EQ(diff.unchanged, 1);

  DiffReport same = DiffStores({a1, b1}, {a1, b1});
  EXPECT_TRUE(same.identical());
  EXPECT_EQ(same.unchanged, 2);
}

TEST(FleetTrend, MergedStoreRoundTripsThroughFile) {
  std::vector<Scenario> scenarios = ExpandGrid(TinyGrid());
  std::string dir = TempPath("round");
  ShardOptions opts{dir, 0, 1, 2};
  RunShard(scenarios, opts);

  ResultsStore store;
  std::string error;
  ASSERT_TRUE(LoadResultsStore(dir, &store, &error)) << error;
  MergeReport merge = MergeResults(scenarios, store);
  ASSERT_TRUE(merge.ok());

  std::string path = TempPath("merged.jsonl");
  WriteAll(path, merge.canonical);
  std::vector<Receipt> loaded;
  ASSERT_TRUE(LoadMergedStore(path, &loaded, &error)) << error;
  ASSERT_EQ(loaded.size(), scenarios.size());
  DiffReport diff = DiffStores(loaded, loaded);
  EXPECT_TRUE(diff.identical());
}

}  // namespace
}  // namespace wcores

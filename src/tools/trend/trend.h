// wc-trend: merge, verify, and diff fleet-sweep result stores.
//
// MERGE unions every shard's receipt file under a results directory,
// verifies the store against the grid's scenarios — every scenario
// receipted, all fingerprints current, no conflicting receipts, no interior
// corruption — and emits one receipt line per scenario in grid order.
// Because receipt lines are byte-stable (receipts.h), the merged
// output of any sharding of a grid equals the merged output of a
// single-process run `cmp`-bit-for-bit; ci.sh stage 6 enforces exactly
// that, with a kill/resume in the middle.
//
// DIFF compares two merged stores across commits: scenarios added or
// removed, trace-hash changes (behavior drift — the "invisible without the
// right instrumentation" lesson as a database query), and metric deltas on
// scenarios whose hash moved or stayed. Metric equality is decided on the
// canonical serialized form, never on float ==.
#ifndef SRC_TOOLS_TREND_TREND_H_
#define SRC_TOOLS_TREND_TREND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/tools/sweep/receipts.h"
#include "src/tools/sweep/scenario.h"

namespace wcores {

struct MergeReport {
  int receipts = 0;    // Parsed receipt lines across all shard files.
  int unique = 0;      // Scenarios with a usable receipt.
  int duplicates = 0;  // Extra byte-identical receipt copies (benign
                       // claim races; dropped).
  int stale = 0;       // Fingerprint-mismatched receipts (ignored).
  int dropped_trailing = 0;   // Tolerated killed-mid-append tails.
  int dropped_interior = 0;   // Store damage: fails verification.
  std::vector<std::string> missing;    // Scenario names with no receipt.
  std::vector<std::string> conflicts;  // Names with disagreeing receipts.
  std::vector<std::string> orphans;    // Receipt names not in the grid.
  std::string canonical;  // One canonical line per scenario, grid order.
  uint64_t combined_hash = 0;  // Same fold as SweepReport::CombinedHash.

  bool ok() const {
    return missing.empty() && conflicts.empty() && orphans.empty() && dropped_interior == 0;
  }
};

MergeReport MergeResults(const std::vector<Scenario>& scenarios, const ResultsStore& store);

struct DiffReport {
  std::vector<std::string> added;    // In B only.
  std::vector<std::string> removed;  // In A only.
  struct HashChange {
    std::string name;
    uint64_t hash_a = 0;
    uint64_t hash_b = 0;
  };
  std::vector<HashChange> hash_changes;
  struct MetricDelta {
    std::string name;
    std::string key;
    // Canonical serializations; empty string = metric absent on that side.
    std::string value_a;
    std::string value_b;
  };
  std::vector<MetricDelta> metric_deltas;
  int unchanged = 0;  // Same hash, same counts, same metrics.

  bool identical() const {
    return added.empty() && removed.empty() && hash_changes.empty() && metric_deltas.empty();
  }
};

// Inputs are merged canonical stores (one receipt per name).
DiffReport DiffStores(const std::vector<Receipt>& a, const std::vector<Receipt>& b);

// Loads a merged canonical file written by MERGE. Returns false and fills
// *error on parse failure or duplicate names.
bool LoadMergedStore(const std::string& path, std::vector<Receipt>* out, std::string* error);

}  // namespace wcores

#endif  // SRC_TOOLS_TREND_TREND_H_

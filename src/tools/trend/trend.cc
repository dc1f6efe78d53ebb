#include "src/tools/trend/trend.h"

#include <fstream>
#include <map>
#include <set>

#include "src/tools/sweep/grid.h"
#include "src/tools/sweep/jsonl.h"
#include "src/tools/sweep/trace_hash.h"

namespace wcores {

MergeReport MergeResults(const std::vector<Scenario>& scenarios, const ResultsStore& store) {
  MergeReport report;
  report.receipts = static_cast<int>(store.receipts.size());
  report.dropped_trailing = store.dropped_trailing;
  report.dropped_interior = store.dropped_interior;

  std::map<std::string, uint64_t> expected;  // name -> current fingerprint.
  for (const Scenario& s : scenarios) {
    expected[s.name] = ScenarioFingerprint(s);
  }

  // Bucket fingerprint-current receipts by name, so byte-identical re-runs
  // (benign claim races) collapse to one copy.
  std::map<std::string, std::vector<const Receipt*>> current;
  std::set<std::string> orphan_names;
  for (const Receipt& r : store.receipts) {
    auto it = expected.find(r.name);
    if (it == expected.end()) {
      orphan_names.insert(r.name);
      continue;
    }
    if (r.fingerprint != it->second) {
      report.stale++;
      continue;
    }
    current[r.name].push_back(&r);
  }
  report.orphans.assign(orphan_names.begin(), orphan_names.end());

  Fnv1a combined;
  for (const Scenario& s : scenarios) {
    auto it = current.find(s.name);
    if (it == current.end()) {
      report.missing.push_back(s.name);
      continue;
    }
    const std::vector<const Receipt*>& candidates = it->second;
    std::string canonical = ReceiptLine(*candidates[0]);
    bool conflict = false;
    for (size_t i = 1; i < candidates.size(); ++i) {
      if (ReceiptLine(*candidates[i]) != canonical) {
        conflict = true;
      } else {
        report.duplicates++;
      }
    }
    if (conflict) {
      report.conflicts.push_back(s.name);
      continue;
    }
    report.unique++;
    report.canonical += canonical;
    report.canonical += "\n";
    const Receipt& r = *candidates[0];
    for (char c : r.name) {
      combined.Mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
    combined.Mix(r.trace_hash);
    combined.Mix(r.trace_events);
  }
  report.combined_hash = combined.digest();
  return report;
}

DiffReport DiffStores(const std::vector<Receipt>& a, const std::vector<Receipt>& b) {
  DiffReport report;
  std::map<std::string, const Receipt*> in_a, in_b;
  for (const Receipt& r : a) {
    in_a[r.name] = &r;
  }
  for (const Receipt& r : b) {
    in_b[r.name] = &r;
  }
  for (const auto& [name, receipt] : in_a) {
    (void)receipt;
    if (in_b.find(name) == in_b.end()) {
      report.removed.push_back(name);
    }
  }
  for (const auto& [name, receipt] : in_b) {
    (void)receipt;
    if (in_a.find(name) == in_a.end()) {
      report.added.push_back(name);
    }
  }
  for (const auto& [name, ra] : in_a) {
    auto it = in_b.find(name);
    if (it == in_b.end()) {
      continue;
    }
    const Receipt* rb = it->second;
    bool changed = false;
    if (ra->trace_hash != rb->trace_hash || ra->trace_events != rb->trace_events) {
      report.hash_changes.push_back({name, ra->trace_hash, rb->trace_hash});
      changed = true;
    }
    // Union of metric keys; equality on the canonical serialized value, so
    // a one-ulp drift registers without any float comparison.
    std::set<std::string> keys;
    for (const auto& [key, value] : ra->metrics) {
      (void)value;
      keys.insert(key);
    }
    for (const auto& [key, value] : rb->metrics) {
      (void)value;
      keys.insert(key);
    }
    for (const std::string& key : keys) {
      auto ma = ra->metrics.find(key);
      auto mb = rb->metrics.find(key);
      std::string va = ma == ra->metrics.end() ? "" : NumberJson(ma->second);
      std::string vb = mb == rb->metrics.end() ? "" : NumberJson(mb->second);
      if (va != vb) {
        report.metric_deltas.push_back({name, key, va, vb});
        changed = true;
      }
    }
    // Count drift (sim_events etc.) without a hash change still counts as
    // changed for the unchanged tally.
    if (!changed && (ra->sim_events != rb->sim_events ||
                     ra->context_switches != rb->context_switches ||
                     ra->migrations != rb->migrations)) {
      changed = true;
    }
    if (!changed) {
      report.unchanged++;
    }
  }
  return report;
}

bool LoadMergedStore(const std::string& path, std::vector<Receipt>* out, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  std::ifstream in(path);
  if (!in.good()) {
    return fail("cannot open merged store '" + path + "'");
  }
  std::vector<Receipt> receipts;
  std::set<std::string> names;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    Receipt r;
    std::string parse_error;
    if (!ParseReceiptLine(line, &r, &parse_error)) {
      return fail(path + " line " + std::to_string(line_no) + ": " + parse_error);
    }
    if (!names.insert(r.name).second) {
      return fail(path + ": duplicate scenario '" + r.name + "' (not a merged store?)");
    }
    receipts.push_back(std::move(r));
  }
  *out = std::move(receipts);
  return true;
}

}  // namespace wcores

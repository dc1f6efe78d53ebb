// Parameter-grid expansion for the fleet-scale sweep service.
//
// A GridSpec names one value list per scenario axis (topology, workload,
// feature set, policy, mix size) plus a seed count; ExpandGrid takes the
// full cross product and materializes one Scenario *instance* per cell —
// thousands of seeded, self-contained simulations that the sharded runner
// (shard.h) distributes across processes. Each instance's per-cell seed is
// derived from the cell's own parameters (not from enumeration order), so
// adding a value to one axis never reseeds the instances that already
// existed.
//
// ScenarioFingerprint is the canonical identity of an instance: an FNV-1a
// fold over every behavior-affecting Scenario field in a fixed order.
// Receipts carry it, claims are keyed by it, and resume compares it — if a
// grid definition changes under a results store, the fingerprints stop
// matching and the affected scenarios re-run instead of silently reusing
// stale receipts.
#ifndef SRC_TOOLS_SWEEP_GRID_H_
#define SRC_TOOLS_SWEEP_GRID_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/tools/sweep/scenario.h"

namespace wcores {

struct GridSpec {
  std::vector<Scenario::Topo> topos = {Scenario::Topo::kFlat2x4};
  std::vector<Scenario::Workload> workloads = {Scenario::Workload::kRandomMix};
  // Named feature sets; see FeatureSetByName: "stock", "fixed", plus one
  // single-fix ablation per paper bug ("gi", "gc", "ow", "md") and "noag"
  // (all fixed, autogroups off).
  std::vector<std::string> feature_sets = {"stock", "fixed"};
  std::vector<std::string> policies = {"cfs"};
  std::vector<int> mix_threads = {24};  // kRandomMix sizing axis.
  int seeds_per_cell = 1;
  uint64_t base_seed = 1;
  double scale = 0.05;
  Time horizon = Milliseconds(200);
};

// The stock fleet grid: 4 topologies x {8,16,24} mix threads x 5 feature
// sets x every registered policy x 3 seeds = 540 scenario instances.
GridSpec DefaultFleetGrid();

// Parses a compact spec string: semicolon-separated key=value[,value...]
// pairs. Keys: topo, workload, feat, policy, mix, seeds, seed, scale,
// horizon_ms. Example:
//   "topo=flat1x4,flat2x4;feat=stock,fixed;policy=cfs,o1;mix=8;seeds=2;
//    scale=0.02;horizon_ms=40;seed=7"
// The literal spec "default" yields DefaultFleetGrid(). Returns false and
// fills *error on an unknown key, a malformed value, or a spec with no
// entries ("" or ";"), which is never taken as the default.
bool ParseGridSpec(const std::string& text, GridSpec* spec, std::string* error);

// Cross product of the spec's axes, one Scenario per cell, with unique
// names of the form grid/<topo>/<workload>/<feat>/<policy>/m<mix>/s<K>.
std::vector<Scenario> ExpandGrid(const GridSpec& spec);

// Canonical identity of a scenario instance (see file comment).
uint64_t ScenarioFingerprint(const Scenario& s);

// Named feature sets for the grid axis. Returns false on an unknown name.
bool FeatureSetByName(const std::string& name, SchedFeatures* out);

}  // namespace wcores

#endif  // SRC_TOOLS_SWEEP_GRID_H_

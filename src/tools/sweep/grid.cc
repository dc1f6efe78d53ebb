#include "src/tools/sweep/grid.h"

#include <cerrno>
#include <cstdlib>
#include <set>

#include "src/modsched/policy_registry.h"
#include "src/simkit/check.h"
#include "src/simkit/rng.h"
#include "src/tools/sweep/trace_hash.h"
#include "src/workloads/nas.h"

namespace wcores {

namespace {

struct TopoEntry {
  Scenario::Topo topo;
  const char* name;
};
constexpr TopoEntry kTopos[] = {
    {Scenario::Topo::kBulldozer8x8, "bulldozer8x8"},
    {Scenario::Topo::kFlat1x4, "flat1x4"},
    {Scenario::Topo::kFlat2x4, "flat2x4"},
    {Scenario::Topo::kFlat4x8, "flat4x8"},
};

struct WorkloadEntry {
  Scenario::Workload workload;
  const char* name;
};
constexpr WorkloadEntry kWorkloads[] = {
    {Scenario::Workload::kMakeR, "make_r"},
    {Scenario::Workload::kTpchQ18, "tpch_q18"},
    {Scenario::Workload::kNas, "nas"},
    {Scenario::Workload::kRandomMix, "mix"},
};

void MixString(Fnv1a* fnv, const std::string& s) {
  for (char c : s) {
    fnv->Mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  // Length terminator: "ab"+"c" must not collide with "a"+"bc".
  fnv->Mix(s.size());
}

const char* TopoName(Scenario::Topo topo) {
  for (const TopoEntry& e : kTopos) {
    if (e.topo == topo) {
      return e.name;
    }
  }
  return "unknown";
}

bool TopoByName(const std::string& name, Scenario::Topo* out) {
  for (const TopoEntry& e : kTopos) {
    if (name == e.name) {
      *out = e.topo;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Scenario::Workload workload) {
  for (const WorkloadEntry& e : kWorkloads) {
    if (e.workload == workload) {
      return e.name;
    }
  }
  return "unknown";
}

bool WorkloadByName(const std::string& name, Scenario::Workload* out) {
  for (const WorkloadEntry& e : kWorkloads) {
    if (name == e.name) {
      *out = e.workload;
      return true;
    }
  }
  return false;
}

}  // namespace

bool FeatureSetByName(const std::string& name, SchedFeatures* out) {
  if (name == "stock") {
    *out = SchedFeatures::Stock();
  } else if (name == "fixed") {
    *out = SchedFeatures::AllFixed();
  } else if (name == "gi") {
    *out = SchedFeatures::Stock();
    out->fix_group_imbalance = true;
  } else if (name == "gc") {
    *out = SchedFeatures::Stock();
    out->fix_group_construction = true;
  } else if (name == "ow") {
    *out = SchedFeatures::Stock();
    out->fix_overload_wakeup = true;
  } else if (name == "md") {
    *out = SchedFeatures::Stock();
    out->fix_missing_domains = true;
  } else if (name == "noag") {
    *out = SchedFeatures::AllFixed();
    out->autogroup_enabled = false;
  } else {
    return false;
  }
  return true;
}

uint64_t ScenarioFingerprint(const Scenario& s) {
  Fnv1a fnv;
  MixString(&fnv, s.name);
  fnv.Mix(static_cast<uint64_t>(s.topo));
  fnv.Mix(static_cast<uint64_t>(s.workload));
  fnv.Mix(s.features.fix_group_imbalance ? 1 : 0);
  fnv.Mix(s.features.fix_group_construction ? 1 : 0);
  fnv.Mix(s.features.fix_overload_wakeup ? 1 : 0);
  fnv.Mix(s.features.fix_missing_domains ? 1 : 0);
  fnv.Mix(s.features.autogroup_enabled ? 1 : 0);
  fnv.Mix(s.seed);
  fnv.Mix(s.horizon);
  fnv.MixDouble(s.scale);
  fnv.Mix(static_cast<uint64_t>(s.nas_app));
  fnv.Mix(static_cast<uint64_t>(s.nas_threads));
  fnv.Mix(static_cast<uint64_t>(s.mix_threads));
  MixString(&fnv, s.policy);
  fnv.Mix(s.stream ? 1 : 0);
  fnv.Mix(s.stream_horizon);
  return fnv.digest();
}

GridSpec DefaultFleetGrid() {
  GridSpec spec;
  spec.topos = {Scenario::Topo::kFlat1x4, Scenario::Topo::kFlat2x4, Scenario::Topo::kFlat4x8,
                Scenario::Topo::kBulldozer8x8};
  spec.workloads = {Scenario::Workload::kRandomMix};
  spec.feature_sets = {"stock", "fixed", "gi", "ow", "noag"};
  spec.policies = SchedPolicyNames();
  spec.mix_threads = {8, 16, 24};
  spec.seeds_per_cell = 3;
  spec.base_seed = 1;
  spec.scale = 0.05;
  spec.horizon = Milliseconds(200);
  return spec;
}

namespace {

std::vector<std::string> SplitList(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      end = s.size();
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// Digits only: strtoull alone would accept a sign (wrapping "-1" to
// 2^64-1) and saturate silently on overflow.
bool ParseWholeU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), nullptr, 10);
  if (errno == ERANGE) {
    return false;
  }
  *out = v;
  return true;
}

// True if an axis repeats a value. Every axis value is part of the scenario
// name, so a repeat would expand to duplicate names.
template <typename T>
bool HasDuplicate(const std::vector<T>& values) {
  std::set<T> seen;
  for (const T& v : values) {
    if (!seen.insert(v).second) {
      return true;
    }
  }
  return false;
}

bool ParseWholeDouble(const std::string& s, double* out) {
  if (s.empty()) {
    return false;
  }
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

bool ParseGridSpec(const std::string& text, GridSpec* spec, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  if (text == "default") {
    *spec = DefaultFleetGrid();
    return true;
  }
  GridSpec out;
  out.policies = {"cfs"};
  std::set<std::string> keys;
  for (const std::string& pair : SplitList(text, ';')) {
    if (pair.empty()) {
      continue;
    }
    size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return fail("grid spec entry '" + pair + "' is not key=value");
    }
    std::string key = pair.substr(0, eq);
    std::vector<std::string> values = SplitList(pair.substr(eq + 1), ',');
    if (values.empty() || (values.size() == 1 && values[0].empty())) {
      return fail("grid spec key '" + key + "' has no value");
    }
    if (!keys.insert(key).second) {
      return fail("grid spec key '" + key + "' is repeated");
    }
    if (key == "topo") {
      out.topos.clear();
      for (const std::string& v : values) {
        Scenario::Topo topo;
        if (!TopoByName(v, &topo)) {
          return fail("unknown topology '" + v + "'");
        }
        out.topos.push_back(topo);
      }
    } else if (key == "workload") {
      out.workloads.clear();
      for (const std::string& v : values) {
        Scenario::Workload workload;
        if (!WorkloadByName(v, &workload)) {
          return fail("unknown workload '" + v + "'");
        }
        out.workloads.push_back(workload);
      }
    } else if (key == "feat") {
      out.feature_sets.clear();
      for (const std::string& v : values) {
        SchedFeatures features;
        if (!FeatureSetByName(v, &features)) {
          return fail("unknown feature set '" + v + "'");
        }
        out.feature_sets.push_back(v);
      }
    } else if (key == "policy") {
      out.policies.clear();
      for (const std::string& v : values) {
        if (CreateSchedPolicy(v) == nullptr) {
          return fail("unknown policy '" + v + "'");
        }
        out.policies.push_back(v);
      }
    } else if (key == "mix") {
      out.mix_threads.clear();
      for (const std::string& v : values) {
        uint64_t n = 0;
        if (!ParseWholeU64(v, &n) || n < 1 || n > 65536) {
          return fail("bad mix thread count '" + v + "'");
        }
        out.mix_threads.push_back(static_cast<int>(n));
      }
    } else if (key == "seeds") {
      uint64_t n = 0;
      if (values.size() != 1 || !ParseWholeU64(values[0], &n) || n < 1 || n > 100000) {
        return fail("bad seeds count '" + pair.substr(eq + 1) + "'");
      }
      out.seeds_per_cell = static_cast<int>(n);
    } else if (key == "seed") {
      uint64_t n = 0;
      if (values.size() != 1 || !ParseWholeU64(values[0], &n)) {
        return fail("bad base seed '" + pair.substr(eq + 1) + "'");
      }
      out.base_seed = n;
    } else if (key == "scale") {
      double v = 0;
      if (values.size() != 1 || !ParseWholeDouble(values[0], &v) || !(v > 0)) {
        return fail("bad scale '" + pair.substr(eq + 1) + "'");
      }
      out.scale = v;
    } else if (key == "horizon_ms") {
      uint64_t n = 0;
      if (values.size() != 1 || !ParseWholeU64(values[0], &n) || n < 1 ||
          n >= kTimeNever / kMillisecond) {
        return fail("bad horizon_ms '" + pair.substr(eq + 1) + "'");
      }
      out.horizon = Milliseconds(n);
    } else {
      return fail("unknown grid spec key '" + key + "'");
    }
    if (HasDuplicate(out.topos) || HasDuplicate(out.workloads) ||
        HasDuplicate(out.feature_sets) || HasDuplicate(out.policies) ||
        HasDuplicate(out.mix_threads)) {
      return fail("grid spec key '" + key + "' repeats a value");
    }
  }
  if (keys.empty()) {
    return fail("grid spec is empty");
  }
  *spec = out;
  return true;
}

std::vector<Scenario> ExpandGrid(const GridSpec& spec) {
  std::vector<Scenario> out;
  out.reserve(spec.topos.size() * spec.workloads.size() * spec.feature_sets.size() *
              spec.policies.size() * spec.mix_threads.size() *
              static_cast<size_t>(spec.seeds_per_cell));
  for (Scenario::Topo topo : spec.topos) {
    for (Scenario::Workload workload : spec.workloads) {
      for (const std::string& feat : spec.feature_sets) {
        for (const std::string& policy : spec.policies) {
          for (int mix : spec.mix_threads) {
            for (int k = 0; k < spec.seeds_per_cell; ++k) {
              Scenario s;
              s.name = std::string("grid/") + TopoName(topo) + "/" + WorkloadName(workload) +
                       "/" + feat + "/" + policy + "/m" + std::to_string(mix) + "/s" +
                       std::to_string(k);
              s.topo = topo;
              s.workload = workload;
              SchedFeatures features;
              bool known = FeatureSetByName(feat, &features);
              WC_CHECK(known, "grid spec carries an unknown feature-set name");
              s.features = features;
              s.policy = policy;
              s.mix_threads = mix;
              s.scale = spec.scale;
              s.horizon = spec.horizon;
              // Per-cell seed from the cell's identity, not its enumeration
              // index: growing an axis leaves existing cells' seeds (and so
              // their fingerprints and receipts) untouched.
              Fnv1a id;
              MixString(&id, s.name);
              id.Mix(spec.base_seed);
              uint64_t sm = id.digest();
              s.seed = SplitMix64(sm);
              out.push_back(std::move(s));
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace wcores

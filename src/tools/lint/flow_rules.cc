#include "src/tools/lint/flow_rules.h"

#include <algorithm>
#include <set>

namespace wcores::lint {

namespace {

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

// All findings are produced through this gate: a rule that is off (or not
// mentioned) for the file produces nothing.
class Emitter {
 public:
  Emitter(const std::map<std::string, std::map<std::string, Severity>>& severities_for,
          std::map<std::string, std::vector<Finding>>* by_file)
      : severities_for_(severities_for), by_file_(by_file) {}

  void Emit(const std::string& file, int line, const std::string& rule,
            const std::string& message) {
    auto fit = severities_for_.find(file);
    if (fit == severities_for_.end()) {
      return;
    }
    auto rit = fit->second.find(rule);
    if (rit == fit->second.end() || rit->second == Severity::kOff) {
      return;
    }
    Finding f;
    f.file = file;
    f.line = line;
    f.rule = rule;
    f.severity = rit->second;
    f.message = message;
    // Reachability rules can derive the same fact along several call chains;
    // report each (file, line, rule) once.
    for (const Finding& prev : (*by_file_)[file]) {
      if (prev.line == line && prev.rule == rule) {
        return;
      }
    }
    (*by_file_)[file].push_back(std::move(f));
  }

 private:
  const std::map<std::string, std::map<std::string, Severity>>& severities_for_;
  std::map<std::string, std::vector<Finding>>* by_file_;
};

// Resolves "Cls::Fn" / "Fn" id strings to node ids.
class IdIndex {
 public:
  explicit IdIndex(const SymbolTable& syms) {
    for (const FnRef& r : syms.functions()) {
      ids_[SymbolTable::IdOf(*r.def)].push_back(r.id);
    }
  }
  void AppendNamed(const std::vector<std::string>& names, std::vector<int>* out) const {
    for (const std::string& n : names) {
      auto it = ids_.find(n);
      if (it != ids_.end()) {
        out->insert(out->end(), it->second.begin(), it->second.end());
      }
    }
  }

 private:
  std::map<std::string, std::vector<int>> ids_;
};

// Classes deriving (reflexively) from the policy base.
std::set<std::string> PolicyClasses(const SymbolTable& syms, const AnalyzeConfig& cfg) {
  std::set<std::string> out;
  for (const TranslationUnit& tu : syms.units()) {
    for (const ClassInfo& c : tu.classes) {
      if (syms.DerivesFrom(c.name, cfg.policy_base)) {
        out.insert(c.name);
      }
    }
  }
  return out;
}

// Node ids of policy-class methods whose name is in `hooks`.
std::vector<int> PolicyHookNodes(const SymbolTable& syms, const std::set<std::string>& policy,
                                 const std::vector<std::string>& hooks) {
  std::vector<int> out;
  for (const FnRef& r : syms.functions()) {
    if (!r.def->cls.empty() && policy.count(r.def->cls) != 0 && Contains(hooks, r.def->name)) {
      out.push_back(r.id);
    }
  }
  return out;
}

// ---- A1: nondeterminism taint ---------------------------------------------

void RunA1(const SymbolTable& syms, const CallGraph& graph, const AnalyzeConfig& cfg,
           Emitter* emit) {
  std::vector<int> sinks;
  for (const FnRef& r : syms.functions()) {
    if (Contains(cfg.sink_methods, r.def->name)) {
      sinks.push_back(r.id);
    }
  }
  // T: functions from which a sink is reachable (the trace-affecting set).
  Reach to_sink = graph.Backward(sinks);
  // E: everything a trace-affecting function (transitively) calls — a source
  // there can feed values back up into the fold even though the callee
  // itself never calls the sink.
  std::vector<int> t_nodes;
  for (int i = 0; i < graph.NodeCount(); ++i) {
    if (to_sink.in_set[i]) {
      t_nodes.push_back(i);
    }
  }
  Reach from_t = graph.Forward(t_nodes);

  for (const FnRef& r : syms.functions()) {
    int id = r.id;
    bool in_t = to_sink.in_set[id];
    bool in_e = from_t.in_set[id];
    if (!in_t && !in_e) {
      continue;
    }
    const std::string& file = r.def->file;
    auto describe = [&](const std::string& what, int line) {
      std::string msg = what;
      if (in_t) {
        msg += " in trace-affecting code (reaches sink via " + graph.Chain(to_sink, id) + ")";
      } else {
        msg += " in code called from trace-affecting functions (" + graph.Chain(from_t, id) +
               " reaches here)";
      }
      emit->Emit(file, line, "A1", msg);
    };
    for (const CallSite& cs : r.def->calls) {
      if (!cs.via_member && Contains(cfg.source_calls, cs.callee) &&
          (cs.qualifier.empty() || cs.qualifier == "std")) {
        describe("nondeterminism source " + cs.callee + "()", cs.line);
      }
      if (Contains(cfg.source_types, cs.callee) || Contains(cfg.source_types, cs.qualifier)) {
        describe("nondeterminism source " +
                     (Contains(cfg.source_types, cs.qualifier) ? cs.qualifier : cs.callee),
                 cs.line);
      }
    }
    for (const PtrIntCast& cast : r.def->ptr_int_casts) {
      describe("pointer-as-integer (" + cast.detail + ")", cast.line);
    }
  }
}

// ---- A3: policy confinement -----------------------------------------------

void RunA3(const SymbolTable& syms, const CallGraph& graph, const AnalyzeConfig& cfg,
           const std::set<std::string>& policy, Emitter* emit) {
  // Policy world: every policy-class method, plus the non-mechanism helpers
  // they (transitively) call. Traversal stops AT mechanism-class methods —
  // crossing that boundary is what gets access-checked.
  std::set<std::string> mech(cfg.mechanism_classes.begin(), cfg.mechanism_classes.end());
  std::vector<int> world;
  std::vector<bool> in_world(graph.NodeCount(), false);
  for (const FnRef& r : syms.functions()) {
    if (!r.def->cls.empty() && policy.count(r.def->cls) != 0 && !in_world[r.id]) {
      in_world[r.id] = true;
      world.push_back(r.id);
    }
  }
  for (size_t w = 0; w < world.size(); ++w) {
    for (const Edge& e : graph.EdgesFrom(world[w])) {
      const FunctionDef& callee = *syms.functions()[e.to].def;
      if (mech.count(callee.cls) != 0) {
        continue;  // Boundary: checked below, not traversed.
      }
      if (!in_world[e.to]) {
        in_world[e.to] = true;
        world.push_back(e.to);
      }
    }
  }

  for (int id : world) {
    const FnRef& r = syms.functions()[id];
    const std::string& file = r.def->file;
    // Member/qualified calls that name a mechanism member: check access
    // against the declaration, not edge resolution — a declared-but-inline
    // method may have no graph node, and must still be confined.
    for (const CallSite& cs : r.def->calls) {
      // The policy's own member of the same name shadows the mechanism one.
      if (!r.def->cls.empty() && syms.FindMember(r.def->cls, cs.callee) != nullptr) {
        continue;
      }
      for (const std::string& m : cfg.mechanism_classes) {
        if (!cs.qualifier.empty() && cs.qualifier != m) {
          continue;  // Explicitly qualified with some other class.
        }
        if (cs.qualifier.empty() && !cs.via_member) {
          continue;  // Plain call: a free helper, not a mechanism member.
        }
        std::string found_in;
        const MemberInfo* mi = syms.FindMember(m, cs.callee, &found_in);
        if (mi != nullptr && mi->access != Access::kPublic) {
          emit->Emit(file, cs.line, "A3",
                     "policy code calls " + std::string(AccessName(mi->access)) +
                         " mechanism member " + found_in + "::" + cs.callee +
                         " (via " + SymbolTable::IdOf(*r.def) +
                         "); use the public Scheduler::Cfs* API");
          break;
        }
      }
    }
    // Direct reads/writes of non-public mechanism fields.
    for (const FieldUse& fu : r.def->field_uses) {
      if (!r.def->cls.empty() && syms.FindMember(r.def->cls, fu.field) != nullptr) {
        continue;  // The policy's own field.
      }
      for (const std::string& m : cfg.mechanism_classes) {
        std::string found_in;
        const MemberInfo* mi = syms.FindMember(m, fu.field, &found_in);
        if (mi != nullptr && !mi->is_function && mi->access != Access::kPublic) {
          emit->Emit(file, fu.line, "A3",
                     "policy code touches " + std::string(AccessName(mi->access)) +
                         " mechanism field " + found_in + "::" + fu.field + " (via " +
                         SymbolTable::IdOf(*r.def) + ")");
          break;
        }
      }
    }
  }
}

// ---- A4: fold-order-sensitive float accumulation --------------------------

void RunA4(const SymbolTable& syms, const CallGraph& graph, const Reach& balance,
           const AnalyzeConfig& cfg, Emitter* emit) {
  for (const FnRef& r : syms.functions()) {
    if (!balance.in_set[r.id]) {
      continue;
    }
    const std::string chain = graph.Chain(balance, r.id);
    bool bumps = false;
    for (const CallSite& cs : r.def->calls) {
      if (cs.callee == cfg.fold_version_bump) {
        bumps = true;
      }
    }
    for (const CallSite& cs : r.def->calls) {
      if (Contains(cfg.entity_load_calls, cs.callee)) {
        emit->Emit(r.def->file, cs.line, "A4",
                   "per-entity decayed-load read " + cs.callee +
                       "() reachable from balancing (" + chain +
                       "); read group aggregates through RqLoad/ComputeGroupStats");
      }
      // An rq-tree mutation in balance-reachable code with no load-version
      // bump anywhere in the same body permutes the memoized float fold
      // order without re-keying the memo — the PickSpecific bug class.
      if (!bumps && cs.via_member && Contains(cfg.fold_tree_objects, cs.object) &&
          Contains(cfg.fold_mutators, cs.callee)) {
        emit->Emit(r.def->file, cs.line, "A4",
                   cs.object + "." + cs.callee + "() in balance-reachable " +
                       SymbolTable::IdOf(*r.def) + " without a " + cfg.fold_version_bump +
                       "() in the same body: fold order can change under the memo");
      }
    }
  }
}

}  // namespace

AnalyzeResult RunAnalysis(const SymbolTable& syms, const CallGraph& graph,
                          const AnalyzeConfig& config,
                          const std::map<std::string, std::map<std::string, Severity>>&
                              severities_for) {
  AnalyzeResult result;
  result.functions = static_cast<int>(syms.functions().size());

  std::map<std::string, std::vector<Finding>> by_file;
  Emitter emit(severities_for, &by_file);
  IdIndex ids(syms);
  std::set<std::string> policy = PolicyClasses(syms, config);

  // Balance set: balancing entry points + balance-deciding policy hooks.
  std::vector<int> balance_roots;
  ids.AppendNamed(config.balance_root_ids, &balance_roots);
  for (int id : PolicyHookNodes(syms, policy, config.balance_hooks)) {
    balance_roots.push_back(id);
  }
  Reach balance = graph.Forward(balance_roots);

  RunA1(syms, graph, config, &emit);
  RunA3(syms, graph, config, policy, &emit);
  RunA4(syms, graph, balance, config, &emit);

  // Apply each TU's allow() annotations to its file's findings, then count.
  for (const TranslationUnit& tu : syms.units()) {
    auto it = by_file.find(tu.file);
    if (it != by_file.end()) {
      ApplyAllows(tu.allows, &it->second);
    }
  }
  for (auto& [file, findings] : by_file) {
    for (Finding& f : findings) {
      result.findings.push_back(std::move(f));
    }
  }
  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) {
                return a.file < b.file;
              }
              if (a.line != b.line) {
                return a.line < b.line;
              }
              return a.rule < b.rule;
            });
  for (const Finding& f : result.findings) {
    if (f.suppressed) {
      ++result.suppressed;
    } else if (f.severity == Severity::kError) {
      ++result.errors;
    } else if (f.severity == Severity::kWarn) {
      ++result.warnings;
    }
  }
  return result;
}

}  // namespace wcores::lint

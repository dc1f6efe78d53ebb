// The flow rules of wc-analyze, over SymbolTable + CallGraph.
//
//   A1  nondeterminism taint: a banned-source use (rand/clocks/getenv, or a
//       pointer-to-integer cast) inside any function from which a trace sink
//       (TraceSink::On* / Fnv1a::Mix/MixDouble) is reachable, or inside
//       anything those functions call. Token-level D3 sees the source; A1
//       sees whether it can reach the golden hash.
//   A3  policy confinement: SchedPolicy subclasses may use the mechanism
//       (Scheduler / CfsRunqueue) only through its public API. Flags calls
//       that resolve to non-public mechanism members and direct reads of
//       non-public mechanism fields, transitively through policy-side
//       helpers. Friendship is deliberately not modelled: a friend backdoor
//       is exactly the drift this rule exists to catch.
//   A4  fold-order-sensitive float accumulation: per-entity decayed-load
//       reads (ValueAt / EntityLoad / LoadAt / RqLoadRecomputed) reachable
//       from the balancing entry points, and rq-tree mutations (tree_.Insert/Erase) in such functions
//       without a load_version bump in the same body — the PR 7
//       PickSpecific bug class.
//
// Findings share the token rules' Finding struct, severity policy files, and
// allow() suppression grammar, so one annotation vocabulary covers every
// rule.
#ifndef SRC_TOOLS_LINT_FLOW_RULES_H_
#define SRC_TOOLS_LINT_FLOW_RULES_H_

#include <map>
#include <string>
#include <vector>

#include "src/tools/lint/callgraph.h"
#include "src/tools/lint/rules.h"
#include "src/tools/lint/symtab.h"

namespace wcores::lint {

// Everything the rules treat as a fixed point of the codebase. Defaults
// describe this repo; tests override fields to build directed scenarios.
struct AnalyzeConfig {
  // Policy classes: every subclass of this base is policy code (A3), and its
  // balance hooks are balancing entry points (A4).
  std::string policy_base = "SchedPolicy";

  // -- A1 -------------------------------------------------------------------
  // Methods whose bodies ARE the trace sinks (fold into the golden hash).
  std::vector<std::string> sink_methods = {
      "OnNrRunning", "OnLoad",      "OnConsidered",   "OnMigration", "OnSwitchIn",
      "OnSwitchOut", "OnWakeupLatency", "OnIdleEnter", "OnIdleExit",  "Mix",
      "MixDouble",
  };
  // Call-spellable nondeterminism sources (free calls).
  std::vector<std::string> source_calls = {
      "rand", "srand", "drand48", "time", "clock", "getenv", "secure_getenv",
  };
  // Source types: spelled as callee or qualifier anywhere in a body.
  std::vector<std::string> source_types = {
      "random_device", "steady_clock", "system_clock", "high_resolution_clock",
  };

  // -- A3 -------------------------------------------------------------------
  std::vector<std::string> mechanism_classes = {"Scheduler", "CfsRunqueue"};

  // -- A4 -------------------------------------------------------------------
  // Balancing entry points (mechanism ids + policy hook names).
  std::vector<std::string> balance_root_ids = {
      "Scheduler::CfsPeriodicBalance", "Scheduler::CfsIdleBalance",
      "Scheduler::CfsNohzBalance",     "Scheduler::IdleBalance",
      "Scheduler::BalanceDomain",      "Scheduler::MoveTasks",
      "Scheduler::RunNohzBalance",     "Scheduler::PickNext",
  };
  std::vector<std::string> balance_hooks = {
      "PeriodicBalance", "NewIdleBalance", "NohzBalance", "PickNextEntity",
  };
  // Per-entity decayed-load accessors.
  std::vector<std::string> entity_load_calls = {
      "ValueAt", "EntityLoad", "LoadAt", "RqLoadRecomputed",
  };
  // The rq-tree member objects whose mutation permutes float fold order, the
  // mutating methods, and the version bump that re-keys the memo.
  std::vector<std::string> fold_tree_objects = {"tree_"};
  std::vector<std::string> fold_mutators = {"Insert", "Erase"};
  std::string fold_version_bump = "BumpLoadVersion";
};

struct AnalyzeResult {
  std::vector<Finding> findings;  // Sorted by (file, line, rule).
  int errors = 0;                 // Unsuppressed error-severity findings.
  int warnings = 0;
  int suppressed = 0;
  int functions = 0;  // Function definitions analyzed.
};

// Runs A1, A3 and A4. `severities_for` maps each analyzed file to its resolved
// rule->severity map (policy chain already applied by the driver); files
// absent from the map get every rule off. Allow annotations from each TU are
// applied before counting.
AnalyzeResult RunAnalysis(const SymbolTable& syms, const CallGraph& graph,
                          const AnalyzeConfig& config,
                          const std::map<std::string, std::map<std::string, Severity>>&
                              severities_for);

}  // namespace wcores::lint

#endif  // SRC_TOOLS_LINT_FLOW_RULES_H_

// The rules of wc-analyze: determinism checks over the token stream produced
// by lexer.h, run on every file.
//
// Rule catalogue (see DESIGN.md "Static guardrails" for the rationale):
//
//   D1  pointer-valued keys in ordered containers (std::map<T*,..>,
//       std::set<T*>): iteration order is allocation-address order, which
//       ASLR re-randomizes every run — any trace-visible walk over such a
//       container breaks the golden-hash determinism contract.
//   D2  std::unordered_map / std::unordered_set in trace-affecting code:
//       bucket order depends on hasher, libstdc++ version, and seed.
//   D3  banned nondeterminism sources: rand()/srand()/drand48(),
//       std::random_device, steady_clock/system_clock/high_resolution_clock,
//       time(), clock(), getenv()/secure_getenv() — simulation code must use
//       the virtual clock and the seeded Rng.
//   D4  floating-point == / != against a float literal in decision code:
//       exact-equality decisions are one ulp away from flipping.
//
// Every finding is an error in every file. Findings are suppressed only by
// an inline annotation on the same line or the line above:
//   // wc-lint: allow(D3 measuring host wall time)
// The reason is mandatory; a reasonless allow(), or one naming a rule outside
// the catalogue, is itself an error (rule SUPPRESS), so every waiver is
// self-documenting and a leftover one cannot silently suppress nothing.
#ifndef SRC_TOOLS_LINT_RULES_H_
#define SRC_TOOLS_LINT_RULES_H_

#include <string>
#include <string_view>
#include <vector>

namespace wcores::lint {

struct RuleInfo {
  const char* id;
  const char* summary;
};

// Every rule, in report order: D1..D4. SUPPRESS is not listed: it is the
// meta-rule guarding the annotation grammar.
const std::vector<RuleInfo>& RuleCatalog();

bool IsKnownRule(const std::string& id);

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  bool suppressed = false;      // An allow() annotation covered it.
  std::string suppress_reason;  // Valid when suppressed.
};

struct FileLintResult {
  std::vector<Finding> findings;  // In line order; includes suppressed ones.
  int errors = 0;                 // Unsuppressed findings.
  int suppressed = 0;
};

// Lints one in-memory source with every rule.
FileLintResult LintSource(const std::string& path, std::string_view source);

// "path:line: [RULE] error: message" (or "suppressed (reason): message") —
// the format the golden test pins.
std::string FormatFinding(const Finding& f);

}  // namespace wcores::lint

#endif  // SRC_TOOLS_LINT_RULES_H_

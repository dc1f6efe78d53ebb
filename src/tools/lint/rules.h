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
//   D3  banned nondeterminism sources: rand()/srand(), std::random_device,
//       steady_clock/system_clock/high_resolution_clock, time(), clock(),
//       getenv() — simulation code must use the virtual clock and the
//       seeded Rng.
//   D4  floating-point == / != against a float literal in decision code:
//       exact-equality decisions are one ulp away from flipping.
//
// Findings are suppressed only by an inline annotation on the same line or
// the line above:   // wc-lint: allow(D3 measuring host wall time)
// The reason is mandatory; a reasonless allow() is itself an error-severity
// finding (rule SUPPRESS), so every waiver is self-documenting.
#ifndef SRC_TOOLS_LINT_RULES_H_
#define SRC_TOOLS_LINT_RULES_H_

#include <map>
#include <string>
#include <vector>

#include "src/tools/lint/policy.h"

namespace wcores::lint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  Severity severity = Severity::kError;
  std::string message;
  bool suppressed = false;      // An allow() annotation covered it.
  std::string suppress_reason;  // Valid when suppressed.
};

struct FileLintResult {
  std::vector<Finding> findings;  // In line order; includes suppressed ones.
  int errors = 0;                 // Unsuppressed error-severity findings.
  int warnings = 0;               // Unsuppressed warn-severity findings.
  int suppressed = 0;
};

// Lints one in-memory source. `severities` maps rule id -> severity for this
// file (see policy.h); rules absent from the map default to off.
FileLintResult LintSource(const std::string& path, std::string_view source,
                          const std::map<std::string, Severity>& severities);

// "path:line: [RULE] severity: message" — the format the golden test pins.
std::string FormatFinding(const Finding& f);

}  // namespace wcores::lint

#endif  // SRC_TOOLS_LINT_RULES_H_

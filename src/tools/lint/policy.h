// The rule catalogue and the per-directory severity policy of wc-analyze.
//
// A `.wc-lint.policy` file in a directory applies to every source file in it
// and below. Policies nest: the chain is built from the analysis root down
// to the file's directory, and the innermost file that mentions a rule wins.
// Within one file, later lines override earlier ones.
//
// Grammar (one directive per line, '#' starts a comment):
//
//   RULE  error|warn|off  [basename-glob]
//
// RULE must name a rule of RuleCatalog(); anything else is a parse error, so
// a directive for a retired or misspelled rule cannot silently do nothing.
// The optional glob (with '*' wildcards, matched against the file's
// basename) scopes a directive to specific files, e.g.:
//
//   A4 warn scheduler_balance.cc
#ifndef SRC_TOOLS_LINT_POLICY_H_
#define SRC_TOOLS_LINT_POLICY_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace wcores::lint {

enum class Severity { kOff, kWarn, kError };

const char* SeverityName(Severity s);

struct RuleInfo {
  const char* id;
  Severity default_severity;  // Where no policy file mentions the rule.
  const char* summary;
};

// Every rule, in report order: the token rules D1..D4 (rules.h), then the
// flow rules A1, A3 and A4 (flow_rules.h). SUPPRESS is not listed: it is the
// meta-rule guarding the annotation grammar and cannot be configured.
const std::vector<RuleInfo>& RuleCatalog();

bool IsKnownRule(const std::string& id);

// Rule id -> default severity, the base ResolveSeverities layers policies on.
std::map<std::string, Severity> DefaultSeverities();

struct PolicyDirective {
  std::string rule;
  Severity severity = Severity::kOff;
  std::string file_glob;  // Empty = all files.
};

struct Policy {
  std::vector<PolicyDirective> directives;
  std::vector<std::string> errors;  // Parse diagnostics, "line N: ...".
};

// Parses policy text. Unknown rules, unknown severities, and malformed lines
// are reported in `errors` and skipped; the rest of the file still applies.
Policy ParsePolicy(std::string_view text);

// '*'-only glob match against a file basename.
bool GlobMatch(std::string_view glob, std::string_view name);

// Severity for each rule id, for a file named `basename`, under the policy
// chain `outer_to_inner` (front = lint root, back = file's own directory).
// Rules not mentioned anywhere fall back to `defaults`.
std::map<std::string, Severity> ResolveSeverities(
    const std::vector<const Policy*>& outer_to_inner,
    const std::map<std::string, Severity>& defaults, const std::string& basename);

}  // namespace wcores::lint

#endif  // SRC_TOOLS_LINT_POLICY_H_

#include "src/tools/lint/policy.h"

#include <sstream>

namespace wcores::lint {

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kOff:
      return "off";
    case Severity::kWarn:
      return "warn";
    case Severity::kError:
      return "error";
  }
  return "?";
}

const std::vector<RuleInfo>& RuleCatalog() {
  static const std::vector<RuleInfo> kRules = {
      {"D1", Severity::kError,
       "pointer-valued key in an ordered container (ASLR-dependent iteration order)"},
      {"D2", Severity::kWarn,
       "unordered container in trace-affecting code (hash-dependent iteration order)"},
      {"D3", Severity::kWarn, "nondeterminism source outside the seeded-RNG / host-timing seams"},
      {"D4", Severity::kWarn, "floating-point == / != comparison in scheduler decision code"},
      {"A1", Severity::kError, "nondeterminism source can reach a trace sink (interprocedural D3)"},
      {"A3", Severity::kError, "policy code reaches mechanism internals bypassing the public API"},
      {"A4", Severity::kError, "fold-order-sensitive float accumulation reachable from balancing"},
  };
  return kRules;
}

bool IsKnownRule(const std::string& id) {
  for (const RuleInfo& r : RuleCatalog()) {
    if (id == r.id) {
      return true;
    }
  }
  return false;
}

std::map<std::string, Severity> DefaultSeverities() {
  std::map<std::string, Severity> out;
  for (const RuleInfo& r : RuleCatalog()) {
    out[r.id] = r.default_severity;
  }
  return out;
}

namespace {

std::optional<Severity> ParseSeverity(std::string_view word) {
  if (word == "off") {
    return Severity::kOff;
  }
  if (word == "warn") {
    return Severity::kWarn;
  }
  if (word == "error") {
    return Severity::kError;
  }
  return std::nullopt;
}

}  // namespace

Policy ParsePolicy(std::string_view text) {
  Policy policy;
  std::istringstream in{std::string(text)};
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream fields(line);
    std::string rule, sev_word, glob, extra;
    if (!(fields >> rule)) {
      continue;  // Blank / comment-only line.
    }
    if (!IsKnownRule(rule)) {
      policy.errors.push_back("line " + std::to_string(lineno) + ": unknown rule '" + rule +
                              "' (see wc-analyze --help)");
      continue;
    }
    if (!(fields >> sev_word)) {
      policy.errors.push_back("line " + std::to_string(lineno) + ": missing severity for " + rule);
      continue;
    }
    std::optional<Severity> sev = ParseSeverity(sev_word);
    if (!sev) {
      policy.errors.push_back("line " + std::to_string(lineno) + ": unknown severity '" +
                              sev_word + "' (want error|warn|off)");
      continue;
    }
    fields >> glob;
    if (fields >> extra) {
      policy.errors.push_back("line " + std::to_string(lineno) + ": trailing junk '" + extra + "'");
      continue;
    }
    policy.directives.push_back(PolicyDirective{rule, *sev, glob});
  }
  return policy;
}

bool GlobMatch(std::string_view glob, std::string_view name) {
  // Iterative '*' matcher with backtracking; no other metacharacters.
  size_t g = 0, n = 0, star = std::string_view::npos, mark = 0;
  while (n < name.size()) {
    if (g < glob.size() && (glob[g] == name[n])) {
      ++g;
      ++n;
    } else if (g < glob.size() && glob[g] == '*') {
      star = g++;
      mark = n;
    } else if (star != std::string_view::npos) {
      g = star + 1;
      n = ++mark;
    } else {
      return false;
    }
  }
  while (g < glob.size() && glob[g] == '*') {
    ++g;
  }
  return g == glob.size();
}

std::map<std::string, Severity> ResolveSeverities(
    const std::vector<const Policy*>& outer_to_inner,
    const std::map<std::string, Severity>& defaults, const std::string& basename) {
  std::map<std::string, Severity> out = defaults;
  for (const Policy* p : outer_to_inner) {
    for (const PolicyDirective& d : p->directives) {
      if (!d.file_glob.empty() && !GlobMatch(d.file_glob, basename)) {
        continue;
      }
      out[d.rule] = d.severity;
    }
  }
  return out;
}

}  // namespace wcores::lint

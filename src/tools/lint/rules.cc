#include "src/tools/lint/rules.h"

#include <algorithm>

#include "src/tools/lint/lexer.h"

namespace wcores::lint {

namespace {

std::string Trim(std::string s) {
  size_t b = s.find_first_not_of(" \t");
  size_t e = s.find_last_not_of(" \t");
  return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
}

// One parsed `allow(RULE reason)` clause. Covers findings on its own line
// (trailing style) and on the next line (leading style).
struct AllowSite {
  int line = 0;
  std::string rule;
  std::string reason;
};

// Scans one comment's text for the annotation marker and its allow clauses.
// Well-formed clauses land in `out`; malformed ones (no rule, a rule outside
// RuleCatalog(), no reason, unclosed paren) become error-severity SUPPRESS
// findings. (The marker string is assembled from pieces so this file's own
// comments and string literals never parse as annotations.)
void ParseAllowAnnotations(const Token& comment, const std::string& path,
                           std::vector<AllowSite>* out, std::vector<Finding>* findings) {
  static const std::string kMarker = std::string("wc-lint") + ":";
  const std::string& text = comment.text;
  size_t at = text.find(kMarker);
  if (at == std::string::npos) {
    return;
  }
  auto malformed = [&](std::string message) {
    findings->push_back(
        Finding{path, comment.line, "SUPPRESS", Severity::kError, std::move(message), false, {}});
  };
  size_t pos = at;
  while ((pos = text.find("allow(", pos)) != std::string::npos) {
    size_t open = pos + 5;  // index of '('
    size_t close = text.find(')', open);
    if (close == std::string::npos) {
      malformed("malformed wc-lint annotation: allow( without closing ')'");
      return;
    }
    std::string inner = text.substr(open + 1, close - open - 1);
    size_t space = inner.find_first_of(" \t");
    std::string rule = space == std::string::npos ? Trim(inner) : Trim(inner.substr(0, space));
    std::string reason = space == std::string::npos ? std::string() : Trim(inner.substr(space));
    if (rule.empty()) {
      malformed("wc-lint allow() names no rule");
    } else if (!IsKnownRule(rule)) {
      malformed("allow(" + rule +
                ") names an unknown rule and suppresses nothing (see wc-analyze --help)");
    } else if (reason.empty()) {
      malformed("suppression allow(" + rule + ") is missing a reason; write allow(" + rule +
                " why)");
    } else {
      out->push_back(AllowSite{comment.line, rule, reason});
    }
    pos = close;
  }
}

// Marks findings covered by an allow of the same rule on the same line or
// the line above as suppressed, copying the reason.
void ApplyAllows(const std::vector<AllowSite>& allows, std::vector<Finding>* findings) {
  for (Finding& f : *findings) {
    if (f.suppressed) {
      continue;
    }
    for (const AllowSite& s : allows) {
      if (s.rule == f.rule && (f.line == s.line || f.line == s.line + 1)) {
        f.suppressed = true;
        f.suppress_reason = s.reason;
        break;
      }
    }
  }
}

// The rule scanners work on the comment/preprocessor-free token stream.
class Scanner {
 public:
  Scanner(const std::string& path, const std::vector<Token>& all,
          const std::map<std::string, Severity>& severities)
      : path_(path), severities_(severities) {
    code_.reserve(all.size());
    for (const Token& t : all) {
      if (t.kind != TokKind::kComment && t.kind != TokKind::kPreproc &&
          t.kind != TokKind::kAttribute) {
        code_.push_back(&t);
      }
    }
  }

  std::vector<Finding> Run() {
    for (size_t i = 0; i < code_.size(); ++i) {
      CheckD1(i);
      CheckD2(i);
      CheckD3(i);
      CheckD4(i);
    }
    return std::move(findings_);
  }

 private:
  Severity SeverityOf(const std::string& rule) const {
    auto it = severities_.find(rule);
    return it == severities_.end() ? Severity::kOff : it->second;
  }

  bool Enabled(const std::string& rule) const { return SeverityOf(rule) != Severity::kOff; }

  const Token* At(size_t i) const { return i < code_.size() ? code_[i] : nullptr; }
  bool IsIdent(const Token* t, std::string_view name) const {
    return t != nullptr && t->kind == TokKind::kIdent && t->text == name;
  }
  bool IsPunct(const Token* t, std::string_view text) const {
    return t != nullptr && t->kind == TokKind::kPunct && t->text == text;
  }

  void Report(const std::string& rule, int line, std::string message) {
    findings_.push_back(Finding{path_, line, rule, SeverityOf(rule), std::move(message), false, {}});
  }

  // True when code_[i] is an identifier qualified as std::name — or
  // unqualified, which we accept only for `name`s distinctive enough that a
  // collision with user code is implausible (callers decide via
  // `require_std`).
  bool StdQualified(size_t i) const {
    return i >= 2 && IsPunct(At(i - 1), "::") && IsIdent(At(i - 2), "std");
  }
  bool MemberAccess(size_t i) const {
    return i >= 1 && (IsPunct(At(i - 1), ".") || IsPunct(At(i - 1), "->"));
  }
  // Qualified by some namespace other than std (mylib::map).
  bool ForeignQualified(size_t i) const {
    return i >= 1 && IsPunct(At(i - 1), "::") && !StdQualified(i);
  }

  // D1: std::map< / std::set< (and multi- variants) whose first template
  // argument contains a '*' at top level. Requires std:: qualification so
  // that variables named `map`/`set` never trip it.
  void CheckD1(size_t i) {
    if (!Enabled("D1")) {
      return;
    }
    const Token* t = At(i);
    if (t == nullptr || t->kind != TokKind::kIdent) {
      return;
    }
    if (t->text != "map" && t->text != "set" && t->text != "multimap" && t->text != "multiset") {
      return;
    }
    if (!StdQualified(i) || !IsPunct(At(i + 1), "<")) {
      return;
    }
    int depth = 1;
    int parens = 0;
    for (size_t j = i + 2; j < code_.size() && j < i + 202; ++j) {
      const Token* u = code_[j];
      if (u->kind != TokKind::kPunct) {
        continue;
      }
      if (u->text == "<") {
        ++depth;
      } else if (u->text == ">") {
        if (--depth == 0) {
          return;
        }
      } else if (u->text == ">>") {
        if ((depth -= 2) <= 0) {
          return;
        }
      } else if (u->text == "(") {
        ++parens;
      } else if (u->text == ")") {
        --parens;
      } else if (u->text == "," && depth == 1 && parens == 0) {
        return;  // Key type ended without a top-level '*'.
      } else if (u->text == ";" || u->text == "{") {
        return;  // Mis-parse guard (comparison, not a template).
      } else if (u->text == "*" && depth >= 1) {
        Report("D1", t->line,
               "pointer-valued key in std::" + t->text +
                   ": iteration order follows allocation addresses, which ASLR re-randomizes "
                   "every run; key by a stable id (tid, cpu, index) instead");
        return;
      }
    }
  }

  // D2: any mention of an unordered associative container. Scoped to
  // trace-affecting directories by policy.
  void CheckD2(size_t i) {
    if (!Enabled("D2")) {
      return;
    }
    const Token* t = At(i);
    if (t == nullptr || t->kind != TokKind::kIdent) {
      return;
    }
    if (t->text != "unordered_map" && t->text != "unordered_set" &&
        t->text != "unordered_multimap" && t->text != "unordered_multiset") {
      return;
    }
    if (MemberAccess(i) || ForeignQualified(i)) {
      return;
    }
    Report("D2", t->line,
           "std::" + t->text +
               " in trace-affecting code: iteration order depends on the hasher and bucket "
               "count; one leaked walk perturbs the golden trace hash — use std::map, std::set, "
               "or a sorted vector");
  }

  // D3: wall-clock, entropy, and environment reads. Simulation code gets
  // time from the virtual clock and randomness from the seeded Rng.
  void CheckD3(size_t i) {
    if (!Enabled("D3")) {
      return;
    }
    const Token* t = At(i);
    if (t == nullptr || t->kind != TokKind::kIdent || MemberAccess(i)) {
      return;
    }
    const std::string& name = t->text;
    bool distinctive = name == "random_device" || name == "steady_clock" ||
                       name == "system_clock" || name == "high_resolution_clock";
    if (distinctive) {
      // std::chrono::steady_clock arrives here qualified by `chrono`, which
      // must not count as a foreign namespace.
      bool chrono = i >= 2 && IsPunct(At(i - 1), "::") && IsIdent(At(i - 2), "chrono");
      if (ForeignQualified(i) && !chrono) {
        return;
      }
      Report("D3", t->line,
             (StdQualified(i) ? "std::" : "std::chrono::") + name +
                 ": host clock/entropy is invisible to the determinism gate; use virtual Time "
                 "(src/simkit/time.h) or the seeded Rng (src/simkit/rng.h)");
      return;
    }
    bool call_like = name == "rand" || name == "srand" || name == "drand48" || name == "time" ||
                     name == "clock" || name == "getenv" || name == "secure_getenv";
    if (!call_like || !IsPunct(At(i + 1), "(")) {
      return;
    }
    if (ForeignQualified(i)) {
      return;
    }
    // `Time time(0)` declares a variable; `return time(nullptr)` calls. An
    // identifier directly before the name means a declaration — unless it is
    // a statement keyword.
    const Token* prev = i >= 1 ? At(i - 1) : nullptr;
    if (prev != nullptr && prev->kind == TokKind::kIdent && prev->text != "return" &&
        prev->text != "case" && prev->text != "else" && prev->text != "do") {
      return;
    }
    Report("D3", t->line,
           name + "(): " +
               (name == "getenv" || name == "secure_getenv"
                    ? "environment reads make a run depend on the invoking shell"
                    : "host clock/entropy is invisible to the determinism gate") +
               "; thread configuration through flags, virtual Time, or the seeded Rng");
  }

  // D4: == / != with a floating-point literal operand. A lexical
  // approximation of "float equality in decision code": it cannot see
  // declared types, but every equality-against-literal decision is caught.
  void CheckD4(size_t i) {
    if (!Enabled("D4")) {
      return;
    }
    const Token* t = At(i);
    if (t == nullptr || t->kind != TokKind::kPunct || (t->text != "==" && t->text != "!=")) {
      return;
    }
    const Token* prev = i >= 1 ? At(i - 1) : nullptr;
    const Token* next = At(i + 1);
    bool prev_float = prev != nullptr && prev->kind == TokKind::kNumber && prev->is_float;
    bool next_float = next != nullptr && next->kind == TokKind::kNumber && next->is_float;
    if (!next_float && (IsPunct(next, "-") || IsPunct(next, "+"))) {
      const Token* after = At(i + 2);
      next_float = after != nullptr && after->kind == TokKind::kNumber && after->is_float;
    }
    if (!prev_float && !next_float) {
      return;
    }
    Report("D4", t->line,
           "floating-point " + t->text +
               " against a literal: a 1-ulp perturbation flips the comparison and, behind it, "
               "a scheduling decision; compare in integer units or against an epsilon");
  }

  const std::string& path_;
  const std::map<std::string, Severity>& severities_;
  std::vector<const Token*> code_;
  std::vector<Finding> findings_;
};

}  // namespace

FileLintResult LintSource(const std::string& path, std::string_view source,
                          const std::map<std::string, Severity>& severities) {
  FileLintResult result;
  LexResult lexed = Lex(source);

  std::vector<AllowSite> suppressions;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokKind::kComment) {
      ParseAllowAnnotations(t, path, &suppressions, &result.findings);
    }
  }

  Scanner scanner(path, lexed.tokens, severities);
  for (Finding& f : scanner.Run()) {
    result.findings.push_back(std::move(f));
  }
  ApplyAllows(suppressions, &result.findings);

  std::stable_sort(result.findings.begin(), result.findings.end(),
                   [](const Finding& a, const Finding& b) { return a.line < b.line; });
  for (const Finding& f : result.findings) {
    if (f.suppressed) {
      result.suppressed += 1;
    } else if (f.severity == Severity::kError) {
      result.errors += 1;
    } else if (f.severity == Severity::kWarn) {
      result.warnings += 1;
    }
  }
  return result;
}

std::string FormatFinding(const Finding& f) {
  std::string out = f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] ";
  if (f.suppressed) {
    out += "suppressed (" + f.suppress_reason + "): ";
  } else {
    out += std::string(SeverityName(f.severity)) + ": ";
  }
  out += f.message;
  return out;
}

}  // namespace wcores::lint

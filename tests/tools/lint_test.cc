// wc-analyze token-rule tests: lexer unit tests, the rule catalogue, policy
// parsing/resolution, suppression semantics, and the golden-diagnostics run
// of the D rules over tests/lint_fixtures/.
//
// To regenerate the golden after an intentional rule/message change, run
// lint_test and copy the "actual" block it prints into
// tests/lint_fixtures/expected.txt (or see scripts/ci.sh for the wc-analyze
// invocation over the real tree).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/tools/lint/lexer.h"
#include "src/tools/lint/policy.h"
#include "src/tools/lint/rules.h"

namespace wcores::lint {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrDie(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << p;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// ---- Lexer ---------------------------------------------------------------

std::vector<Token> CodeTokens(std::string_view src) {
  std::vector<Token> out;
  for (Token& t : Lex(src).tokens) {
    if (t.kind != TokKind::kComment && t.kind != TokKind::kPreproc &&
        t.kind != TokKind::kAttribute) {
      out.push_back(std::move(t));
    }
  }
  return out;
}

TEST(LintLexer, CommentsAndStringsAreOpaque) {
  auto toks = CodeTokens("int x; // std::map<T*, int>\n\"std::rand()\" /* rand() */ 'r'");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].text, "int");
  EXPECT_EQ(toks[1].text, "x");
  EXPECT_EQ(toks[2].text, ";");
  EXPECT_EQ(toks[3].kind, TokKind::kString);
  EXPECT_EQ(toks[4].kind, TokKind::kString);  // char literal
}

TEST(LintLexer, RawStringSwallowsFakeDelimiters) {
  auto toks = CodeTokens("auto s = R\"x(rand() \" )y\" )x\"; rand");
  // R"x( ... )x" is one string token; the trailing `rand` identifier remains.
  ASSERT_GE(toks.size(), 5u);
  EXPECT_EQ(toks[3].kind, TokKind::kString);
  EXPECT_EQ(toks.back().text, "rand");
}

TEST(LintLexer, PreprocessorLinesWithContinuation) {
  auto lexed = Lex("#define RND() \\\n  rand()\nint y;");
  ASSERT_FALSE(lexed.tokens.empty());
  EXPECT_EQ(lexed.tokens[0].kind, TokKind::kPreproc);
  // The macro body, continuation included, lives inside the preproc token.
  EXPECT_NE(lexed.tokens[0].text.find("rand"), std::string::npos);
  EXPECT_EQ(lexed.tokens[1].text, "int");
  EXPECT_EQ(lexed.tokens[1].line, 3);
}

TEST(LintLexer, NumberClassification) {
  auto toks = CodeTokens("1 0x1f 1.5 1e9 1e-9 0x1.0p-53 1'000'000 2.5f");
  ASSERT_EQ(toks.size(), 8u);
  bool floats[] = {false, false, true, true, true, true, false, true};
  for (size_t i = 0; i < toks.size(); ++i) {
    EXPECT_EQ(toks[i].kind, TokKind::kNumber) << i;
    EXPECT_EQ(toks[i].is_float, floats[i]) << toks[i].text;
  }
}

TEST(LintLexer, AttributesAreOneOpaqueToken) {
  auto lexed = Lex("[[nodiscard]] int F();\n[[deprecated(\"call rand() instead\")]] int G();");
  int attributes = 0;
  for (const Token& t : lexed.tokens) {
    if (t.kind == TokKind::kAttribute) {
      ++attributes;
      // The whole [[...]] — string argument included — is one token, so the
      // rand() inside the deprecation message can never trip a rule.
      EXPECT_EQ(t.text.substr(0, 2), "[[");
      EXPECT_EQ(t.text.substr(t.text.size() - 2), "]]");
    }
  }
  EXPECT_EQ(attributes, 2);
  // And rule scanning sees only the declarations.
  auto toks = CodeTokens("[[nodiscard]] int F();");
  ASSERT_GE(toks.size(), 2u);
  EXPECT_EQ(toks[0].text, "int");
}

TEST(LintLexer, PrefixedRawStringsSwallowContents) {
  // u8R / LR / uR prefixes take the raw-string path, not the identifier one.
  auto toks = CodeTokens("auto a = u8R\"(rand())\"; auto b = LR\"q( )\" )q\"; done");
  int strings = 0;
  for (const Token& t : toks) {
    strings += t.kind == TokKind::kString;
    EXPECT_NE(t.text, "rand");
  }
  EXPECT_EQ(strings, 2);
  EXPECT_EQ(toks.back().text, "done");
}

TEST(LintLexer, DigitSeparatorsInAllBases) {
  auto toks = CodeTokens("0xFF'00 0b1010'0101 1'000'000.25 07'77");
  ASSERT_EQ(toks.size(), 4u);
  for (const Token& t : toks) {
    EXPECT_EQ(t.kind, TokKind::kNumber) << t.text;
  }
  EXPECT_FALSE(toks[0].is_float);
  EXPECT_FALSE(toks[1].is_float);
  EXPECT_TRUE(toks[2].is_float);
}

TEST(LintLexer, UnterminatedLiteralIsReportedNotFatal) {
  auto lexed = Lex("const char* s = \"oops\nint next;");
  EXPECT_FALSE(lexed.errors.empty());
  // Lexing continues on the following line.
  bool saw_next = false;
  for (const Token& t : lexed.tokens) {
    saw_next = saw_next || t.text == "next";
  }
  EXPECT_TRUE(saw_next);
}

// ---- Policy --------------------------------------------------------------

TEST(LintPolicy, ParseAndErrors) {
  Policy p = ParsePolicy(
      "# comment\n"
      "D1 error\n"
      "A4 warn scheduler_balance.cc\n"
      "D2 banana\n"
      "D3\n"
      "D4 off *.h extra\n");
  ASSERT_EQ(p.directives.size(), 2u);
  EXPECT_EQ(p.directives[0].rule, "D1");
  EXPECT_EQ(p.directives[0].severity, Severity::kError);
  EXPECT_EQ(p.directives[1].file_glob, "scheduler_balance.cc");
  ASSERT_EQ(p.errors.size(), 3u);  // banana, missing severity, trailing junk
}

TEST(LintPolicy, GlobMatch) {
  EXPECT_TRUE(GlobMatch("*", "anything.cc"));
  EXPECT_TRUE(GlobMatch("*.h", "scheduler.h"));
  EXPECT_FALSE(GlobMatch("*.h", "scheduler.cc"));
  EXPECT_TRUE(GlobMatch("event_queue.h", "event_queue.h"));
  EXPECT_TRUE(GlobMatch("sim*.cc", "simulator.cc"));
  EXPECT_FALSE(GlobMatch("sim*.cc", "scheduler.cc"));
  EXPECT_TRUE(GlobMatch("*_test.cc", "lint_test.cc"));
}

TEST(LintPolicy, InnerPolicyWinsAndGlobScopes) {
  Policy outer = ParsePolicy("D2 off\nD3 warn\n");
  Policy inner = ParsePolicy("D3 error\nA4 warn simulator.h\n");
  std::map<std::string, Severity> defaults = {{"D1", Severity::kError},
                                              {"A4", Severity::kOff}};
  auto sim = ResolveSeverities({&outer, &inner}, defaults, "simulator.h");
  EXPECT_EQ(sim.at("D1"), Severity::kError);  // default survives
  EXPECT_EQ(sim.at("D2"), Severity::kOff);    // outer only
  EXPECT_EQ(sim.at("D3"), Severity::kError);  // inner overrides outer
  EXPECT_EQ(sim.at("A4"), Severity::kWarn);   // glob matched
  auto other = ResolveSeverities({&outer, &inner}, defaults, "scheduler.cc");
  EXPECT_EQ(other.at("A4"), Severity::kOff);  // glob did not match
}

TEST(LintPolicy, CatalogIsTokenRulesThenFlowRules) {
  std::string ids;
  for (const RuleInfo& r : RuleCatalog()) {
    ids += std::string(r.id) + " ";
  }
  EXPECT_EQ(ids, "D1 D2 D3 D4 A1 A3 A4 ");
  std::map<std::string, Severity> defaults = DefaultSeverities();
  EXPECT_EQ(defaults.at("D1"), Severity::kError);
  EXPECT_EQ(defaults.at("D2"), Severity::kWarn);  // Raised per trace-affecting directory.
}

TEST(LintPolicy, UnknownRuleIsParseError) {
  Policy p = ParsePolicy(ReadFileOrDie(fs::path(WC_LINT_FIXTURE_DIR) / "unknown_rule.policy"));
  ASSERT_EQ(p.directives.size(), 1u);  // The known D3 line still applies.
  EXPECT_EQ(p.directives[0].rule, "D3");
  ASSERT_EQ(p.errors.size(), 4u);  // D6, D7, A2, and the SUPPRESS meta-rule.
  EXPECT_NE(p.errors[0].find("unknown rule 'D6'"), std::string::npos) << p.errors[0];
  EXPECT_NE(p.errors[1].find("unknown rule 'D7'"), std::string::npos) << p.errors[1];
  EXPECT_NE(p.errors[2].find("unknown rule 'A2'"), std::string::npos) << p.errors[2];
  EXPECT_NE(p.errors[3].find("unknown rule 'SUPPRESS'"), std::string::npos) << p.errors[3];
}

// ---- Rule/suppression semantics on inline snippets -----------------------

std::map<std::string, Severity> AllError() {
  std::map<std::string, Severity> sev;
  for (const RuleInfo& r : RuleCatalog()) {
    sev[r.id] = Severity::kError;
  }
  return sev;
}

int CountRule(const FileLintResult& r, const std::string& rule, bool suppressed) {
  int n = 0;
  for (const Finding& f : r.findings) {
    n += (f.rule == rule && f.suppressed == suppressed) ? 1 : 0;
  }
  return n;
}

TEST(LintRules, SuppressionCoversSameAndNextLineOnly) {
  std::string src =
      "// wc-lint" ": allow(D3 covers the next line)\n"
      "int a = rand();\n"
      "int b = rand();\n";  // Two lines below the annotation: not covered.
  FileLintResult r = LintSource("snippet.cc", src, AllError());
  EXPECT_EQ(CountRule(r, "D3", /*suppressed=*/true), 1);
  EXPECT_EQ(CountRule(r, "D3", /*suppressed=*/false), 1);
  EXPECT_EQ(r.errors, 1);
  EXPECT_EQ(r.suppressed, 1);
}

TEST(LintRules, OffRuleEmitsNothing) {
  std::map<std::string, Severity> sev = AllError();
  sev["D3"] = Severity::kOff;
  FileLintResult r = LintSource("snippet.cc", "int a = rand();\n", sev);
  EXPECT_TRUE(r.findings.empty());
}

TEST(LintRules, WarnDoesNotCountAsError) {
  std::map<std::string, Severity> sev = AllError();
  sev["D3"] = Severity::kWarn;
  FileLintResult r = LintSource("snippet.cc", "#include <cstdlib>\nint a = rand();\n", sev);
  EXPECT_EQ(r.errors, 0);
  EXPECT_EQ(r.warnings, 1);
}

TEST(LintPolicy, D6GlobScopesToBalancingFile) {
  // A directive opted in for the balancer file alone: the shape the retired
  // D6 rule used, kept with a surviving rule as the sample.
  Policy p = ParsePolicy("A4 error scheduler_balance.cc\n");
  ASSERT_TRUE(p.errors.empty());
  std::map<std::string, Severity> defaults = {{"A4", Severity::kOff}};
  EXPECT_EQ(ResolveSeverities({&p}, defaults, "scheduler_balance.cc").at("A4"),
            Severity::kError);
  EXPECT_EQ(ResolveSeverities({&p}, defaults, "scheduler.cc").at("A4"), Severity::kOff);
}

TEST(LintRules, TemplateScannerHandlesNestedClose) {
  // The >> closing both templates must not leave the scanner confused about
  // the *next* map's key.
  std::string src =
      "#include <map>\n"
      "std::map<int, std::map<int, int>> ok;\n"
      "std::map<Thread*, int> bad;\n";
  FileLintResult r = LintSource("snippet.cc", src, AllError());
  EXPECT_EQ(CountRule(r, "D1", /*suppressed=*/false), 1);
}

// ---- Golden corpus -------------------------------------------------------

TEST(LintGolden, FixtureCorpus) {
  fs::path dir = WC_LINT_FIXTURE_DIR;
  Policy policy = ParsePolicy(ReadFileOrDie(dir / ".wc-lint.policy"));
  ASSERT_TRUE(policy.errors.empty());

  std::vector<fs::path> fixtures;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".cc") {
      fixtures.push_back(e.path());
    }
  }
  std::sort(fixtures.begin(), fixtures.end());
  ASSERT_GE(fixtures.size(), 17u) << "fixture corpus shrank";

  std::string actual;
  for (const fs::path& f : fixtures) {
    std::string base = f.filename().string();
    auto sev = ResolveSeverities({&policy}, /*defaults=*/{}, base);
    FileLintResult r = LintSource(base, ReadFileOrDie(f), sev);
    actual += "== " + base + "\n";
    for (const Finding& fi : r.findings) {
      actual += FormatFinding(fi) + "\n";
    }
    actual += "-- errors=" + std::to_string(r.errors) +
              " warnings=" + std::to_string(r.warnings) +
              " suppressed=" + std::to_string(r.suppressed) + "\n";
  }

  std::string expected = ReadFileOrDie(dir / "expected.txt");
  EXPECT_EQ(expected, actual) << "----- actual (copy into expected.txt if intentional) -----\n"
                              << actual;
}

}  // namespace
}  // namespace wcores::lint

// wc-analyze tests: lexer unit tests, the rule catalogue, suppression
// semantics, and the golden-diagnostics run of the D rules over
// tests/lint_fixtures/. The tree-wide run is the lint.tree_is_clean ctest.
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

// ---- Rule catalogue ------------------------------------------------------

TEST(LintPolicy, CatalogIsTheFourTokenRules) {
  std::string ids;
  for (const RuleInfo& r : RuleCatalog()) {
    ids += std::string(r.id) + " ";
  }
  EXPECT_EQ(ids, "D1 D2 D3 D4 ");
}

// ---- Rule/suppression semantics on inline snippets -----------------------

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
  FileLintResult r = LintSource("snippet.cc", src);
  EXPECT_EQ(CountRule(r, "D3", /*suppressed=*/true), 1);
  EXPECT_EQ(CountRule(r, "D3", /*suppressed=*/false), 1);
  EXPECT_EQ(r.errors, 1);
  EXPECT_EQ(r.suppressed, 1);
}

TEST(LintRules, TemplateScannerHandlesNestedClose) {
  // The >> closing both templates must not leave the scanner confused about
  // the *next* map's key.
  std::string src =
      "#include <map>\n"
      "std::map<int, std::map<int, int>> ok;\n"
      "std::map<Thread*, int> bad;\n";
  FileLintResult r = LintSource("snippet.cc", src);
  EXPECT_EQ(CountRule(r, "D1", /*suppressed=*/false), 1);
}

// ---- Golden corpus -------------------------------------------------------

TEST(LintGolden, FixtureCorpus) {
  fs::path dir = WC_LINT_FIXTURE_DIR;

  std::vector<fs::path> fixtures;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".cc") {
      fixtures.push_back(e.path());
    }
  }
  std::sort(fixtures.begin(), fixtures.end());
  ASSERT_GE(fixtures.size(), 11u) << "fixture corpus shrank";

  std::string actual;
  for (const fs::path& f : fixtures) {
    std::string base = f.filename().string();
    FileLintResult r = LintSource(base, ReadFileOrDie(f));
    actual += "== " + base + "\n";
    for (const Finding& fi : r.findings) {
      actual += FormatFinding(fi) + "\n";
    }
    actual += "-- errors=" + std::to_string(r.errors) +
              " suppressed=" + std::to_string(r.suppressed) + "\n";
  }

  std::string expected = ReadFileOrDie(dir / "expected.txt");
  EXPECT_EQ(expected, actual) << "----- actual (copy into expected.txt if intentional) -----\n"
                              << actual;
}

}  // namespace
}  // namespace wcores::lint

// A small, dependency-free C++ tokenizer for wc-analyze.
//
// This is not a compiler front end: it has no preprocessor, no symbol table,
// and no types. It only needs to be exact about the four things that make
// naive regex linting wrong — comments, string literals (including raw
// strings), character literals, and preprocessor lines — so that rules never
// fire on quoted or commented text, and suppression annotations are read
// from real comments only.
#ifndef SRC_TOOLS_LINT_LEXER_H_
#define SRC_TOOLS_LINT_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

namespace wcores::lint {

enum class TokKind {
  kIdent,      // identifiers and keywords
  kNumber,     // pp-numbers: 123, 0x1f, 1.5e3, 0x1.0p-53, 1'000'000
  kString,     // "..."  '...'  R"tag(...)tag"  (prefix included in text)
  kPunct,      // operators and punctuation, longest-match up to 3 chars
  kComment,    // // ... and /* ... */, text includes the delimiters
  kPreproc,    // a whole preprocessor logical line, continuations included
  kAttribute,  // [[...]] as one token, so attributes never desync
               // token-offset-based rules or the declaration parser
};

struct Token {
  TokKind kind;
  std::string text;
  int line = 0;           // 1-based line of the token's first character.
  bool is_float = false;  // kNumber only: has '.', decimal e/E, or hex p/P.
};

struct LexResult {
  std::vector<Token> tokens;
  // Malformed input (unterminated string/comment). The tokens produced up
  // to that point are still usable; linting continues.
  std::vector<std::string> errors;
};

LexResult Lex(std::string_view source);

}  // namespace wcores::lint

#endif  // SRC_TOOLS_LINT_LEXER_H_

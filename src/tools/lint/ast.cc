#include "src/tools/lint/ast.h"

#include <cstddef>
#include <set>

namespace wcores::lint {

const char* AccessName(Access a) {
  switch (a) {
    case Access::kPublic:
      return "public";
    case Access::kProtected:
      return "protected";
    case Access::kPrivate:
      return "private";
  }
  return "?";
}

namespace {

// Keywords and other identifiers that can never be a call-site or
// declaration name. Keeps the heuristics from mistaking `if (...)`,
// `sizeof(...)`, `return (...)` etc. for calls.
const std::set<std::string>& Reserved() {
  static const std::set<std::string> kReserved = {
      "if",        "for",      "while",    "switch",       "return",   "sizeof",
      "alignof",   "alignas",  "decltype", "noexcept",     "throw",    "catch",
      "new",       "delete",   "do",       "else",         "case",     "default",
      "break",     "continue", "goto",     "static_assert", "typeid",  "co_await",
      "co_yield",  "co_return", "requires", "concept",     "explicit", "constexpr",
      "consteval", "constinit", "inline",  "static",       "extern",   "mutable",
      "virtual",   "override", "final",    "const",        "volatile", "typename",
      "template",  "class",    "struct",   "union",        "enum",     "namespace",
      "using",     "typedef",  "friend",   "public",       "private",  "protected",
      "operator",  "this",     "void",     "bool",         "char",     "short",
      "int",       "long",     "float",    "double",       "signed",   "unsigned",
      "auto",      "true",     "false",    "nullptr",      "and",      "or",
      "not",       "try",      "asm",      "register",     "thread_local",
  };
  return kReserved;
}

bool IsReserved(const std::string& s) { return Reserved().count(s) != 0; }

// Field names on the right of . / -> that are really language constructs
// or too generic to be a meaningful member-access fact.
bool IsReservedField(const std::string& s) {
  return IsReserved(s) || s == "get" || s == "reset" || s == "release";
}

// Integer-type spellings that make a reinterpret_cast a pointer-as-integer
// conversion (the A1 source).
bool IsIntTypeWord(const std::string& s) {
  return s == "uintptr_t" || s == "intptr_t" || s == "size_t" || s == "uint64_t" ||
         s == "uint32_t" || s == "int64_t" || s == "ptrdiff_t" || s == "unsigned" ||
         s == "long" || s == "int";
}

class Parser {
 public:
  Parser(const std::string& file, std::string_view source) {
    tu_.file = file;
    lexed_ = Lex(source);
    tu_.errors = lexed_.errors;
    for (const Token& t : lexed_.tokens) {
      if (t.kind == TokKind::kComment) {
        ParseAllowAnnotations(t, file, &tu_.allows, nullptr);
        continue;
      }
      if (t.kind == TokKind::kPreproc || t.kind == TokKind::kAttribute) {
        continue;
      }
      code_.push_back(&t);
    }
  }

  TranslationUnit Run() {
    size_t i = 0;
    ParseDeclarations(&i, nullptr, Access::kPublic, /*until_brace=*/false);
    return std::move(tu_);
  }

 private:
  // ---- token access --------------------------------------------------------

  size_t Size() const { return code_.size(); }
  bool AtEnd(size_t i) const { return i >= code_.size(); }
  const Token& At(size_t i) const { return *code_[i]; }
  const std::string& TextAt(size_t i) const {
    static const std::string kEmpty;
    return i < code_.size() ? code_[i]->text : kEmpty;
  }
  bool IsP(size_t i, const char* p) const {
    return i < code_.size() && code_[i]->kind == TokKind::kPunct && code_[i]->text == p;
  }
  bool IsI(size_t i, const char* w) const {
    return i < code_.size() && code_[i]->kind == TokKind::kIdent && code_[i]->text == w;
  }
  bool IsIdent(size_t i) const { return i < code_.size() && code_[i]->kind == TokKind::kIdent; }
  int LineAt(size_t i) const { return i < code_.size() ? code_[i]->line : 0; }

  // ---- generic skippers ----------------------------------------------------

  // `from` indexes a `<`. Returns the index just past the matching `>`, or
  // from+1 when this is not a template-argument list after all (comparison
  // operator, lost balance, statement boundary). `>>` closes two levels.
  size_t SkipAngles(size_t from) const {
    size_t i = from + 1;
    int depth = 1;
    int parens = 0;
    size_t budget = 300;
    while (!AtEnd(i) && budget-- > 0) {
      const std::string& t = TextAt(i);
      if (At(i).kind == TokKind::kPunct) {
        if (t == "(") {
          ++parens;
        } else if (t == ")") {
          if (parens == 0) {
            return from + 1;  // `a < b)` — a comparison inside a call.
          }
          --parens;
        } else if (parens == 0) {
          if (t == "<") {
            ++depth;
          } else if (t == ">") {
            if (--depth == 0) {
              return i + 1;
            }
          } else if (t == ">>") {
            depth -= 2;
            if (depth <= 0) {
              return i + 1;
            }
          } else if (t == ";" || t == "{" || t == "}" || t == "&&" || t == "||") {
            return from + 1;  // Statement boundary: it was a comparison.
          }
        }
      }
      ++i;
    }
    return from + 1;
  }

  // `from` indexes an opener ( { [. Returns the index just past its match.
  size_t SkipMatched(size_t from) const {
    const std::string open = TextAt(from);
    const std::string close = open == "(" ? ")" : open == "{" ? "}" : "]";
    int depth = 0;
    size_t i = from;
    while (!AtEnd(i)) {
      if (At(i).kind == TokKind::kPunct) {
        if (TextAt(i) == open) {
          ++depth;
        } else if (TextAt(i) == close) {
          if (--depth == 0) {
            return i + 1;
          }
        }
      }
      ++i;
    }
    return i;
  }

  // Advances to just past the next `;` at the current brace depth. If a `}`
  // closes the enclosing scope first, stops AT it (caller sees the brace).
  size_t SkipToSemi(size_t from) const {
    size_t i = from;
    int depth = 0;
    while (!AtEnd(i)) {
      if (At(i).kind == TokKind::kPunct) {
        const std::string& t = TextAt(i);
        if (t == "{" || t == "(" || t == "[") {
          i = SkipMatched(i);
          continue;
        }
        if (t == "}") {
          return i;  // Enclosing scope ends; do not consume.
        }
        if (t == ";" && depth == 0) {
          return i + 1;
        }
      }
      ++i;
    }
    return i;
  }

  void SkipTemplateHeader(size_t* i) {
    ++*i;  // "template"
    if (IsP(*i, "<")) {
      *i = SkipAngles(*i);
    }
  }

  // enum [class|struct] [name] [: underlying] { ... } ;
  void SkipEnum(size_t* i) {
    ++*i;  // "enum"
    if (IsI(*i, "class") || IsI(*i, "struct")) {
      ++*i;
    }
    if (IsIdent(*i)) {
      ++*i;
    }
    if (IsP(*i, ":")) {
      ++*i;
      while (IsIdent(*i) || IsP(*i, "::")) {
        ++*i;
      }
    }
    if (IsP(*i, "{")) {
      *i = SkipMatched(*i);
    }
    if (IsP(*i, ";")) {
      ++*i;
    }
  }

  // ---- declaration loop ----------------------------------------------------

  // Parses declarations until EOF (until_brace=false) or the `}` closing the
  // current scope (until_brace=true, `}` is consumed). `cls` is non-null when
  // inside a class body.
  void ParseDeclarations(size_t* i, ClassInfo* cls, Access access, bool until_brace) {
    size_t guard = 0;
    while (!AtEnd(*i)) {
      if (++guard > 200000) {
        tu_.errors.push_back("parser guard tripped in " + tu_.file);
        return;
      }
      if (IsP(*i, "}")) {
        if (until_brace) {
          ++*i;
        }
        return;
      }
      if (IsP(*i, ";")) {
        ++*i;
        continue;
      }
      if (IsI(*i, "namespace")) {
        ++*i;
        while (IsIdent(*i) || IsP(*i, "::")) {
          ++*i;
        }
        if (IsP(*i, "=")) {  // namespace alias
          *i = SkipToSemi(*i);
          continue;
        }
        if (IsP(*i, "{")) {
          ++*i;
          ParseDeclarations(i, nullptr, Access::kPublic, /*until_brace=*/true);
        }
        continue;
      }
      if (IsI(*i, "using") || IsI(*i, "typedef") || IsI(*i, "static_assert")) {
        *i = SkipToSemi(*i);
        continue;
      }
      if (IsI(*i, "template")) {
        SkipTemplateHeader(i);
        continue;
      }
      if (cls != nullptr && (IsI(*i, "public") || IsI(*i, "protected") || IsI(*i, "private")) &&
          IsP(*i + 1, ":")) {
        access = IsI(*i, "public")      ? Access::kPublic
                 : IsI(*i, "protected") ? Access::kProtected
                                        : Access::kPrivate;
        *i += 2;
        continue;
      }
      if (cls != nullptr && IsI(*i, "friend")) {
        size_t j = *i + 1;
        while (!AtEnd(j) && !IsP(j, ";") && !IsP(j, "{")) {
          if (IsIdent(j) && !IsReserved(TextAt(j))) {
            cls->friends.push_back(TextAt(j));
          }
          if (IsP(j, "(")) {
            j = SkipMatched(j);
            continue;
          }
          ++j;
        }
        *i = IsP(j, ";") ? j + 1 : j;
        continue;
      }
      if (IsI(*i, "class") || IsI(*i, "struct") || IsI(*i, "union")) {
        ParseClassOrSkip(i, cls, access);
        continue;
      }
      if (IsI(*i, "enum")) {
        SkipEnum(i);
        continue;
      }
      if (IsI(*i, "extern")) {
        // `extern "C" {` opens a plain scope; `extern` otherwise is just a
        // specifier on the following declaration.
        if (!AtEnd(*i + 1) && At(*i + 1).kind == TokKind::kString && IsP(*i + 2, "{")) {
          *i += 3;
          ParseDeclarations(i, cls, access, /*until_brace=*/true);
          continue;
        }
        ++*i;
        continue;
      }
      ParseDeclOrFunction(i, cls, access);
    }
  }

  // ---- class parsing -------------------------------------------------------

  // At "class"/"struct"/"union". Handles forward declarations, definitions
  // (recursing for the body) and `class Foo x;` style uses.
  void ParseClassOrSkip(size_t* i, ClassInfo* enclosing, Access enclosing_access) {
    bool is_struct = !IsI(*i, "class");
    bool is_union = IsI(*i, "union");
    ++*i;
    // Skip attributes already dropped by the token filter; skip alignas(...)
    if (IsI(*i, "alignas") && IsP(*i + 1, "(")) {
      *i = SkipMatched(*i + 1);
    }
    if (!IsIdent(*i) || IsReserved(TextAt(*i))) {
      // Anonymous struct/union or something exotic: skip its body if any.
      while (!AtEnd(*i) && !IsP(*i, "{") && !IsP(*i, ";")) {
        ++*i;
      }
      if (IsP(*i, "{")) {
        *i = SkipMatched(*i);
      }
      *i = SkipToSemi(*i);
      return;
    }
    std::string name = TextAt(*i);
    int line = LineAt(*i);
    ++*i;
    if (IsP(*i, "<")) {  // explicit specialization
      *i = SkipAngles(*i);
    }
    if (IsI(*i, "final")) {
      ++*i;
    }
    if (IsP(*i, ";")) {  // forward declaration
      ++*i;
      return;
    }
    ClassInfo info;
    info.name = name;
    info.file = tu_.file;
    info.line = line;
    info.is_struct = is_struct;
    if (IsP(*i, ":")) {
      ++*i;
      // Comma-separated base list; keep the last identifier of each base
      // (drops namespace qualifiers, which member lookup doesn't need).
      std::string last;
      while (!AtEnd(*i) && !IsP(*i, "{") && !IsP(*i, ";")) {
        if (IsP(*i, ",")) {
          if (!last.empty()) {
            info.bases.push_back(last);
          }
          last.clear();
          ++*i;
          continue;
        }
        if (IsP(*i, "<")) {
          *i = SkipAngles(*i);
          continue;
        }
        if (IsIdent(*i) && !IsReserved(TextAt(*i))) {
          last = TextAt(*i);
        }
        ++*i;
      }
      if (!last.empty()) {
        info.bases.push_back(last);
      }
    }
    if (!IsP(*i, "{")) {
      // `class Foo x;` — an elaborated type specifier inside a declaration.
      *i = SkipToSemi(*i);
      return;
    }
    ++*i;
    Access body_access = (is_struct || is_union) ? Access::kPublic : Access::kPrivate;
    // Parse into the local `info` (not yet in tu_.classes) so nested class
    // pushes cannot invalidate our pointer.
    ParseDeclarations(i, &info, body_access, /*until_brace=*/true);
    // `} trailing-declarators ;`
    *i = SkipToSemi(*i);
    tu_.classes.push_back(std::move(info));
    // Record the nested class as a member of the enclosing one.
    if (enclosing != nullptr) {
      enclosing->members.emplace(name, MemberInfo{enclosing_access, false, line});
    }
  }

  // ---- declarations and function definitions -------------------------------

  // Extracts the declared name when `paren` indexes the `(` opening a
  // parameter list. Returns "" when the tokens before `(` cannot be a
  // function name. Sets *name_tok to the name token's index.
  std::string ExtractName(size_t paren, size_t* name_tok) const {
    if (paren == 0) {
      return "";
    }
    size_t p = paren - 1;
    // operator forms: `operator<=` `operator()` `operator[]` `operator new`...
    if (IsIdent(p) && IsReserved(TextAt(p)) && TextAt(p) != "operator") {
      return "";
    }
    if (IsIdent(p)) {
      if (p > 0 && IsI(p - 1, "operator")) {
        *name_tok = p - 1;
        return "operator " + TextAt(p);  // operator new / operator bool
      }
      *name_tok = p;
      std::string name = TextAt(p);
      if (p > 0 && IsP(p - 1, "~")) {
        return "~" + name;
      }
      return name;
    }
    if (At(p).kind == TokKind::kPunct) {
      // `operator<(`, `operator==(`, `operator+(`, ...
      if (p > 0 && IsI(p - 1, "operator")) {
        *name_tok = p - 1;
        return "operator" + TextAt(p);
      }
      // `operator()(args)` — the scanned `(` is the *empty call parens*;
      // handled by the caller looking ahead. `operator[](args)` similar.
      if (TextAt(p) == "]" && p >= 2 && IsP(p - 1, "[") && IsI(p - 2, "operator")) {
        *name_tok = p - 2;
        return "operator[]";
      }
      if (TextAt(p) == ")" && p >= 2 && IsP(p - 1, "(") && IsI(p - 2, "operator")) {
        *name_tok = p - 2;
        return "operator()";
      }
    }
    return "";
  }

  // Walks `A::B::name` backwards from the name token, collecting qualifiers
  // outermost-first. Handles templated qualifiers: `RbTree<K>::Insert`.
  std::vector<std::string> QualifierChain(size_t name_tok) const {
    std::vector<std::string> chain;
    size_t p = name_tok;
    while (p >= 2 && IsP(p - 1, "::")) {
      size_t q = p - 2;
      if (At(q).kind == TokKind::kPunct && TextAt(q) == ">") {
        // Templated qualifier: scan back to the matching `<`, whose left
        // neighbour is the qualifier name.
        int depth = 1;
        size_t k = q;
        while (k > 0 && depth > 0) {
          --k;
          if (IsP(k, ">")) {
            ++depth;
          } else if (IsP(k, "<")) {
            --depth;
          } else if (TextAt(k) == ">>") {
            depth += 2;
          }
        }
        if (depth != 0 || k == 0 || !IsIdent(k - 1)) {
          break;
        }
        chain.insert(chain.begin(), TextAt(k - 1));
        p = k - 1;
        continue;
      }
      if (!IsIdent(q) || IsReserved(TextAt(q))) {
        break;
      }
      chain.insert(chain.begin(), TextAt(q));
      p = q;
    }
    return chain;
  }

  // From a depth-0 `:` after a parameter list (ctor initializer list), finds
  // the body `{`. Member initializers use braces too (`: tree_{...}`), so a
  // `{` only starts the body when the previous token is `)` or `}`.
  size_t FindCtorBody(size_t from) const {
    size_t i = from + 1;
    int depth = 0;
    while (!AtEnd(i)) {
      const std::string& t = TextAt(i);
      if (At(i).kind == TokKind::kPunct) {
        if (t == "(" || t == "[") {
          i = SkipMatched(i);
          continue;
        }
        if (t == "{") {
          if (depth == 0 && i > 0 && (IsP(i - 1, ")") || IsP(i - 1, "}"))) {
            return i;  // the body
          }
          i = SkipMatched(i);  // a member brace-init
          continue;
        }
        if (t == ";" || t == "}") {
          return i;  // malformed; bail
        }
      }
      ++i;
    }
    return i;
  }

  void RecordMethodDecl(ClassInfo* cls, Access access, const std::string& name, int line) {
    if (cls == nullptr || name.empty()) {
      return;
    }
    cls->members.emplace(name, MemberInfo{access, true, line});
  }

  void RecordField(ClassInfo* cls, Access access, size_t decl_start, size_t semi) {
    if (cls == nullptr) {
      return;
    }
    // The field name is the last identifier before the `;` (or before `=` /
    // `{` initializers), scanning back over bracket groups.
    size_t p = semi;
    while (p > decl_start) {
      --p;
      if (At(p).kind == TokKind::kPunct) {
        const std::string& t = TextAt(p);
        if (t == "]" || t == "}" || t == ")") {
          // Scan back to the matching opener.
          const std::string open = t == "]" ? "[" : t == "}" ? "{" : "(";
          int depth = 1;
          while (p > decl_start && depth > 0) {
            --p;
            if (TextAt(p) == t) {
              ++depth;
            } else if (TextAt(p) == open) {
              --depth;
            }
          }
          continue;
        }
        continue;
      }
      if (IsIdent(p) && !IsReserved(TextAt(p))) {
        cls->members.emplace(TextAt(p), MemberInfo{access, false, LineAt(p)});
        return;
      }
    }
  }

  // Handles one declaration starting at *i: a function definition (parse the
  // body), a function declaration (record the member), a field, or something
  // to skip. Leaves *i past the declaration.
  void ParseDeclOrFunction(size_t* i, ClassInfo* cls, Access access) {
    size_t start = *i;
    size_t j = start;
    int brackets = 0;
    size_t paren = static_cast<size_t>(-1);
    // Find the first top-level `(` of this declaration.
    while (!AtEnd(j)) {
      const std::string& t = TextAt(j);
      if (At(j).kind == TokKind::kPunct) {
        if (t == ";" || t == "}") {
          break;
        }
        if (t == "{") {
          break;  // brace before any paren: braced init or weird scope
        }
        if (t == "[") {
          ++brackets;
        } else if (t == "]") {
          --brackets;
        } else if (t == "(" && brackets == 0) {
          paren = j;
          break;
        } else if (t == "<" && j > start && IsIdent(j - 1) && !IsI(j - 1, "operator") &&
                   !IsReserved(TextAt(j - 1))) {
          j = SkipAngles(j);
          continue;
        } else if (t == "=") {
          break;  // initializer before any paren: a field
        }
      }
      ++j;
    }
    if (paren == static_cast<size_t>(-1)) {
      // No parameter list: plain field or statementish construct.
      if (IsP(j, ";")) {
        RecordField(cls, access, start, j);
        *i = j + 1;
        return;
      }
      if (IsP(j, "=")) {
        size_t semi = SkipToSemi(j);
        RecordField(cls, access, start, j);
        *i = semi;
        return;
      }
      if (IsP(j, "{")) {
        size_t past = SkipMatched(j);
        if (IsP(past, ";")) {
          RecordField(cls, access, start, j);  // brace-init field
          *i = past + 1;
          return;
        }
        *i = past;
        return;
      }
      *i = AtEnd(j) ? j : j + 1;
      return;
    }

    size_t name_tok = paren;
    std::string name = ExtractName(paren, &name_tok);
    // `operator()` declarations: the scanned paren is the `()` of the name;
    // the parameter list follows it.
    if (name == "operator()" && IsP(paren + 1, ")") && IsP(paren + 2, "(")) {
      paren += 2;
    }
    if (name.empty()) {
      // `(` not preceded by a name: parenthesized expression/initializer.
      *i = SkipToSemi(start);
      if (IsP(*i, "}")) {
        return;  // let the caller see the closing brace? no — caller loops
      }
      return;
    }
    size_t after_params = SkipMatched(paren);
    // Trailer: const/override/noexcept/-> type/= 0/= default...
    size_t k = after_params;
    while (!AtEnd(k)) {
      const std::string& t = TextAt(k);
      if (At(k).kind == TokKind::kIdent) {
        if (t == "const" || t == "noexcept" || t == "override" || t == "final" ||
            t == "mutable" || t == "volatile" || t == "try") {
          if (t == "noexcept" && IsP(k + 1, "(")) {
            k = SkipMatched(k + 1);
            continue;
          }
          ++k;
          continue;
        }
        break;  // next declaration's tokens — this was a declaration w/o ;?
      }
      if (IsP(k, "->")) {  // trailing return type
        ++k;
        while (!AtEnd(k) && !IsP(k, "{") && !IsP(k, ";") && !IsP(k, "=")) {
          if (IsP(k, "<")) {
            k = SkipAngles(k);
            continue;
          }
          ++k;
        }
        continue;
      }
      break;
    }
    if (IsP(k, ";")) {
      RecordMethodDecl(cls, access, name, LineAt(name_tok));
      *i = k + 1;
      return;
    }
    if (IsP(k, "=")) {
      // = 0; / = default; / = delete;  — declaration. But `x = f(args);` is a
      // statement-looking field init; either way record and skip to `;`.
      RecordMethodDecl(cls, access, name, LineAt(name_tok));
      *i = SkipToSemi(k);
      return;
    }
    if (IsP(k, ":")) {
      // Constructor initializer list.
      size_t body = FindCtorBody(k);
      if (IsP(body, "{")) {
        RecordMethodDecl(cls, access, name, LineAt(name_tok));
        FunctionDef fn = MakeFn(name, name_tok, cls);
        ParseBody(body, &fn);
        tu_.functions.push_back(std::move(fn));
        *i = SkipMatched(body);
        return;
      }
      *i = SkipToSemi(k);
      return;
    }
    if (IsP(k, "{")) {
      RecordMethodDecl(cls, access, name, LineAt(name_tok));
      FunctionDef fn = MakeFn(name, name_tok, cls);
      ParseBody(k, &fn);
      tu_.functions.push_back(std::move(fn));
      *i = SkipMatched(k);
      return;
    }
    // None of the above: probably an expression statement `foo(bar);` at
    // namespace scope (macro-ish) or a declarator list. Skip the statement.
    *i = SkipToSemi(k);
  }

  FunctionDef MakeFn(const std::string& name, size_t name_tok, ClassInfo* cls) {
    FunctionDef fn;
    fn.name = name;
    fn.file = tu_.file;
    fn.line = LineAt(name_tok);
    fn.has_body = true;
    fn.qualifier_chain = QualifierChain(name_tok);
    if (cls != nullptr) {
      fn.cls = cls->name;
    }
    return fn;
  }

  // ---- body fact extraction ------------------------------------------------

  // `body` indexes the `{`. Records calls, member accesses and
  // pointer-to-integer casts.
  void ParseBody(size_t body, FunctionDef* fn) {
    size_t end = SkipMatched(body);
    for (size_t i = body + 1; i + 1 < end; ++i) {
      const Token& t = At(i);
      if (t.kind == TokKind::kIdent) {
        const std::string& w = t.text;
        if (w == "reinterpret_cast" && IsP(i + 1, "<")) {
          size_t close = SkipAngles(i + 1);
          bool has_int = false;
          bool has_ptr = false;
          std::string spelled;
          for (size_t k = i + 2; k + 1 < close; ++k) {
            if (IsIdent(k) && IsIntTypeWord(TextAt(k))) {
              has_int = true;
            }
            if (IsP(k, "*")) {
              has_ptr = true;
            }
            if (!spelled.empty()) {
              spelled += " ";
            }
            spelled += TextAt(k);
          }
          if (has_int && !has_ptr) {
            fn->ptr_int_casts.push_back(PtrIntCast{t.line, "reinterpret_cast<" + spelled + ">"});
          }
          i = close - 1;
          continue;
        }
        if (w == "hash" && IsP(i + 1, "<")) {
          size_t close = SkipAngles(i + 1);
          for (size_t k = i + 2; k + 1 < close; ++k) {
            if (IsP(k, "*")) {
              fn->ptr_int_casts.push_back(PtrIntCast{t.line, "std::hash over a pointer type"});
              break;
            }
          }
          i = close - 1;
          continue;
        }
        if (IsReserved(w)) {
          continue;
        }
        // Call site?  ident (  — possibly ident<...> (
        size_t after = i + 1;
        if (IsP(after, "<")) {
          size_t close = SkipAngles(after);
          if (close != after + 1) {
            after = close;
          }
        }
        if (IsP(after, "(")) {
          CallSite cs;
          cs.callee = w;
          cs.line = t.line;
          // Qualifier: `Q::f(` (innermost).
          if (i >= 2 && IsP(i - 1, "::") && IsIdent(i - 2) && !IsReserved(TextAt(i - 2))) {
            cs.qualifier = TextAt(i - 2);
          } else if (i >= 1 && (IsP(i - 1, ".") || IsP(i - 1, "->"))) {
            cs.via_member = true;
            if (i >= 2 && (IsIdent(i - 2) || IsI(i - 2, "this"))) {
              // Plain `obj.f(` / `this->f(`; complex expressions like
              // `a[i].f(` or `g().f(` leave object empty.
              bool simple =
                  i < 3 || !(IsP(i - 3, "]") || IsP(i - 3, ")") || IsP(i - 3, ".") ||
                             IsP(i - 3, "->") || IsP(i - 3, "::"));
              cs.object = simple ? TextAt(i - 2) : "";
            }
          }
          fn->calls.push_back(std::move(cs));
          continue;
        }
        // Member access that is not a call: obj.field / obj->field.
        if (i >= 2 && (IsP(i - 1, ".") || IsP(i - 1, "->")) && IsIdent(i - 2) &&
            !IsReservedField(w)) {
          bool simple = i < 3 || !(IsP(i - 3, "]") || IsP(i - 3, ")") || IsP(i - 3, ".") ||
                                   IsP(i - 3, "->") || IsP(i - 3, "::"));
          if (simple && !IsReserved(TextAt(i - 2))) {
            fn->field_uses.push_back(FieldUse{TextAt(i - 2), w, t.line});
          }
        }
        continue;
      }
      if (t.kind == TokKind::kPunct && t.text == "(") {
        // C-style pointer-to-integer cast: `(uintptr_t) p`.
        if (IsIdent(i + 1) && IsP(i + 2, ")") &&
            (TextAt(i + 1) == "uintptr_t" || TextAt(i + 1) == "intptr_t")) {
          fn->ptr_int_casts.push_back(PtrIntCast{t.line, "(" + TextAt(i + 1) + ") cast"});
        }
      }
    }
  }

  LexResult lexed_;
  std::vector<const Token*> code_;
  TranslationUnit tu_;
};

}  // namespace

TranslationUnit ParseUnit(const std::string& file, std::string_view source) {
  return Parser(file, source).Run();
}

}  // namespace wcores::lint

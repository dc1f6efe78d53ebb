// A lightweight declaration/definition parser on top of the lint lexer.
//
// This is deliberately not a C++ front end: no preprocessor, no overload
// resolution, no types. It recovers exactly the structure the
// interprocedural rules (flow_rules.h) need —
//
//   - class/struct definitions with their base classes, member access
//     levels (public/protected/private sections), and friend declarations,
//   - function definitions with their owning class (in-class bodies and
//     out-of-line `Cls::Fn` definitions both), and
//   - per-body facts: call sites (with qualifier / member-object context),
//     non-call member accesses, and pointer-to-integer casts
//
// — and nothing else. Everything it cannot classify it skips statement-wise
// (to the next `;` or balanced brace), so an exotic construct degrades into
// a missing edge, never a desynced parse. The golden self-application test
// over src/ + bench/ is the regression net for that claim.
#ifndef SRC_TOOLS_LINT_AST_H_
#define SRC_TOOLS_LINT_AST_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/tools/lint/rules.h"

namespace wcores::lint {

enum class Access { kPublic, kProtected, kPrivate };

const char* AccessName(Access a);

// One call site inside a function body: `f(...)`, `Cls::f(...)`,
// `obj.f(...)`, `obj->f(...)`.
struct CallSite {
  std::string callee;       // Unqualified name ("PickNext", "operator<").
  std::string qualifier;    // Innermost explicit qualifier: "Cls" in Cls::f.
  bool via_member = false;  // obj.f / obj->f / this->f.
  std::string object;       // The identifier before . / -> when it is one
                            // ("sched_", "tree_", "this"); "" for complex
                            // expressions like a[i].f().
  int line = 0;
};

// A member access that is not a call: obj.field / obj->field.
struct FieldUse {
  std::string object;
  std::string field;
  int line = 0;
};

// A reinterpret_cast (or C-style cast) of a value to an integer type, or
// std::hash over a pointer type: the pointer-as-integer nondeterminism source
// of rule A1.
struct PtrIntCast {
  int line = 0;
  std::string detail;  // The spelled cast target / hashed type.
};

struct FunctionDef {
  std::string name;  // "PickNext", "operator()", "~Foo".
  // Owning class. Set directly for in-class bodies; for out-of-line
  // definitions SymbolTable::Finalize resolves it from qualifier_chain
  // (the last element naming a known class wins; pure namespace qualifiers
  // leave it empty).
  std::string cls;
  std::vector<std::string> qualifier_chain;  // As written: {"Scheduler"}.
  std::string file;
  int line = 0;
  bool has_body = false;  // Declarations are recorded for access maps only.
  std::vector<CallSite> calls;
  std::vector<FieldUse> field_uses;
  std::vector<PtrIntCast> ptr_int_casts;
};

struct MemberInfo {
  Access access = Access::kPublic;
  bool is_function = false;
  int line = 0;
};

struct ClassInfo {
  std::string name;  // Unqualified; nested classes are recorded flat.
  std::string file;
  int line = 0;
  bool is_struct = false;
  std::vector<std::string> bases;  // Unqualified base-class names.
  // Declared methods and fields by name. Overloads collapse into one entry
  // (first declaration wins), which is enough for access checking.
  std::map<std::string, MemberInfo> members;
  // Befriended class/function names. Recorded so tooling can surface them;
  // the A3 confinement rule deliberately does NOT model friendship — a
  // friend backdoor into mechanism state is exactly what it must flag.
  std::vector<std::string> friends;
};

struct TranslationUnit {
  std::string file;
  std::vector<FunctionDef> functions;
  std::vector<ClassInfo> classes;
  std::vector<AllowSite> allows;     // wc-lint allow() annotations.
  std::vector<std::string> errors;   // Lexer diagnostics, non-fatal.
};

// Parses one source file. Never fails: unparseable regions are skipped and
// reported in `errors`.
TranslationUnit ParseUnit(const std::string& file, std::string_view source);

}  // namespace wcores::lint

#endif  // SRC_TOOLS_LINT_AST_H_

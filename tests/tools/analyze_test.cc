// wc-analyze flow-rule tests: the declaration parser, symbol table, call
// graph, the A1, A3 and A4 interprocedural rules (directed in-memory
// scenarios and the golden fixture corpus), the self-application gate over
// the real src/ + bench/ tree, bugs seeded into real files (the
// "PickSpecific without a load_version bump" fold-order bug and a
// per-entity load read in the balancer), and strict-JSON validation of the
// SARIF writer.
//
// To regenerate the analyze golden after an intentional change, run this
// binary and copy the "actual" block from the failure message into
// tests/lint_fixtures/analyze_expected.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/telemetry/chrome_trace.h"
#include "src/tools/lint/ast.h"
#include "src/tools/lint/callgraph.h"
#include "src/tools/lint/driver.h"
#include "src/tools/lint/flow_rules.h"
#include "src/tools/lint/policy.h"
#include "src/tools/lint/symtab.h"

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

SymbolTable BuildTable(const std::vector<std::pair<std::string, std::string>>& sources) {
  SymbolTable syms;
  for (const auto& [file, src] : sources) {
    syms.AddUnit(ParseUnit(file, src));
  }
  syms.Finalize();
  return syms;
}

// Every rule at error severity for every analyzed file.
std::map<std::string, std::map<std::string, Severity>> AllErrors(const SymbolTable& syms) {
  std::map<std::string, std::map<std::string, Severity>> out;
  for (const TranslationUnit& tu : syms.units()) {
    for (const RuleInfo& r : RuleCatalog()) {
      out[tu.file][r.id] = Severity::kError;
    }
  }
  return out;
}

AnalyzeResult Analyze(const std::vector<std::pair<std::string, std::string>>& sources) {
  SymbolTable syms = BuildTable(sources);
  CallGraph graph(syms);
  return RunAnalysis(syms, graph, AnalyzeConfig{}, AllErrors(syms));
}

int CountRule(const AnalyzeResult& r, const std::string& rule, bool suppressed = false) {
  int n = 0;
  for (const Finding& f : r.findings) {
    n += (f.rule == rule && f.suppressed == suppressed) ? 1 : 0;
  }
  return n;
}

bool HasFinding(const AnalyzeResult& r, const std::string& rule, const std::string& file,
                const std::string& message_piece) {
  for (const Finding& f : r.findings) {
    if (f.rule == rule && f.file == file &&
        f.message.find(message_piece) != std::string::npos) {
      return true;
    }
  }
  return false;
}

const FunctionDef* FindFn(const TranslationUnit& tu, const std::string& name) {
  for (const FunctionDef& f : tu.functions) {
    if (f.name == name) {
      return &f;
    }
  }
  return nullptr;
}

// ---- Declaration parser ----------------------------------------------------

TEST(AnalyzeParser, ClassStructureAccessAndFriends) {
  TranslationUnit tu = ParseUnit("t.cc", R"(
    class Base {
     public:
      virtual void Hook() = 0;
    };
    class Mech : public Base, private Aux {
      int hidden_ = 0;
     public:
      void Open() {}
      int open_field;
     protected:
      void Guarded();
      friend class Buddy;
    };
    struct Pod { int x; double y; };
  )");
  ASSERT_EQ(tu.classes.size(), 3u);
  const ClassInfo& mech = tu.classes[1];
  EXPECT_EQ(mech.name, "Mech");
  ASSERT_EQ(mech.bases.size(), 2u);
  EXPECT_EQ(mech.bases[0], "Base");
  EXPECT_EQ(mech.bases[1], "Aux");
  EXPECT_EQ(mech.members.at("hidden_").access, Access::kPrivate);
  EXPECT_FALSE(mech.members.at("hidden_").is_function);
  EXPECT_EQ(mech.members.at("Open").access, Access::kPublic);
  EXPECT_TRUE(mech.members.at("Open").is_function);
  EXPECT_EQ(mech.members.at("open_field").access, Access::kPublic);
  EXPECT_EQ(mech.members.at("Guarded").access, Access::kProtected);
  ASSERT_EQ(mech.friends.size(), 1u);
  EXPECT_EQ(mech.friends[0], "Buddy");
  // struct members default public.
  EXPECT_EQ(tu.classes[2].members.at("x").access, Access::kPublic);
  EXPECT_TRUE(tu.classes[2].is_struct);
}

TEST(AnalyzeParser, OutOfLineDefinitionsKeepQualifiers) {
  TranslationUnit tu = ParseUnit("t.cc", R"(
    namespace outer {
    int Free(int a) { return a; }
    double Mech::Load(long now) const { return Helper(now); }
    void RbTree<Key>::Insert(Key* k) { size_ += 1; }
    }  // namespace outer
  )");
  ASSERT_EQ(tu.functions.size(), 3u);
  EXPECT_EQ(tu.functions[0].name, "Free");
  EXPECT_TRUE(tu.functions[0].qualifier_chain.empty());
  EXPECT_EQ(tu.functions[1].name, "Load");
  ASSERT_EQ(tu.functions[1].qualifier_chain.size(), 1u);
  EXPECT_EQ(tu.functions[1].qualifier_chain[0], "Mech");
  EXPECT_EQ(tu.functions[2].name, "Insert");
  ASSERT_EQ(tu.functions[2].qualifier_chain.size(), 1u);
  EXPECT_EQ(tu.functions[2].qualifier_chain[0], "RbTree");
}

TEST(AnalyzeParser, BodyFactsCallsFieldsAndOps) {
  TranslationUnit tu = ParseUnit("t.cc", R"(
    void Fn(Obj* o, Obj& q) {
      Plain(1);
      Cls::Qualified(2);
      o->Member(3);
      q.Dotted(4);
      this->Own(5);
      int v = o->field + q.other;
      char* p = new char[8];
      auto h = std::hash<void*>{}(nullptr);
      uint64_t u = reinterpret_cast<uint64_t>(p);
      void* back = reinterpret_cast<void*>(u);
    }
  )");
  ASSERT_EQ(tu.functions.size(), 1u);
  const FunctionDef& fn = tu.functions[0];
  ASSERT_GE(fn.calls.size(), 5u);
  EXPECT_EQ(fn.calls[0].callee, "Plain");
  EXPECT_FALSE(fn.calls[0].via_member);
  EXPECT_EQ(fn.calls[1].callee, "Qualified");
  EXPECT_EQ(fn.calls[1].qualifier, "Cls");
  EXPECT_EQ(fn.calls[2].callee, "Member");
  EXPECT_TRUE(fn.calls[2].via_member);
  EXPECT_EQ(fn.calls[2].object, "o");
  EXPECT_EQ(fn.calls[3].object, "q");
  EXPECT_EQ(fn.calls[4].object, "this");
  bool saw_field = false, saw_other = false;
  for (const FieldUse& fu : fn.field_uses) {
    saw_field = saw_field || (fu.object == "o" && fu.field == "field");
    saw_other = saw_other || (fu.object == "q" && fu.field == "other");
  }
  EXPECT_TRUE(saw_field);
  EXPECT_TRUE(saw_other);
  // hash over a pointer + the int-target reinterpret_cast; the cast BACK to
  // a pointer type is not a pointer-as-integer source.
  EXPECT_EQ(fn.ptr_int_casts.size(), 2u);
}

TEST(AnalyzeParser, CtorInitializerListFindsBody) {
  TranslationUnit tu = ParseUnit("t.cc", R"(
    class Widget {
     public:
      Widget(int n) : size_{n}, items_(n, 0) { Validate(); }
     private:
      void Validate() {}
      int size_;
      std::vector<int> items_;
    };
  )");
  const FunctionDef* ctor = FindFn(tu, "Widget");
  ASSERT_NE(ctor, nullptr);
  ASSERT_EQ(ctor->calls.size(), 1u);
  EXPECT_EQ(ctor->calls[0].callee, "Validate");
  EXPECT_EQ(ctor->cls, "Widget");
}

TEST(AnalyzeParser, AttributesRawStringsAndSeparatorsDoNotDesync) {
  TranslationUnit tu = ParseUnit("t.cc", R"xx(
    class Api {
     public:
      [[nodiscard]] int Get() { return 0x1F'FF; }
      [[deprecated("use Get()")]] int Old() { return Get(); }
      const char* Text() { return R"(calls Inside() here don't count)"; }
    };
  )xx");
  ASSERT_EQ(tu.classes.size(), 1u);
  EXPECT_EQ(tu.functions.size(), 3u);
  const FunctionDef* old_fn = FindFn(tu, "Old");
  ASSERT_NE(old_fn, nullptr);
  ASSERT_EQ(old_fn->calls.size(), 1u);
  EXPECT_EQ(old_fn->calls[0].callee, "Get");
  const FunctionDef* text = FindFn(tu, "Text");
  ASSERT_NE(text, nullptr);
  EXPECT_TRUE(text->calls.empty());  // Inside() is string content.
}

TEST(AnalyzeParser, AllowAnnotationsAreCollected) {
  TranslationUnit tu = ParseUnit("t.cc",
                                 "// wc-lint"
                                 ": allow(A4 sanctioned fold chain)\n"
                                 "int x;\n");
  ASSERT_EQ(tu.allows.size(), 1u);
  EXPECT_EQ(tu.allows[0].rule, "A4");
  EXPECT_EQ(tu.allows[0].line, 1);
}

// ---- Symbol table ----------------------------------------------------------

TEST(AnalyzeSymtab, ResolvesOutOfLineOwnersAndInheritance) {
  SymbolTable syms = BuildTable({
      {"a.h", R"(
        class Base { public: void Shared(); };
        class Derived : public Base { public: void Own(); private: int secret_; };
      )"},
      {"a.cc", R"(
        void Base::Shared() {}
        void Derived::Own() { Shared(); }
      )"},
  });
  ASSERT_EQ(syms.functions().size(), 2u);
  EXPECT_EQ(syms.functions()[0].def->cls, "Base");
  EXPECT_EQ(syms.functions()[1].def->cls, "Derived");
  EXPECT_TRUE(syms.DerivesFrom("Derived", "Base"));
  EXPECT_TRUE(syms.DerivesFrom("Derived", "Derived"));
  EXPECT_FALSE(syms.DerivesFrom("Base", "Derived"));
  std::string found_in;
  const MemberInfo* mi = syms.FindMember("Derived", "Shared", &found_in);
  ASSERT_NE(mi, nullptr);
  EXPECT_EQ(found_in, "Base");
  EXPECT_EQ(syms.FindMember("Derived", "secret_")->access, Access::kPrivate);
  EXPECT_EQ(syms.FindMember("Derived", "nope"), nullptr);
}

TEST(AnalyzeCallGraph, ResolvesEdgesAndReachability) {
  SymbolTable syms = BuildTable({{"g.cc", R"(
    struct Leaf { void Work() {} };
    struct Mid {
      void Step() { leaf_.Work(); }
      Leaf leaf_;
    };
    void Root() { Mid m; m.Step(); }
    void Unrelated() {}
  )"}});
  CallGraph graph(syms);
  // Root -> Step -> Work, Unrelated disconnected.
  int root = -1, work = -1, unrelated = -1;
  for (const FnRef& r : syms.functions()) {
    if (r.def->name == "Root") root = r.id;
    if (r.def->name == "Work") work = r.id;
    if (r.def->name == "Unrelated") unrelated = r.id;
  }
  ASSERT_GE(root, 0);
  Reach fwd = graph.Forward({root});
  EXPECT_TRUE(fwd.in_set[work]);
  EXPECT_FALSE(fwd.in_set[unrelated]);
  Reach back = graph.Backward({work});
  EXPECT_TRUE(back.in_set[root]);
  EXPECT_EQ(graph.Chain(back, root), "Root -> Mid::Step -> Leaf::Work");
}

// ---- Directed flow-rule scenarios ------------------------------------------

TEST(AnalyzeRules, A1TaintCrossesTranslationUnits) {
  AnalyzeResult r = Analyze({
      {"fold.h", "struct Fold { void Mix(unsigned long v) { s ^= v; } unsigned long s = 0; };"},
      {"salt.h", "inline int Salt() { return getenv(\"S\") != nullptr; }"},
      {"probe.cc", R"(
        #include "fold.h"
        struct Probe {
          void Observe(void* p) {
            f.Mix(reinterpret_cast<unsigned long>(p));
            f.Mix(static_cast<unsigned long>(Salt()));
          }
          Fold f;
        };
      )"},
  });
  // The cast in trace-affecting code, and the env read one call away.
  EXPECT_TRUE(HasFinding(r, "A1", "probe.cc", "pointer-as-integer"));
  EXPECT_TRUE(HasFinding(r, "A1", "salt.h", "getenv"));
  EXPECT_EQ(r.errors, 2);
}

TEST(AnalyzeRules, A1IgnoresSourcesOffTheTaintPath) {
  AnalyzeResult r = Analyze({
      {"t.cc", R"(
        struct Fold { void Mix(unsigned long v) { s ^= v; } unsigned long s = 0; };
        struct Probe {
          void Observe(unsigned long id) { f.Mix(id); }
          Fold f;
        };
        bool WantColor() { return getenv("COLOR") != nullptr; }
      )"},
  });
  EXPECT_EQ(CountRule(r, "A1"), 0);
  EXPECT_EQ(r.errors, 0);
}

TEST(AnalyzeRules, A3FlagsMechanismBackdoorsButNotPublicUse) {
  const char* mech = R"(
    class SchedPolicy { public: virtual int SelectWakeCpu(int prev) = 0; };
    class Scheduler {
     public:
      int CfsSelectWakeCpu(int prev) { return prev; }
     private:
      friend class Backdoor;
      int IdleBalance(int cpu) { return cpu; }
      int cpus_ = 0;
    };
  )";
  AnalyzeResult bad = Analyze({
      {"mech.h", mech},
      {"backdoor.cc", R"(
        #include "mech.h"
        class Backdoor : public SchedPolicy {
         public:
          int SelectWakeCpu(int prev) override {
            sched_->cpus_ += 1;
            return Sneak(prev);
          }
         private:
          // Indirection: the helper, not the hook, crosses the boundary.
          int Sneak(int prev) { return sched_->IdleBalance(prev); }
          Scheduler* sched_ = nullptr;
        };
      )"},
  });
  EXPECT_TRUE(HasFinding(bad, "A3", "backdoor.cc", "private mechanism member"));
  EXPECT_TRUE(HasFinding(bad, "A3", "backdoor.cc", "private mechanism field Scheduler::cpus_"));
  EXPECT_EQ(bad.errors, 2);  // Friendship deliberately does not excuse it.

  AnalyzeResult good = Analyze({
      {"mech.h", mech},
      {"polite.cc", R"(
        #include "mech.h"
        class Polite : public SchedPolicy {
         public:
          int SelectWakeCpu(int prev) override { return sched_->CfsSelectWakeCpu(prev); }
         private:
          Scheduler* sched_ = nullptr;
        };
      )"},
  });
  EXPECT_EQ(CountRule(good, "A3"), 0);
  EXPECT_EQ(good.errors, 0);
}

TEST(AnalyzeRules, A4FlagsUnbumpedTreeMutationAndEntityReads) {
  const char* tree = R"(
    struct SchedEntity { double ValueAt(long now) const { return 0; } };
    struct RbTree { void Erase(SchedEntity* se) {} void Insert(SchedEntity* se) {} };
  )";
  AnalyzeResult bad = Analyze({
      {"tree.h", tree},
      {"rq.cc", R"(
        #include "tree.h"
        class CfsRunqueue {
         public:
          void PickSpecific(SchedEntity* se) { tree_.Erase(se); }
         private:
          void BumpLoadVersion() {}
          RbTree tree_;
        };
        class Scheduler {
         public:
          void PickNext(long now) { rq_.PickSpecific(nullptr); }
          double BalanceDomain(long now) { return e_.ValueAt(now); }
         private:
          CfsRunqueue rq_;
          SchedEntity e_;
        };
      )"},
  });
  EXPECT_TRUE(HasFinding(bad, "A4", "rq.cc", "without a BumpLoadVersion()"));
  EXPECT_TRUE(HasFinding(bad, "A4", "rq.cc", "per-entity decayed-load read ValueAt()"));
  EXPECT_EQ(bad.errors, 2);

  AnalyzeResult good = Analyze({
      {"tree.h", tree},
      {"rq.cc", R"(
        #include "tree.h"
        class CfsRunqueue {
         public:
          void PickSpecific(SchedEntity* se) {
            BumpLoadVersion();
            tree_.Erase(se);
          }
         private:
          void BumpLoadVersion() {}
          RbTree tree_;
        };
        class Scheduler {
         public:
          void PickNext(long now) { rq_.PickSpecific(nullptr); }
         private:
          CfsRunqueue rq_;
        };
      )"},
  });
  EXPECT_EQ(CountRule(good, "A4"), 0);
}

TEST(AnalyzeRules, AllowAnnotationSuppressesWithReason) {
  AnalyzeResult r = Analyze({
      {"t.cc", R"(
        class Scheduler {
         public:
          int BalanceDomain(long now) {
            // wc-lint: allow(A4 sanctioned fold chain; reads one entity in setup order)
            return probe_.ValueAt(now) > 0;
          }
         private:
          Load probe_;
        };
      )"},
  });
  EXPECT_EQ(CountRule(r, "A4", /*suppressed=*/false), 0);
  EXPECT_EQ(CountRule(r, "A4", /*suppressed=*/true), 1);
  EXPECT_EQ(r.errors, 0);
  EXPECT_EQ(r.suppressed, 1);
  EXPECT_EQ(r.findings[0].suppress_reason,
            "sanctioned fold chain; reads one entity in setup order");
}

// ---- Golden corpus ---------------------------------------------------------

TEST(AnalyzeGolden, FixtureCorpus) {
  fs::path dir = WC_LINT_FIXTURE_DIR;
  Policy policy = ParsePolicy(ReadFileOrDie(dir / ".wc-lint.policy"));
  ASSERT_TRUE(policy.errors.empty());

  std::vector<fs::path> fixtures;
  for (const auto& e : fs::directory_iterator(dir)) {
    std::string base = e.path().filename().string();
    if (e.path().extension() == ".cc" && base.rfind("a", 0) == 0) {
      fixtures.push_back(e.path());
    }
  }
  std::sort(fixtures.begin(), fixtures.end());
  ASSERT_EQ(fixtures.size(), 6u) << "one bad + one good fixture per A rule";

  // Each fixture is a standalone program: its own table, graph, and run.
  std::string actual;
  for (const fs::path& f : fixtures) {
    std::string base = f.filename().string();
    SymbolTable syms = BuildTable({{base, ReadFileOrDie(f)}});
    CallGraph graph(syms);
    std::map<std::string, std::map<std::string, Severity>> sev;
    sev[base] = ResolveSeverities({&policy}, /*defaults=*/{}, base);
    AnalyzeResult r = RunAnalysis(syms, graph, AnalyzeConfig{}, sev);
    actual += "== " + base + "\n";
    for (const Finding& fi : r.findings) {
      actual += FormatFinding(fi) + "\n";
    }
    actual += "-- errors=" + std::to_string(r.errors) +
              " warnings=" + std::to_string(r.warnings) +
              " suppressed=" + std::to_string(r.suppressed) + "\n";
  }

  std::string expected = ReadFileOrDie(dir / "analyze_expected.txt");
  EXPECT_EQ(expected, actual)
      << "----- actual (copy into analyze_expected.txt if intentional) -----\n"
      << actual;
}

// ---- Self-application over the real tree -----------------------------------

struct RealTree {
  SymbolTable syms;
  std::map<std::string, std::map<std::string, Severity>> severities;
};

// Parses src/ + bench/ exactly like the wc-analyze driver (same file walk,
// same policy chains). `mutate` may rewrite one file's source on the way in.
RealTree LoadRealTree(
    const std::function<void(const std::string& file, std::string* src)>& mutate = nullptr) {
  fs::path root = WC_ANALYZE_SOURCE_DIR;
  std::vector<std::string> io_errors;
  std::vector<fs::path> files;
  CollectFiles(root / "src", &files, &io_errors);
  CollectFiles(root / "bench", &files, &io_errors);
  EXPECT_TRUE(io_errors.empty());
  EXPECT_GE(files.size(), 100u);
  std::stable_sort(files.begin(), files.end(), [](const fs::path& a, const fs::path& b) {
    bool ah = a.extension() == ".h" || a.extension() == ".hpp";
    bool bh = b.extension() == ".h" || b.extension() == ".hpp";
    return ah && !bh;
  });
  RealTree tree;
  PolicyCache policies;
  for (const fs::path& file : files) {
    bool ok = false;
    std::string source = ReadFileToString(file, &ok);
    EXPECT_TRUE(ok) << file;
    std::string name = file.generic_string();
    if (mutate) {
      mutate(name, &source);
    }
    std::vector<const Policy*> chain = PolicyChainFor(file, root, &policies, &io_errors);
    tree.severities[name] =
        ResolveSeverities(chain, DefaultSeverities(), file.filename().string());
    tree.syms.AddUnit(ParseUnit(name, source));
  }
  tree.syms.Finalize();
  return tree;
}

TEST(AnalyzeSelfApplication, RealTreeIsCleanAndNontrivial) {
  RealTree tree = LoadRealTree();
  CallGraph graph(tree.syms);
  AnalyzeResult r = RunAnalysis(tree.syms, graph, AnalyzeConfig{}, tree.severities);
  std::string transcript;
  for (const Finding& f : r.findings) {
    if (!f.suppressed) {
      transcript += FormatFinding(f) + "\n";
    }
  }
  EXPECT_EQ(r.errors, 0) << transcript;
  EXPECT_EQ(r.warnings, 0) << transcript;
  // The run must be a real analysis, not a degenerate parse: the tree has
  // hundreds of function definitions and the documented waivers (the
  // sanctioned A4 fold chain, sweep wall-clock A1s).
  EXPECT_GE(r.functions, 500);
  EXPECT_GE(r.suppressed, 10);
  EXPECT_EQ(CountRule(r, "A3"), 0);  // Shipped policies honor the boundary.
}

TEST(AnalyzeSelfApplication, InjectedBackdoorPolicyIsFlagged) {
  // The real tree plus one in-memory TU: a SchedPolicy subclass poking
  // Scheduler internals. The real SchedPolicy/Scheduler definitions are the
  // ones being protected, so this is the directed A3 regression.
  RealTree tree = LoadRealTree();
  const char* backdoor = R"(
    #include "src/core/scheduler.h"
    #include "src/modsched/sched_policy.h"
    namespace wcores {
    class BackdoorPolicy : public SchedPolicy {
     public:
      CpuId SelectWakeCpu(Time now, Scheduler* sched, ThreadId tid, CpuId prev) {
        sched->IdleBalance(now, prev);
        return static_cast<CpuId>(sched->load_cache_value_.size());
      }
    };
    }  // namespace wcores
  )";
  tree.syms.AddUnit(ParseUnit("injected/backdoor_policy.cc", backdoor));
  tree.severities["injected/backdoor_policy.cc"] = DefaultSeverities();
  tree.syms.Finalize();
  CallGraph graph(tree.syms);
  AnalyzeResult r = RunAnalysis(tree.syms, graph, AnalyzeConfig{}, tree.severities);
  EXPECT_TRUE(HasFinding(r, "A3", "injected/backdoor_policy.cc",
                         "mechanism member Scheduler::IdleBalance"));
  EXPECT_TRUE(HasFinding(r, "A3", "injected/backdoor_policy.cc",
                         "mechanism field Scheduler::load_cache_value_"));
  // The real policies stay clean even with the backdoor in the table.
  for (const Finding& f : r.findings) {
    if (f.rule == "A3") {
      EXPECT_EQ(f.file, "injected/backdoor_policy.cc") << FormatFinding(f);
    }
  }
}

TEST(AnalyzeSelfApplication, SeededPickSpecificFoldBugIsCaught) {
  // Reintroduce the PR 7 bug: PickSpecific picking a non-leftmost entity
  // without bumping load_version. The mutation deletes the bump, exactly
  // what the original regression looked like before the fix.
  const std::string kBump =
      "  if (se != tree_.Leftmost()) {\n"
      "    BumpLoadVersion();\n"
      "  }\n";
  bool mutated = false;
  RealTree tree = LoadRealTree([&](const std::string& file, std::string* src) {
    if (file.find("core/cfs_rq.cc") == std::string::npos) {
      return;
    }
    size_t pos = src->find(kBump);
    ASSERT_NE(pos, std::string::npos)
        << "cfs_rq.cc no longer contains the PickSpecific bump guard; update this test";
    src->erase(pos, kBump.size());
    mutated = true;
  });
  ASSERT_TRUE(mutated);
  CallGraph graph(tree.syms);
  AnalyzeResult r = RunAnalysis(tree.syms, graph, AnalyzeConfig{}, tree.severities);
  bool caught = false;
  for (const Finding& f : r.findings) {
    if (f.rule == "A4" && !f.suppressed && f.file.find("cfs_rq.cc") != std::string::npos &&
        f.message.find("PickSpecific") != std::string::npos &&
        f.message.find("without a BumpLoadVersion()") != std::string::npos) {
      caught = true;
    }
  }
  EXPECT_TRUE(caught) << "A4 must flag the seeded fold-order bug";
  EXPECT_EQ(r.errors, 1);  // Exactly the seeded bug; nothing else regressed.
}

// Seeds `insert` into the real tree right after the first occurrence of
// `after` in the file whose path contains `file_piece`, and returns the
// analysis of the mutated tree.
AnalyzeResult AnalyzeSeeded(const std::string& file_piece, const std::string& after,
                            const std::string& insert) {
  bool mutated = false;
  RealTree tree = LoadRealTree([&](const std::string& file, std::string* src) {
    if (file.find(file_piece) == std::string::npos) {
      return;
    }
    size_t pos = src->find(after);
    ASSERT_NE(pos, std::string::npos) << file << " no longer contains the seed anchor";
    src->insert(pos + after.size(), insert);
    mutated = true;
  });
  EXPECT_TRUE(mutated) << "no file matched " << file_piece;
  CallGraph graph(tree.syms);
  return RunAnalysis(tree.syms, graph, AnalyzeConfig{}, tree.severities);
}

// The balancer must read loads through RqLoad/ComputeGroupStats: a per-entity
// decayed-load read seeded into BalanceDomain is an A4 error.
TEST(AnalyzeSelfApplication, SeededBalancerEntityLoadReadIsCaught) {
  AnalyzeResult r = AnalyzeSeeded(
      "core/scheduler_balance.cc",
      "int Scheduler::BalanceDomain(Time now, CpuId cpu, SchedDomain& sd, ConsideredKind kind) {\n",
      "  double probe = entities_[0].load.ValueAt(now);\n");
  bool caught = false;
  for (const Finding& f : r.findings) {
    caught = caught || (f.rule == "A4" && !f.suppressed && f.severity == Severity::kError &&
                        f.file.find("scheduler_balance.cc") != std::string::npos &&
                        f.message.find("ValueAt()") != std::string::npos);
  }
  EXPECT_TRUE(caught) << "A4 must flag a per-entity load read in BalanceDomain";
  EXPECT_EQ(r.errors, 1);
}

// ---- SARIF writer ----------------------------------------------------------

TEST(AnalyzeSarif, StrictJsonWithSchemaRulesAndSuppressions) {
  std::vector<Finding> findings;
  Finding f1;
  f1.file = "a.cc";
  f1.line = 3;
  f1.rule = "A1";
  f1.severity = Severity::kError;
  f1.message = "quoted \"msg\" with\nnewline and \\ backslash";
  findings.push_back(f1);
  Finding f2;
  f2.file = "b.cc";
  f2.line = 9;
  f2.rule = "D2";
  f2.severity = Severity::kWarn;
  f2.suppressed = true;
  f2.suppress_reason = "bounded by cpus";
  findings.push_back(f2);

  fs::path out = fs::path(::testing::TempDir()) / "wc_analyze_test.sarif";
  ASSERT_TRUE(WriteSarifReport(out.string(), findings));

  wcores::JsonValue doc;
  std::string error;
  ASSERT_TRUE(wcores::ParseJson(ReadFileOrDie(out), &doc, &error)) << error;
  ASSERT_EQ(doc.type, wcores::JsonValue::Type::kObject);
  ASSERT_NE(doc.Find("$schema"), nullptr);
  ASSERT_NE(doc.Find("version"), nullptr);
  EXPECT_EQ(doc.Find("version")->str, "2.1.0");
  const auto* runs = doc.Find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->array.size(), 1u);
  const auto& run = runs->array[0];
  const auto* driver = run.Find("tool")->Find("driver");
  ASSERT_NE(driver, nullptr);
  EXPECT_EQ(driver->Find("name")->str, "wc-analyze");
  EXPECT_EQ(driver->Find("rules")->array.size(), RuleCatalog().size());
  const auto* results = run.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->array.size(), 2u);
  EXPECT_EQ(results->array[0].Find("ruleId")->str, "A1");
  EXPECT_EQ(results->array[0].Find("level")->str, "error");
  EXPECT_EQ(results->array[0].Find("message")->Find("text")->str,
            "quoted \"msg\" with\nnewline and \\ backslash");
  const auto* loc = results->array[0].Find("locations");
  ASSERT_EQ(loc->array.size(), 1u);
  EXPECT_EQ(loc->array[0].Find("physicalLocation")->Find("region")->Find("startLine")->number,
            3.0);
  const auto* supp = results->array[1].Find("suppressions");
  ASSERT_NE(supp, nullptr);
  ASSERT_EQ(supp->array.size(), 1u);
  EXPECT_EQ(supp->array[0].Find("justification")->str, "bounded by cpus");
}

}  // namespace
}  // namespace wcores::lint

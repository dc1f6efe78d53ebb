// wc-analyze command line driver.
//
//   wc-analyze [--root=DIR] [--sarif=FILE] [--verbose] PATH...
//
// PATHs are files or directories (directories are walked recursively for
// .h/.hpp/.cc/.cpp, in sorted order so output is stable). Each file gets the
// token rules D1..D4 (rules.h). Severities come from the .wc-lint.policy
// files found between --root (default: the current directory) and each
// source file; see policy.h for the format and the rule catalogue. One
// report covers every file; --sarif writes it as SARIF 2.1.0.
//
// Exit status: 1 if any unsuppressed error-severity finding (including the
// SUPPRESS meta-rule guarding malformed annotations) was emitted, 2 on
// IO/flag/policy errors, else 0.
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "src/tools/lint/driver.h"
#include "src/tools/lint/policy.h"
#include "src/tools/lint/rules.h"

namespace wcores::lint {
namespace {

namespace fs = std::filesystem;

int Main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string sarif_path;
  std::string root = ".";
  bool verbose = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--sarif=", 0) == 0) {
      sarif_path = arg.substr(8);
    } else if (arg.rfind("--root=", 0) == 0) {
      root = arg.substr(7);
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--help") {
      std::fprintf(stderr,
                   "usage: wc-analyze [--root=DIR] [--sarif=FILE] [--verbose] PATH...\n"
                   "Rules:\n");
      for (const RuleInfo& r : RuleCatalog()) {
        std::fprintf(stderr, "  %s  %s\n", r.id, r.summary);
      }
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "wc-analyze: unknown flag '%s' (try --help)\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty()) {
    std::fprintf(stderr, "wc-analyze: no paths given (try --help)\n");
    return 2;
  }

  std::vector<std::string> io_errors;
  std::vector<fs::path> files;
  for (const std::string& p : paths) {
    CollectFiles(p, &files, &io_errors);
  }

  PolicyCache policies;
  const std::map<std::string, Severity> defaults = DefaultSeverities();
  std::vector<Finding> findings;
  int errors = 0, warnings = 0, suppressed = 0;
  for (const fs::path& file : files) {
    bool ok = false;
    std::string source = ReadFileToString(file, &ok);
    if (!ok) {
      io_errors.push_back(file.string() + ": unreadable");
      continue;
    }
    std::string name = file.generic_string();
    std::vector<const Policy*> chain = PolicyChainFor(file, root, &policies, &io_errors);
    FileLintResult result = LintSource(
        name, source, ResolveSeverities(chain, defaults, file.filename().string()));
    errors += result.errors;
    warnings += result.warnings;
    suppressed += result.suppressed;
    findings.insert(findings.end(), result.findings.begin(), result.findings.end());
  }

  for (const Finding& f : findings) {
    if (!f.suppressed || verbose) {
      std::printf("%s\n", FormatFinding(f).c_str());
    }
  }
  for (const std::string& e : io_errors) {
    std::fprintf(stderr, "wc-analyze: %s\n", e.c_str());
  }
  if (!sarif_path.empty() && !WriteSarifReport(sarif_path, findings)) {
    std::fprintf(stderr, "wc-analyze: cannot write %s\n", sarif_path.c_str());
    return 2;
  }
  std::printf("wc-analyze: %zu files, %d errors, %d warnings, %d suppressed\n", files.size(),
              errors, warnings, suppressed);
  if (!io_errors.empty()) {
    return 2;
  }
  return errors > 0 ? 1 : 0;
}

}  // namespace
}  // namespace wcores::lint

int main(int argc, char** argv) { return wcores::lint::Main(argc, argv); }

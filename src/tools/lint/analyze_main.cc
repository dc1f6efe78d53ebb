// wc-analyze command line driver.
//
//   wc-analyze PATH...
//
// PATHs are files or directories (directories are walked recursively for
// .h/.hpp/.cc/.cpp, in sorted order so output is stable). Each file gets the
// token rules D1..D4 (rules.h), every finding an error; --help lists them.
//
// Exit status: 1 if any unsuppressed finding (including the SUPPRESS
// meta-rule guarding malformed annotations) was emitted, 2 on IO/flag
// errors, else 0.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/tools/lint/rules.h"

namespace wcores::lint {
namespace {

namespace fs = std::filesystem;

bool HasSourceExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

std::string ReadFileToString(const fs::path& p, bool* ok) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    *ok = false;
    return {};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  *ok = true;
  return buf.str();
}

// Recursively collects .h/.hpp/.cc/.cpp under `p` (or `p` itself when it is
// a file), in sorted order so every report is stable.
void CollectFiles(const fs::path& p, std::vector<fs::path>* out,
                  std::vector<std::string>* errors) {
  std::error_code ec;
  if (fs::is_directory(p, ec)) {
    std::vector<fs::path> entries;
    for (const fs::directory_entry& e : fs::directory_iterator(p, ec)) {
      entries.push_back(e.path());
    }
    if (ec) {
      errors->push_back(p.string() + ": " + ec.message());
      return;
    }
    // directory_iterator order is unspecified; sort so diagnostics and the
    // golden tests are stable (the analyzer practices what D1/D2 preach).
    std::sort(entries.begin(), entries.end());
    for (const fs::path& e : entries) {
      if (fs::is_directory(e, ec)) {
        CollectFiles(e, out, errors);
      } else if (HasSourceExtension(e)) {
        out->push_back(e);
      }
    }
    return;
  }
  if (fs::exists(p, ec)) {
    out->push_back(p);
  } else {
    errors->push_back(p.string() + ": no such file or directory");
  }
}

int Main(int argc, char** argv) {
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help") {
      std::fprintf(stderr, "usage: wc-analyze PATH...\nRules:\n");
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

  int errors = 0, suppressed = 0;
  for (const fs::path& file : files) {
    bool ok = false;
    std::string source = ReadFileToString(file, &ok);
    if (!ok) {
      io_errors.push_back(file.string() + ": unreadable");
      continue;
    }
    FileLintResult result = LintSource(file.generic_string(), source);
    errors += result.errors;
    suppressed += result.suppressed;
    for (const Finding& f : result.findings) {
      if (!f.suppressed) {
        std::printf("%s\n", FormatFinding(f).c_str());
      }
    }
  }

  for (const std::string& e : io_errors) {
    std::fprintf(stderr, "wc-analyze: %s\n", e.c_str());
  }
  std::printf("wc-analyze: %zu files, %d errors, %d suppressed\n", files.size(), errors,
              suppressed);
  if (!io_errors.empty()) {
    return 2;
  }
  return errors > 0 ? 1 : 0;
}

}  // namespace
}  // namespace wcores::lint

int main(int argc, char** argv) { return wcores::lint::Main(argc, argv); }

#include "src/tools/lint/driver.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace wcores::lint {

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
    // directory_iterator order is unspecified; sort so diagnostics, reports,
    // and the golden tests are stable (the analyzer practices what D1/D2
    // preach).
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

const Policy* PolicyCache::ForDirectory(const fs::path& dir, std::vector<std::string>* errors) {
  std::string key = dir.string();
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    return it->second.has_value() ? &*it->second : nullptr;
  }
  std::optional<Policy> loaded;
  fs::path file = dir / kPolicyFileName;
  std::error_code ec;
  if (fs::exists(file, ec)) {
    bool ok = false;
    std::string text = ReadFileToString(file, &ok);
    if (ok) {
      loaded = ParsePolicy(text);
      for (const std::string& e : loaded->errors) {
        errors->push_back(file.string() + ": " + e);
      }
    } else {
      errors->push_back(file.string() + ": unreadable");
    }
  }
  auto [pos, _] = cache_.emplace(std::move(key), std::move(loaded));
  return pos->second.has_value() ? &*pos->second : nullptr;
}

std::vector<const Policy*> PolicyChainFor(const fs::path& file, const fs::path& root,
                                          PolicyCache* cache,
                                          std::vector<std::string>* errors) {
  std::vector<fs::path> dirs;
  fs::path dir = fs::absolute(file).lexically_normal().parent_path();
  fs::path stop = fs::absolute(root).lexically_normal();
  for (;;) {
    dirs.push_back(dir);
    if (dir == stop || dir == dir.parent_path()) {
      break;
    }
    dir = dir.parent_path();
  }
  std::vector<const Policy*> chain;
  for (auto it = dirs.rbegin(); it != dirs.rend(); ++it) {
    if (const Policy* p = cache->ForDirectory(*it, errors)) {
      chain.push_back(p);
    }
  }
  return chain;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

bool WriteSarifReport(const std::string& path, const std::vector<Finding>& findings) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return false;
  }
  out << "{\n";
  out << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out << "  \"version\": \"2.1.0\",\n  \"runs\": [{\n";
  out << "    \"tool\": {\"driver\": {\"name\": \"wc-analyze\", \"rules\": [\n";
  const std::vector<RuleInfo>& rules = RuleCatalog();
  for (size_t i = 0; i < rules.size(); ++i) {
    out << "      {\"id\": \"" << rules[i].id << "\", \"shortDescription\": {\"text\": \""
        << JsonEscape(rules[i].summary) << "\"}}" << (i + 1 < rules.size() ? "," : "") << "\n";
  }
  out << "    ]}},\n    \"results\": [\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << "      {\"ruleId\": \"" << f.rule << "\", \"level\": \""
        << (f.severity == Severity::kError ? "error" : "warning") << "\", "
        << "\"message\": {\"text\": \"" << JsonEscape(f.message) << "\"}, "
        << "\"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
        << JsonEscape(f.file) << "\"}, \"region\": {\"startLine\": " << f.line << "}}}]";
    if (f.suppressed) {
      out << ", \"suppressions\": [{\"kind\": \"inSource\", \"justification\": \""
          << JsonEscape(f.suppress_reason) << "\"}]";
    }
    out << "}" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  out << "    ]\n  }]\n}\n";
  return out.good();
}

}  // namespace wcores::lint

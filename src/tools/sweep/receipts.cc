#include "src/tools/sweep/receipts.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/telemetry/chrome_trace.h"
#include "src/tools/sweep/jsonl.h"

namespace wcores {

Receipt ReceiptFromResult(const ScenarioResult& result, uint64_t fingerprint) {
  Receipt r;
  r.name = result.name;
  r.fingerprint = fingerprint;
  r.trace_hash = result.trace_hash;
  r.trace_events = result.trace_events;
  r.sim_events = result.sim_events;
  r.context_switches = result.context_switches;
  r.migrations = result.migrations;
  r.virtual_s = result.virtual_seconds;
  r.all_exited = result.all_exited;
  r.metrics = result.metrics;
  r.wall_ms = result.wall_ms;
  return r;
}

namespace {

std::string ReceiptBody(const Receipt& r, bool with_wall) {
  std::string out = "{";
  out += "\"name\": " + QuoteJson(r.name);
  out += ", \"fingerprint\": " + HexJson(r.fingerprint);
  out += ", \"trace_hash\": " + HexJson(r.trace_hash);
  out += ", \"trace_events\": " + std::to_string(r.trace_events);
  out += ", \"sim_events\": " + std::to_string(r.sim_events);
  out += ", \"context_switches\": " + std::to_string(r.context_switches);
  out += ", \"migrations\": " + std::to_string(r.migrations);
  out += ", \"virtual_s\": " + NumberJson(r.virtual_s);
  out += ", \"all_exited\": " + std::string(r.all_exited ? "1" : "0");
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [key, value] : r.metrics) {
    out += first ? "" : ", ";
    out += QuoteJson(key) + ": " + NumberJson(value);
    first = false;
  }
  out += "}";
  if (with_wall) {
    out += ", \"wall_ms\": " + NumberJson(r.wall_ms);
  }
  out += "}";
  return out;
}

}  // namespace

std::string ReceiptLine(const Receipt& r) { return ReceiptBody(r, /*with_wall=*/true); }

std::string ReceiptCanonical(const Receipt& r) { return ReceiptBody(r, /*with_wall=*/false); }

bool ParseReceiptLine(const std::string& line, Receipt* out, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  JsonValue root;
  std::string parse_error;
  if (!ParseJson(line, &root, &parse_error)) {
    return fail("receipt line is not valid JSON: " + parse_error);
  }
  if (root.type != JsonValue::Type::kObject) {
    return fail("receipt line is not a JSON object");
  }
  Receipt r;
  const JsonValue* name = root.Find("name");
  if (name == nullptr || name->type != JsonValue::Type::kString || name->str.empty()) {
    return fail("receipt line: missing 'name'");
  }
  r.name = name->str;
  auto hex_field = [&](const char* key, uint64_t* value) {
    const JsonValue* v = root.Find(key);
    return v != nullptr && v->type == JsonValue::Type::kString && ParseHex16(v->str, value);
  };
  // Counts are written with std::to_string and read back through a double,
  // which holds every whole number below 2^53 exactly. A fraction, or a
  // value at or above 2^53, cannot have come from the writer (and a cast
  // from past 2^64 would be undefined).
  auto count_field = [&](const char* key, uint64_t* value) {
    const JsonValue* v = root.Find(key);
    if (v == nullptr || v->type != JsonValue::Type::kNumber || !(v->number >= 0) ||
        !(v->number < 0x1p53) || std::trunc(v->number) != v->number) {
      return false;
    }
    *value = static_cast<uint64_t>(v->number);
    return true;
  };
  if (!hex_field("fingerprint", &r.fingerprint)) {
    return fail("receipt '" + r.name + "': bad 'fingerprint'");
  }
  if (!hex_field("trace_hash", &r.trace_hash)) {
    return fail("receipt '" + r.name + "': bad 'trace_hash'");
  }
  if (!count_field("trace_events", &r.trace_events) ||
      !count_field("sim_events", &r.sim_events) ||
      !count_field("context_switches", &r.context_switches) ||
      !count_field("migrations", &r.migrations)) {
    return fail("receipt '" + r.name + "': bad event counts");
  }
  const JsonValue* virtual_s = root.Find("virtual_s");
  if (virtual_s == nullptr || virtual_s->type != JsonValue::Type::kNumber) {
    return fail("receipt '" + r.name + "': bad 'virtual_s'");
  }
  r.virtual_s = virtual_s->number;
  uint64_t exited = 0;
  if (!count_field("all_exited", &exited) || exited > 1) {
    return fail("receipt '" + r.name + "': bad 'all_exited'");
  }
  r.all_exited = exited != 0;
  const JsonValue* metrics = root.Find("metrics");
  if (metrics == nullptr || metrics->type != JsonValue::Type::kObject) {
    return fail("receipt '" + r.name + "': bad 'metrics'");
  }
  for (const auto& [key, value] : metrics->object) {
    if (value.type != JsonValue::Type::kNumber) {
      return fail("receipt '" + r.name + "': non-numeric metric '" + key + "'");
    }
    r.metrics[key] = value.number;
  }
  const JsonValue* wall = root.Find("wall_ms");  // Absent in canonical form.
  if (wall != nullptr && wall->type == JsonValue::Type::kNumber) {
    r.wall_ms = wall->number;
  }
  *out = std::move(r);
  return true;
}

size_t CleanReceiptPrefixBytes(const std::string& content) {
  size_t clean_end = 0;
  size_t start = 0;
  while (start < content.size()) {
    size_t newline = content.find('\n', start);
    if (newline == std::string::npos) {
      break;  // Incomplete tail: everything from `start` is dirty.
    }
    std::string line = content.substr(start, newline - start);
    Receipt r;
    if (!line.empty() && !ParseReceiptLine(line, &r, nullptr)) {
      break;  // First unparseable complete line: stop trusting the rest.
    }
    clean_end = newline + 1;
    start = newline + 1;
  }
  return clean_end;
}

bool LoadResultsStore(const std::string& dir, ResultsStore* out, std::string* error) {
  ResultsStore store;
  std::error_code ec;
  if (!std::filesystem::exists(dir, ec)) {
    *out = std::move(store);  // A results dir that does not exist yet is empty.
    return true;
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
      files.push_back(entry.path());
    }
  }
  if (ec) {
    if (error != nullptr) {
      *error = "cannot list results dir '" + dir + "': " + ec.message();
    }
    return false;
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& file : files) {
    std::ifstream in(file);
    if (!in.good()) {
      if (error != nullptr) {
        *error = "cannot open results file '" + file.string() + "'";
      }
      return false;
    }
    store.files++;
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
      lines.push_back(line);
    }
    // A file killed mid-append ends without a newline; getline still yields
    // that fragment as the final element, where the trailing-tolerance rule
    // below handles it.
    for (size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].empty()) {
        continue;
      }
      Receipt r;
      std::string parse_error;
      if (ParseReceiptLine(lines[i], &r, &parse_error)) {
        store.receipts.push_back(std::move(r));
        continue;
      }
      bool trailing = i + 1 == lines.size();
      if (trailing) {
        store.dropped_trailing++;
      } else {
        store.dropped_interior++;
      }
      std::ostringstream warning;
      warning << file.filename().string() << " line " << (i + 1) << " ("
              << (trailing ? "trailing" : "interior") << "): " << parse_error;
      store.warnings.push_back(warning.str());
    }
  }
  *out = std::move(store);
  return true;
}

}  // namespace wcores

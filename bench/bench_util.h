// Shared helpers for the table/figure reproduction binaries.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/telemetry/telemetry.h"
#include "src/topo/topology.h"

namespace wcores {

// Flags shared by every reproduction binary.
struct BenchOptions {
  std::string out_dir = "out";  // CSV/PGM artifacts land here.
  std::string telemetry_dir;    // Empty = telemetry reports disabled.
};

// Whether a binary writes --telemetry reports. One that does not rejects
// the flag like any unknown flag, rather than ignoring it.
enum class TelemetryFlag { kRejected, kAccepted };

// The hard-error exit(2) path for a flag given a value it cannot take.
[[noreturn]] inline void BadFlagValue(const char* flag, const std::string& value,
                                      const char* expected) {
  std::fprintf(stderr, "invalid value '%s' for --%s: expected %s\n", value.c_str(), flag,
               expected);
  std::exit(2);
}

// A binary-specific flag, parsed alongside the shared set. Matches
// --NAME=VALUE; the raw VALUE is stored into *value (the binary converts).
struct BenchFlag {
  const char* name;    // Without the leading "--".
  std::string* value;
  const char* help;    // One line for the usage message.
};

// Parses the shared flags — --out=DIR and, where `telemetry_flag` accepts it,
// --telemetry[=DIR] (bare --telemetry defaults to <out_dir>/telemetry) —
// plus any binary-specific `extra` flags. Unknown flags abort with a usage
// message listing everything, so the binaries stay runnable with no
// arguments, as CI expects. An empty --out= or --telemetry= is a hard error
// (BadFlagValue) rather than the cwd or silently disabled telemetry.
inline BenchOptions ParseBenchArgs(int argc, char** argv,
                                   TelemetryFlag telemetry_flag = TelemetryFlag::kRejected,
                                   const std::vector<BenchFlag>& extra = {}) {
  BenchOptions opts;
  const bool accepts_telemetry = telemetry_flag == TelemetryFlag::kAccepted;
  bool telemetry = false;
  auto usage = [&](const char* bad) {
    std::fprintf(stderr, "unknown argument '%s'\nusage: %s [--out=DIR]%s", bad, argv[0],
                 accepts_telemetry ? " [--telemetry[=DIR]]" : "");
    for (const BenchFlag& f : extra) {
      std::fprintf(stderr, " [--%s=V]", f.name);
    }
    std::fprintf(stderr, "\n");
    for (const BenchFlag& f : extra) {
      std::fprintf(stderr, "  --%s=V  %s\n", f.name, f.help);
    }
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      opts.out_dir = arg.substr(6);
      if (opts.out_dir.empty()) {
        BadFlagValue("out", "", "a directory path");
      }
      continue;
    }
    if (accepts_telemetry && arg == "--telemetry") {
      telemetry = true;
      continue;
    }
    if (accepts_telemetry && arg.rfind("--telemetry=", 0) == 0) {
      opts.telemetry_dir = arg.substr(12);
      if (opts.telemetry_dir.empty()) {
        BadFlagValue("telemetry", "", "a directory path (or bare --telemetry)");
      }
      continue;
    }
    bool matched = false;
    for (const BenchFlag& f : extra) {
      std::string prefix = std::string("--") + f.name + "=";
      if (arg.rfind(prefix, 0) == 0) {
        *f.value = arg.substr(prefix.size());
        matched = true;
        break;
      }
    }
    if (!matched) {
      usage(arg.c_str());
    }
  }
  if (telemetry && opts.telemetry_dir.empty()) {
    opts.telemetry_dir = opts.out_dir + "/telemetry";
  }
  return opts;
}

// ---- Checked numeric flag parsing ------------------------------------------
//
// Bare std::stoi/std::stod on flag values turns a typo ("--threads=abc",
// "--seed=") into an uncaught std::invalid_argument and a terminate() with
// no indication of which flag was wrong. Every numeric flag goes through
// these instead: the whole value must parse as one in-range number, and
// anything else takes the same hard-error exit(2) path as an unknown flag
// (BadFlagValue, above).

// Signed integer in [min_value, max_value]; `def` when the flag was not given.
inline long long ParseIntFlag(const char* flag, const std::string& value, long long def,
                              long long min_value, long long max_value) {
  if (value.empty()) {
    return def;
  }
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size() || v < min_value || v > max_value) {
    char expected[96];
    std::snprintf(expected, sizeof(expected), "an integer in [%lld, %lld]", min_value,
                  max_value);
    BadFlagValue(flag, value, expected);
  }
  return v;
}

// Unsigned 64-bit integer; `def` when the flag was not given.
inline uint64_t ParseU64Flag(const char* flag, const std::string& value, uint64_t def) {
  if (value.empty()) {
    return def;
  }
  if (value[0] == '-' || value[0] == '+') {
    BadFlagValue(flag, value, "an unsigned integer");
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size()) {
    BadFlagValue(flag, value, "an unsigned integer");
  }
  return v;
}

// Finite double in [min_value, max_value]; `def` when the flag was not given.
inline double ParseDoubleFlag(const char* flag, const std::string& value, double def,
                              double min_value, double max_value) {
  if (value.empty()) {
    return def;
  }
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(value.c_str(), &end);
  if (errno != 0 || end != value.c_str() + value.size() || !std::isfinite(v) ||
      v < min_value || v > max_value) {
    char expected[96];
    std::snprintf(expected, sizeof(expected), "a number in [%g, %g]", min_value, max_value);
    BadFlagValue(flag, value, expected);
  }
  return v;
}

// ---- Host-core detection ---------------------------------------------------
//
// std::thread::hardware_concurrency() is allowed to return 0 ("not
// computable"). Callers that sweep with a fallback of 1 thread must also
// *report* 1 — recording the raw 0 while sweeping with 1 feeds trend
// tooling a host with no cores.
struct HostCores {
  int cores = 1;         // The value actually used (>= 1).
  bool detected = true;  // False when hardware_concurrency() returned 0.
};

inline HostCores DetectHostCores() {
  unsigned hw = std::thread::hardware_concurrency();
  HostCores out;
  out.detected = hw != 0;
  out.cores = out.detected ? static_cast<int>(hw) : 1;
  return out;
}

// The hard-error exit(1) path for an artifact that could not be written: a
// bench must not report success without its artifact.
[[noreturn]] inline void CannotWrite(const std::string& path) {
  std::fprintf(stderr, "cannot write %s\n", path.c_str());
  std::exit(1);
}

// Writes `contents` to `path`, creating its directory on demand; a failure
// exits through CannotWrite.
inline void WriteArtifact(const std::filesystem::path& path, const std::string& contents) {
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);  // Shows as a failed write.
  std::ofstream out(path, std::ios::binary);
  out << contents;
  out.close();
  if (!out) {
    CannotWrite(path.string());
  }
}

// Writes `name` into opts.out_dir, so artifacts never litter the working
// directory itself.
inline void WriteFile(const BenchOptions& opts, const std::string& name,
                      const std::string& contents) {
  WriteArtifact(std::filesystem::path(opts.out_dir) / name, contents);
}

// ---- --telemetry reports ----------------------------------------------------
//
// Once per simulated run, in a binary that accepts --telemetry:
//   TelemetrySession telemetry(topo.n_cores());
//   AttachTelemetryStream(opts, &telemetry, topo, "fig2_stock_");
//   Simulator sim(topo, sim_opts, telemetry.sink());
//   ... run ...
//   WriteTelemetry(opts, &telemetry, sim.sched(), sim.Now(), "fig2_stock_");
// Both are no-ops without --telemetry. With it, the run's schedstat.txt,
// trace.json, stream.json and spans.csv land in opts.telemetry_dir under
// `label`, and the stream summary is echoed as one "STREAM <label> {...}"
// line so sweeps stay grep-able.

inline void AttachTelemetryStream(const BenchOptions& opts, TelemetrySession* telemetry,
                                  const Topology& topo, const std::string& label) {
  if (!opts.telemetry_dir.empty()) {
    telemetry->AttachStream(TelemetryStream::ForTopology(topo), opts.telemetry_dir, label);
  }
}

inline void WriteTelemetry(const BenchOptions& opts, TelemetrySession* telemetry,
                           const Scheduler& sched, Time now, const std::string& label) {
  if (opts.telemetry_dir.empty()) {
    return;
  }
  std::string failed_path;
  if (!telemetry->WriteReports(opts.telemetry_dir, sched, now, label, &failed_path)) {
    CannotWrite(failed_path);
  }
  if (const TelemetryStream* stream = telemetry->stream()) {
    std::printf("STREAM %s %s\n", label.c_str(), stream->SummaryJson().c_str());
  }
}

inline void PrintHeader(const char* title, const char* paper_ref) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", title);
  std::printf("Reproduces: %s\n", paper_ref);
  std::printf("==============================================================================\n");
}

// ---- Machine-readable bench results (BENCH_<name>.json) ---------------------
//
// The perf trajectory is tracked by checked-in BENCH_*.json files. Every
// bench that wants to participate reduces its run to a BenchReport; the
// JSON shape is deliberately flat so diffs between commits read naturally.

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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

inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  // %.17g round-trips doubles; trim to %g when exact so small integers stay
  // readable ("4" rather than "4.0000000000000000").
  std::snprintf(buf, sizeof(buf), "%g", v);
  double back = std::strtod(buf, nullptr);
  if (back != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

struct BenchReport {
  std::string bench;  // Short name: "sweep", "micro_sched_ops", ...

  struct Row {
    std::string name;
    std::map<std::string, double> metrics;       // Numeric measurements.
    std::map<std::string, std::string> labels;   // Non-numeric annotations.
  };
  std::vector<Row> rows;
  std::map<std::string, double> context_num;     // e.g. host_cores, threads.
  std::map<std::string, std::string> context;    // e.g. build_type.

  std::string ToJson() const {
    std::string out = "{\n  \"bench\": \"" + JsonEscape(bench) + "\",\n  \"context\": {";
    bool first = true;
    for (const auto& [k, v] : context) {
      out += first ? "" : ", ";
      out += "\"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\"";
      first = false;
    }
    for (const auto& [k, v] : context_num) {
      out += first ? "" : ", ";
      out += "\"" + JsonEscape(k) + "\": " + JsonNumber(v);
      first = false;
    }
    out += "},\n  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& row = rows[i];
      out += "    {\"name\": \"" + JsonEscape(row.name) + "\"";
      for (const auto& [k, v] : row.labels) {
        out += ", \"" + JsonEscape(k) + "\": \"" + JsonEscape(v) + "\"";
      }
      for (const auto& [k, v] : row.metrics) {
        out += ", \"" + JsonEscape(k) + "\": " + JsonNumber(v);
      }
      out += i + 1 < rows.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    return out;
  }

  // Writes BENCH_<bench>.json into opts.out_dir.
  void Write(const BenchOptions& opts) const {
    WriteFile(opts, "BENCH_" + bench + ".json", ToJson());
  }
};

}  // namespace wcores

#endif  // BENCH_BENCH_UTIL_H_

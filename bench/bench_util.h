// Shared helpers for the table/figure reproduction binaries: flag parsing,
// artifact writes and --telemetry reports. Results are printed; speed is
// measured outside them, by scripts/ab_bench.sh over simbench.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
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
// arguments, as CI expects. An empty value (--out=, --telemetry=, --seed=)
// is a hard error (BadFlagValue) rather than the cwd, silently disabled
// telemetry or the flag's default: an extra flag's value is empty only when
// the flag was not given.
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
        if (f.value->empty()) {
          BadFlagValue(f.name, "", "a non-empty value");
        }
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
// Bare std::stoi/std::stod on flag values turns a typo ("--threads=abc")
// into an uncaught std::invalid_argument and a terminate() with no
// indication of which flag was wrong. Every numeric flag goes through
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

}  // namespace wcores

#endif  // BENCH_BENCH_UTIL_H_

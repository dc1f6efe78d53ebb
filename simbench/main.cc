// simbench: the simulator's outside-in benchmark (see README.md).
//
//   simbench --workload W --seed N --seconds S --trace 0|1 --outcomes FILE
//       Checks every scenario of W, then runs W's batch repeatedly for S
//       host seconds and prints a metric report whose last line is one JSON
//       object. --trace 0 reports the end-to-end metrics from untraced
//       batches; --trace 1 alternates untraced and traced batches and
//       reports the per-layer ledger.
//   simbench --pin FILE
//       Writes the pinned outcome table of every workload at the default
//       seed, from RunScenario.
//   simbench --selftest --outcomes FILE
//       The benchmark's own tests (selftest.cc).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "simbench/ledger.h"
#include "simbench/report.h"
#include "simbench/runner.h"
#include "src/tools/sweep/scenario.h"

namespace simbench {
namespace {

using wcores::RunScenario;
using wcores::Scenario;
using wcores::ScenarioResult;

struct Args {
  std::string workload;
  uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  std::string outcomes;
  std::string pin;
  bool selftest = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "simbench: %s\n"
               "usage: simbench --workload W --seed N --seconds S --trace 0|1 --outcomes FILE\n"
               "       simbench --pin FILE\n"
               "       simbench --selftest --outcomes FILE\n",
               msg);
  std::exit(2);
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  if (*text == '\0' || *text == '-') {
    return false;
  }
  *out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      if (!ParseU64(value, &a.seed)) {
        Usage("--seed takes a whole number");
      }
    } else if (flag == "--seconds") {
      if (!ParseU64(value, &n) || n < 1 || n > 600) {
        Usage("--seconds takes a whole number from 1 to 600");
      }
      a.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace takes 0 or 1");
      }
      a.trace = value[0] - '0';
    } else if (flag == "--outcomes") {
      a.outcomes = value;
    } else if (flag == "--pin") {
      a.pin = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

int Pin(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "simbench: cannot write %s\n", path.c_str());
    return 2;
  }
  out << "# Outcomes pinned at seed " << kDefaultSeed
      << ", from RunScenario. Regenerate with: simbench --pin FILE\n"
      << "# workload\tscenario\ttrace_events\tcontext_switches\tmigrations\tvirtual_s\tmetrics\n";
  for (const std::string& workload : WorkloadNames()) {
    std::vector<Scenario> scenarios;
    WorkloadScenarios(workload, kDefaultSeed, &scenarios);
    for (const Scenario& s : scenarios) {
      out << FormatOutcomeRow(workload, OutcomeFromResult(RunScenario(s))) << "\n";
    }
  }
  return out.good() ? 0 : 1;
}

// One pass over the workload's batch.
struct Batch {
  std::vector<int64_t> setup_ns;  // Per scenario.
  std::vector<int64_t> run_ns;
  uint64_t sim_events = 0;
  CoreCounters core;
  Ledger ledger;  // Traced batches only.
};

class Checker {
 public:
  explicit Checker(size_t n) : failures_(n) {}

  void Fail(size_t i, const std::string& name, const std::string& why) {
    if (failures_[i].empty()) {
      failures_[i] = why;
      std::printf("FAIL %s: %s\n", name.c_str(), why.c_str());
    }
  }
  int failed() const {
    return static_cast<int>(
        std::count_if(failures_.begin(), failures_.end(), [](const auto& f) { return !f.empty(); }));
  }

 private:
  std::vector<std::string> failures_;
};

Batch RunBatch(const std::vector<Scenario>& scenarios, bool traced,
               const std::vector<Outcome>& reference, Checker* checker) {
  Batch b;
  for (size_t i = 0; i < scenarios.size(); ++i) {
    Outcome o = RunOne(scenarios[i], traced ? &b.ledger : nullptr);
    b.setup_ns.push_back(o.setup_ns());
    b.run_ns.push_back(o.phase_ns[kRun]);
    b.sim_events += o.sim_events;
    b.core.Add(o.stats);
    if (o.trace_hash != reference[i].trace_hash) {
      checker->Fail(i, o.name,
                    traced ? "traced run hashes differently from the untraced run"
                           : "repeated run hashes differently from the first");
    }
  }
  return b;
}

int Bench(const Args& a) {
  std::vector<Scenario> scenarios;
  if (!WorkloadScenarios(a.workload, a.seed, &scenarios)) {
    Usage(("unknown workload '" + a.workload + "'").c_str());
  }
  // The pinned table applies at the default seed; on any other seed only the
  // hash checks do. It is loaded on every seed so that peak memory does not
  // depend on the seed.
  const bool pinned = a.seed == kDefaultSeed;
  OutcomeTable table;
  std::string error;
  if (a.outcomes.empty() || !LoadOutcomes(a.outcomes, &table, &error)) {
    Usage(a.outcomes.empty() ? "--outcomes is required" : error.c_str());
  }

  // Checks, outside the timed region: the runner reproduces RunScenario's
  // digest, and its outcomes match the pinned table.
  Checker checker(scenarios.size());
  std::vector<Outcome> reference;
  reference.reserve(scenarios.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& s = scenarios[i];
    ScenarioResult expected = RunScenario(s);
    reference.push_back(RunOne(s, nullptr));
    const Outcome& o = reference.back();
    if (o.trace_hash != expected.trace_hash) {
      checker.Fail(i, s.name, "runner hash differs from RunScenario");
    }
    if (pinned) {
      auto it = table.find(OutcomeKey(a.workload, s.name));
      std::string why;
      if (it == table.end()) {
        checker.Fail(i, s.name, "scenario missing from the outcome table");
      } else if (!SamePinned(it->second, o, &why)) {
        checker.Fail(i, s.name, "outcome differs from the pinned table: " + why);
      }
    }
  }

  // Timed region: whole batches until the deadline; traced batches
  // alternate with untraced ones so both see the same host conditions.
  BatchTimes run(scenarios.size());
  BatchTimes setup(scenarios.size());
  BatchTimes traced_run(scenarios.size());
  std::vector<Ledger> ledgers;
  Batch last;
  const int64_t deadline = NowNs() + static_cast<int64_t>(a.seconds * 1e9);
  do {
    last = RunBatch(scenarios, false, reference, &checker);
    run.Add(last.run_ns);
    setup.Add(last.setup_ns);
    if (a.trace == 1) {
      last = RunBatch(scenarios, true, reference, &checker);
      traced_run.Add(last.run_ns);
      ledgers.push_back(last.ledger);
    }
  } while (NowNs() < deadline);

  Report report(a.workload, scenarios.size(), checker.failed());
  std::printf("workload %s seed %" PRIu64 ": %zu scenarios, %zu batches, %" PRIu64
              " events per batch\n",
              a.workload.c_str(), a.seed, scenarios.size(), run.batches(), last.sim_events);
  if (a.trace == 0) {
    report.EndToEnd(run, setup, PeakRssMb());
  } else {
    report.Layers(ledgers, last.core, last.sim_events, run, traced_run, CalibrateSpanCost());
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) {
  simbench::Args a = simbench::ParseArgs(argc, argv);
  if (!a.pin.empty()) {
    return simbench::Pin(a.pin);
  }
  if (a.selftest) {
    return simbench::SelfTest(a.outcomes);
  }
  if (a.workload.empty()) {
    simbench::Usage("--workload is required");
  }
  return simbench::Bench(a);
}

// scheduler_lab: a command-line driver for ad-hoc experiments.
//
//   $ ./examples/scheduler_lab --machine=bulldozer --workload=nas:lu:16
//         --pin=1,2 --fix=none --duration=30 --heatmap --checker
//
// Options:
//   --machine=bulldozer | example32 | flat:<nodes>x<cores>   (default bulldozer)
//   --workload=nas:<app>:<threads> | make_r | tpch | hogs:<n>  (default hogs:64)
//   --pin=<node>,<node>,...      taskset the workload to these nodes
//   --fix=none|all|gi,gc,ow,md   which bug fixes to apply (default none)
//   --hotplug=<cpu>              disable+re-enable this core before the run
//   --duration=<seconds>         virtual time budget (default 30)
//   --seed=<n>                   RNG seed (default 1)
//   --heatmap                    print the runqueue-size heatmap at the end
//   --checker                    attach the online sanity checker
//   --no-autogroup               disable autogroups
//
// A malformed or out-of-range option value (a non-number, a node or cpu the
// machine does not have, a machine wider than kMaxCpus, a duration that is
// not positive) prints "bad --<option> ..." to stderr and exits 2.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/tools/heatmap.h"
#include "src/tools/recorder.h"
#include "src/tools/sanity_checker.h"
#include "src/topo/topology.h"
#include "src/workloads/make_r.h"
#include "src/workloads/nas.h"
#include "src/workloads/tpch.h"
#include "src/workloads/transient.h"

using namespace wcores;

namespace {

struct Args {
  std::string machine = "bulldozer";
  std::string workload = "hogs:64";
  const char* pin = nullptr;  // Node list; validated against the machine.
  std::string fixes = "none";
  const char* hotplug = nullptr;  // Cpu id; validated against the machine.
  double duration_s = 30;
  uint64_t seed = 1;
  bool heatmap = false;
  bool checker = false;
  bool autogroup = true;
};

bool StartsWith(const char* arg, const char* prefix, const char** value) {
  size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) == 0) {
    *value = arg + n;
    return true;
  }
  return false;
}

std::vector<std::string> Split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t next = s.find(sep, pos);
    if (next == std::string::npos) {
      parts.push_back(s.substr(pos));
      break;
    }
    parts.push_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
  return parts;
}

[[noreturn]] void BadOption(const char* option, const std::string& value, const char* want) {
  std::fprintf(stderr, "bad --%s '%s' (want %s)\n", option, value.c_str(), want);
  std::exit(2);
}

// Parses the whole of `text` as a base-10 integer in [lo, hi].
bool ParseLong(const std::string& text, long lo, long hi, long* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtol(text.c_str(), &end, 10);
  return !text.empty() && *end == '\0' && errno == 0 && *out >= lo && *out <= hi;
}

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (StartsWith(argv[i], "--machine=", &v)) {
      args.machine = v;
    } else if (StartsWith(argv[i], "--workload=", &v)) {
      args.workload = v;
    } else if (StartsWith(argv[i], "--pin=", &v)) {
      args.pin = v;
    } else if (StartsWith(argv[i], "--fix=", &v)) {
      args.fixes = v;
    } else if (StartsWith(argv[i], "--hotplug=", &v)) {
      args.hotplug = v;
    } else if (StartsWith(argv[i], "--duration=", &v)) {
      // Bounded so the conversion to integer nanoseconds stays defined.
      char* end = nullptr;
      args.duration_s = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !std::isfinite(args.duration_s) ||
          args.duration_s <= 0 || args.duration_s > 1e6) {
        BadOption("duration", v, "seconds in (0, 1e6]");
      }
    } else if (StartsWith(argv[i], "--seed=", &v)) {
      char* end = nullptr;
      errno = 0;
      args.seed = std::strtoull(v, &end, 10);
      if (*v < '0' || *v > '9' || *end != '\0' || errno != 0) {
        BadOption("seed", v, "an unsigned integer");
      }
    } else if (std::strcmp(argv[i], "--heatmap") == 0) {
      args.heatmap = true;
    } else if (std::strcmp(argv[i], "--checker") == 0) {
      args.checker = true;
    } else if (std::strcmp(argv[i], "--no-autogroup") == 0) {
      args.autogroup = false;
    } else {
      std::fprintf(stderr, "unknown option: %s (see the header of this file)\n", argv[i]);
      std::exit(2);
    }
  }
  return args;
}

Topology MakeMachine(const std::string& spec) {
  if (spec == "bulldozer") {
    return Topology::Bulldozer8x8();
  }
  if (spec == "example32") {
    return Topology::Example32();
  }
  std::string want = "bulldozer | example32 | flat:NxC with N*C <= " + std::to_string(kMaxCpus) +
                     " and C even";
  const char* v = nullptr;
  if (StartsWith(spec.c_str(), "flat:", &v)) {
    std::vector<std::string> parts = Split(v, 'x');
    long nodes = 0;
    long cores = 0;
    // Flat machines pair cores into SMT siblings, so C must be even.
    if (parts.size() == 2 && ParseLong(parts[0], 1, kMaxCpus, &nodes) &&
        ParseLong(parts[1], 1, kMaxCpus, &cores) && nodes * cores <= kMaxCpus && cores % 2 == 0) {
      return Topology::Flat(static_cast<int>(nodes), static_cast<int>(cores));
    }
  }
  BadOption("machine", spec, want.c_str());
}

SchedFeatures MakeFeatures(const std::string& fixes, bool autogroup) {
  SchedFeatures f;
  if (fixes == "all") {
    f = SchedFeatures::AllFixed();
  } else if (fixes != "none") {
    for (const std::string& fix : Split(fixes, ',')) {
      if (fix == "gi") {
        f.fix_group_imbalance = true;
      } else if (fix == "gc") {
        f.fix_group_construction = true;
      } else if (fix == "ow") {
        f.fix_overload_wakeup = true;
      } else if (fix == "md") {
        f.fix_missing_domains = true;
      } else {
        std::fprintf(stderr, "bad --fix token '%s' (want gi,gc,ow,md|all|none)\n", fix.c_str());
        std::exit(2);
      }
    }
  }
  f.autogroup_enabled = autogroup;
  return f;
}

NasApp ParseNasApp(const std::string& name) {
  for (NasApp app : AllNasApps()) {
    if (name == NasAppName(app)) {
      return app;
    }
  }
  std::fprintf(stderr, "unknown NAS app '%s'\n", name.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  Topology topo = MakeMachine(args.machine);

  // Options that name cpus or nodes are checked against the machine.
  long hotplug_cpu = -1;
  if (args.hotplug != nullptr && !ParseLong(args.hotplug, 0, topo.n_cores() - 1, &hotplug_cpu)) {
    std::string want = "a cpu in [0, " + std::to_string(topo.n_cores() - 1) + "]";
    BadOption("hotplug", args.hotplug, want.c_str());
  }
  CpuSet pin;
  if (args.pin != nullptr) {
    for (const std::string& part : Split(args.pin, ',')) {
      long node = 0;
      if (!ParseLong(part, 0, topo.n_nodes() - 1, &node)) {
        std::string want = "nodes in [0, " + std::to_string(topo.n_nodes() - 1) + "]";
        BadOption("pin", args.pin, want.c_str());
      }
      pin |= topo.CpusOfNode(static_cast<NodeId>(node));
    }
  }

  EventRecorder recorder;
  Simulator::Options options;
  options.features = MakeFeatures(args.fixes, args.autogroup);
  options.seed = args.seed;
  Simulator sim(topo, options, args.heatmap ? &recorder : nullptr);

  if (hotplug_cpu >= 0) {
    sim.SetCpuOnline(static_cast<CpuId>(hotplug_cpu), false);
    sim.SetCpuOnline(static_cast<CpuId>(hotplug_cpu), true);
    std::printf("hotplugged core %ld (disable + re-enable)\n", hotplug_cpu);
  }

  // Workload setup. The objects must outlive the run.
  std::unique_ptr<NasWorkload> nas;
  std::unique_ptr<MakeRWorkload> make_r;
  std::unique_ptr<TpchWorkload> tpch;
  std::unique_ptr<TransientThreadGenerator> transients;
  std::vector<ThreadId> hogs;

  const char* want_workload =
      "nas:<app>:<n> | make_r | tpch | hogs:<n>, with n in [1, 4096]";
  std::vector<std::string> wparts = Split(args.workload, ':');
  long count = topo.n_cores();
  if ((wparts[0] == "nas" && wparts.size() == 3) || (wparts[0] == "hogs" && wparts.size() == 2)) {
    if (!ParseLong(wparts.back(), 1, 4096, &count)) {
      BadOption("workload", args.workload, want_workload);
    }
  }
  if (wparts[0] == "nas" && (wparts.size() == 2 || wparts.size() == 3)) {
    NasConfig config;
    config.app = ParseNasApp(wparts[1]);
    config.threads = static_cast<int>(count);
    config.affinity = pin;
    config.spawn_cpu = pin.Empty() ? 0 : pin.First();
    NasWorkload* wl = new NasWorkload(&sim, config);
    nas.reset(wl);
    nas->Setup();
  } else if (wparts[0] == "make_r") {
    make_r = std::make_unique<MakeRWorkload>(&sim, MakeRConfig{});
    make_r->Setup();
  } else if (wparts[0] == "tpch") {
    TpchConfig config;
    config.queries = {TpchQuery18(2.0)};
    tpch = std::make_unique<TpchWorkload>(&sim, config);
    tpch->Setup();
    transients = std::make_unique<TransientThreadGenerator>(
        &sim, TransientThreadGenerator::Options{});
    transients->Start();
  } else if (wparts[0] == "hogs" && wparts.size() == 2) {
    for (long i = 0; i < count; ++i) {
      Simulator::SpawnParams params;
      params.parent_cpu = pin.Empty() ? 0 : pin.First();
      params.affinity = pin;
      hogs.push_back(sim.Spawn(std::make_unique<ScriptBehavior>(std::vector<Action>{
                                   ComputeAction{Milliseconds(500)}}),
                               params));
    }
  } else {
    BadOption("workload", args.workload, want_workload);
  }

  std::unique_ptr<SanityChecker> checker;
  if (args.checker) {
    SanityChecker::Options copts;
    copts.check_interval = Milliseconds(250);
    checker = std::make_unique<SanityChecker>(&sim, copts);
    checker->Start();
  }

  sim.Run(Seconds(static_cast<uint64_t>(args.duration_s * 1000)) / 1000);

  // ---- Report ----------------------------------------------------------------
  std::printf("machine %s, fixes=%s, seed=%llu, ran to t=%s\n", args.machine.c_str(),
              args.fixes.c_str(), static_cast<unsigned long long>(args.seed),
              FormatTime(sim.Now()).c_str());
  if (nas != nullptr) {
    std::printf("nas %s: %s, completion %.3fs, spin %.3fs\n", wparts[1].c_str(),
                nas->Finished() ? "finished" : "STILL RUNNING",
                ToSeconds(nas->CompletionTime()), ToSeconds(nas->TotalSpinTime()));
  }
  if (make_r != nullptr) {
    std::printf("make: %s, completion %.3fs\n",
                make_r->MakeFinished() ? "finished" : "STILL RUNNING",
                ToSeconds(make_r->MakeCompletionTime()));
  }
  if (tpch != nullptr) {
    std::printf("tpch: %s, total %.3fs over %zu queries\n",
                tpch->Finished() ? "finished" : "STILL RUNNING", ToSeconds(tpch->TotalTime()),
                tpch->QueryTimes().size());
  }
  if (!hogs.empty()) {
    int done = 0;
    for (ThreadId tid : hogs) {
      done += sim.thread(tid).Alive() ? 0 : 1;
    }
    std::printf("hogs: %d/%zu finished\n", done, hogs.size());
  }

  const SchedStats& stats = sim.sched().stats();
  std::printf("migrations %llu, wakeups %llu (%llu onto busy cores), balance calls %llu\n",
              static_cast<unsigned long long>(stats.TotalMigrations()),
              static_cast<unsigned long long>(stats.wakeups),
              static_cast<unsigned long long>(stats.wakeups_on_busy),
              static_cast<unsigned long long>(stats.balance_calls));

  if (checker != nullptr) {
    std::printf("sanity checker: %llu checks, %llu confirmed violations\n",
                static_cast<unsigned long long>(checker->checks_run()),
                static_cast<unsigned long long>(checker->violations().size()));
    if (!checker->violations().empty()) {
      std::printf("%s", SanityChecker::Report(checker->violations().front()).c_str());
    }
  }
  if (args.heatmap) {
    Heatmap map = BuildHeatmap(recorder.events(), TraceEvent::Kind::kNrRunning, topo.n_cores(),
                               0, sim.Now(), 100);
    std::printf("\nrunqueue sizes over time:\n%s",
                HeatmapToAscii(map, topo.cores_per_node(), 3.0).c_str());
  }
  return 0;
}

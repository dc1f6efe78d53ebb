#include "src/telemetry/schedstat.h"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <vector>

#include "src/tools/profiler.h"

namespace wcores {

namespace {

void AppendCounter(std::string* out, const char* name, uint64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "counter %s %llu\n", name,
                static_cast<unsigned long long>(value));
  *out += buf;
}

void AppendLatencyLine(std::string* out, const std::string& scope, const char* metric,
                       const LogHistogram& s) {
  char buf[160];
  // Samples are nanoseconds; report in microseconds.
  std::snprintf(buf, sizeof(buf), "lat %s %s %llu %.3f %.3f %.3f %.3f\n", scope.c_str(), metric,
                static_cast<unsigned long long>(s.Count()), s.Quantile(0.50) / 1000.0,
                s.Quantile(0.95) / 1000.0, s.Quantile(0.99) / 1000.0,
                static_cast<double>(s.Max()) / 1000.0);
  *out += buf;
}

void AppendScope(std::string* out, const std::string& scope, const LatencyDistributions& d) {
  AppendLatencyLine(out, scope, "wakeup", d.wakeup_latency);
  AppendLatencyLine(out, scope, "rq_wait", d.rq_wait);
  AppendLatencyLine(out, scope, "timeslice", d.timeslice);
  AppendLatencyLine(out, scope, "migration", d.migration_cost);
}

std::vector<std::string> Fields(const std::string& line) {
  std::vector<std::string> fields;
  std::istringstream in(line);
  std::string field;
  while (in >> field) {
    fields.push_back(field);
  }
  return fields;
}

// A whole field only: no sign on unsigned values, no trailing junk.
template <typename T>
bool ParseNumber(const std::string& s, T* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

std::string SchedstatReport(const Scheduler& sched, const LatencyAccountant& lat, Time now) {
  const Topology& topo = sched.topology();
  const SchedStats& st = sched.stats();
  std::string out;
  char buf[192];

  out += "schedstat version 1 (wasted-cores telemetry)\n";
  std::snprintf(buf, sizeof(buf), "timestamp_ns %llu\n", static_cast<unsigned long long>(now));
  out += buf;
  std::snprintf(buf, sizeof(buf), "cpus %d nodes %d online %d\n", topo.n_cores(), topo.n_nodes(),
                sched.OnlineCpus().Count());
  out += buf;

  // ---- Raw scheduler counters (the /proc/schedstat numbers) ---------------
  AppendCounter(&out, "forks", st.forks);
  AppendCounter(&out, "exits", st.exits);
  AppendCounter(&out, "wakeups", st.wakeups);
  AppendCounter(&out, "wakeups_on_prev", st.wakeups_on_prev);
  AppendCounter(&out, "wakeups_on_idle", st.wakeups_on_idle);
  AppendCounter(&out, "wakeups_on_busy", st.wakeups_on_busy);
  AppendCounter(&out, "balance_calls", st.balance_calls);
  AppendCounter(&out, "balance_found_busiest", st.balance_found_busiest);
  AppendCounter(&out, "balance_success", st.balance_success);
  AppendCounter(&out, "balance_moved_tasks", st.balance_moved_tasks);
  AppendCounter(&out, "migrations_periodic", st.migrations_periodic);
  AppendCounter(&out, "migrations_idle", st.migrations_idle);
  AppendCounter(&out, "migrations_nohz", st.migrations_nohz);
  AppendCounter(&out, "migrations_hotplug", st.migrations_hotplug);
  AppendCounter(&out, "nohz_kicks", st.nohz_kicks);
  AppendCounter(&out, "ticks", st.ticks);

  // ---- Why balancing invocations gave up ----------------------------------
  BalanceProfile profile = ProfileFromStats(SchedStats{}, st, 0, now);
  out += BalanceVerdictTable(profile);

  // ---- Latency percentiles: cpu, node, machine ----------------------------
  out += "lat scope metric count p50us p95us p99us maxus\n";
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    AppendScope(&out, "cpu" + std::to_string(c), lat.Cpu(c));
  }
  for (NodeId n = 0; n < topo.n_nodes(); ++n) {
    AppendScope(&out, "node" + std::to_string(n), lat.AggregateCpus(topo.CpusOfNode(n)));
  }
  AppendScope(&out, "machine", lat.Machine());

  // ---- Per-cpu occupancy snapshot -----------------------------------------
  for (CpuId c = 0; c < topo.n_cores(); ++c) {
    std::snprintf(buf, sizeof(buf),
                  "cpustate cpu%d nr_running %d idle_ns %llu idle_enters %llu migrations_in "
                  "%llu\n",
                  c, sched.IsOnline(c) ? sched.NrRunning(c) : -1,
                  static_cast<unsigned long long>(lat.IdleTime(c)),
                  static_cast<unsigned long long>(lat.IdleEnters(c)),
                  static_cast<unsigned long long>(lat.MigrationsInto(c)));
    out += buf;
  }
  return out;
}

bool ParseSchedstatReport(const std::string& report, ParsedSchedstat* out) {
  *out = ParsedSchedstat{};
  std::istringstream in(report);
  std::string line;
  bool have_header = false;
  bool have_shape = false;
  while (std::getline(in, line)) {
    std::vector<std::string> f = Fields(line);
    if (line.rfind("schedstat version ", 0) == 0) {
      // The version may be followed by a free-text description.
      if (f.size() < 3 || !ParseNumber(f[2], &out->version)) {
        return false;
      }
      have_header = true;
    } else if (line.rfind("timestamp_ns ", 0) == 0) {
      if (f.size() != 2 || !ParseNumber(f[1], &out->timestamp)) {
        return false;
      }
    } else if (line.rfind("cpus ", 0) == 0) {
      if (f.size() != 6 || f[2] != "nodes" || f[4] != "online" || !ParseNumber(f[1], &out->cpus) ||
          !ParseNumber(f[3], &out->nodes) || !ParseNumber(f[5], &out->online)) {
        return false;
      }
      have_shape = true;
    } else if (line.rfind("counter ", 0) == 0) {
      uint64_t value = 0;
      if (f.size() != 3 || !ParseNumber(f[2], &value)) {
        return false;
      }
      out->counters[f[1]] = value;
    } else if (line.rfind("lat ", 0) == 0) {
      if (line.rfind("lat scope ", 0) == 0) {
        continue;  // Column-header line.
      }
      ParsedSchedstat::LatencyLine ll;
      if (f.size() != 8 || !ParseNumber(f[3], &ll.count) || !ParseNumber(f[4], &ll.p50_us) ||
          !ParseNumber(f[5], &ll.p95_us) || !ParseNumber(f[6], &ll.p99_us) ||
          !ParseNumber(f[7], &ll.max_us)) {
        return false;
      }
      out->latencies[f[1] + " " + f[2]] = ll;
    }
    // Prose sections (verdict table, cpustate) are informational; cpustate
    // lines are left to ad-hoc consumers.
  }
  return have_header && have_shape && !out->latencies.empty();
}

}  // namespace wcores

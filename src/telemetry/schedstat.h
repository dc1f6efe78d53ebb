// The /proc/schedstat-style text report of the telemetry subsystem.
//
// Renders the scheduler's event counters (SchedStats), the balance
// decision-verdict table, and the latency percentiles collected by a
// LatencyAccountant — per cpu, per NUMA node, and machine-wide. The format
// is line-oriented and stable so tools (and ParseSchedstatReport) can
// consume it:
//
//   schedstat version 1 (wasted-cores telemetry)
//   timestamp_ns 2000000000
//   cpus 8 nodes 2 online 8
//   counter wakeups 1234
//   ...
//   lat cpu0 rq_wait <count> <p50us> <p95us> <p99us> <maxus>
//   lat node0 wakeup ...
//   lat machine timeslice ...
//   cpustate cpu0 nr_running <n> idle_ns <ns> idle_enters <n> migrations_in <n>
#ifndef SRC_TELEMETRY_SCHEDSTAT_H_
#define SRC_TELEMETRY_SCHEDSTAT_H_

#include <map>
#include <string>

#include "src/core/scheduler.h"
#include "src/telemetry/latency.h"

namespace wcores {

// Full report at `now`. Counters and latency distributions cover the whole
// run (both start at zero with the scheduler).
std::string SchedstatReport(const Scheduler& sched, const LatencyAccountant& lat, Time now);

// What a parse recovers: the machine shape, the raw counters, and every
// latency line keyed by "<scope> <metric>" (e.g. "cpu0 rq_wait",
// "machine wakeup").
struct ParsedSchedstat {
  int version = 0;
  Time timestamp = 0;
  int cpus = 0;
  int nodes = 0;
  int online = 0;
  std::map<std::string, uint64_t> counters;

  struct LatencyLine {
    uint64_t count = 0;
    double p50_us = 0;
    double p95_us = 0;
    double p99_us = 0;
    double max_us = 0;
  };
  std::map<std::string, LatencyLine> latencies;
};

// Parses a report back. Returns false on malformed input: a missing header,
// or a header, shape, counter or lat line whose field count is wrong or
// whose numbers are not whole well-formed fields (a sign on an unsigned
// value, trailing junk). Prose sections (the verdict table) are skipped, not
// parsed.
bool ParseSchedstatReport(const std::string& report, ParsedSchedstat* out);

}  // namespace wcores

#endif  // SRC_TELEMETRY_SCHEDSTAT_H_

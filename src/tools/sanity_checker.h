// The online sanity checker (§4.1): periodically verifies the
// work-conserving invariant "no core remains idle while another core is
// overloaded" (Algorithm 2), distinguishing acceptable short-term violations
// from the long-term ones that indicate scheduler bugs.
//
// Operation, as in the paper:
//  * Every S (default 1 s) run the invariant check: for each idle CPU1, look
//    for a CPU2 with nr_running >= 2 whose queue holds a thread allowed to
//    run on CPU1 (can_steal).
//  * On a hit, start monitoring for M (default 100 ms) — here, by watching
//    migrations/forks/exits through the trace stream and re-evaluating at
//    the end of the window. If the same core is still idle and stealable
//    work still exists, flag a violation and capture a profile.
#ifndef SRC_TOOLS_SANITY_CHECKER_H_
#define SRC_TOOLS_SANITY_CHECKER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/sim/simulator.h"
#include "src/simkit/cpuset.h"
#include "src/simkit/time.h"

namespace wcores {

class SanityChecker {
 public:
  struct Options {
    Time check_interval = Seconds(1);        // S.
    Time confirmation_window = Milliseconds(100);  // M.
    // Stop scheduling checks after this instant (0 = forever).
    Time stop_at = 0;
    // Optional: called when a violation is confirmed; its return value is
    // stored in Violation::latency_snapshot. Lets callers attach telemetry
    // (e.g. TelemetrySession::LatencySnapshot) without this tool depending
    // on the telemetry library.
    std::function<std::string()> latency_snapshot;
  };

  struct Violation {
    Time detected_at = 0;
    Time confirmed_at = 0;
    CpuId idle_cpu = kInvalidCpu;
    CpuId overloaded_cpu = kInvalidCpu;
    int overloaded_nr_running = 0;
    // Snapshot at confirmation: per-cpu runqueue sizes.
    std::vector<int> nr_running;
    // Scheduler-stats delta over the confirmation window (profile).
    uint64_t balance_calls = 0;
    uint64_t balance_below_local = 0;
    uint64_t balance_designation_skips = 0;
    uint64_t migrations = 0;
    // Machine-wide latency digest at confirmation, if a provider was set.
    std::string latency_snapshot;
  };

  SanityChecker(Simulator* sim, Options options);
  explicit SanityChecker(Simulator* sim) : SanityChecker(sim, Options{}) {}

  // Schedules the first check at now + S.
  void Start();

  uint64_t checks_run() const { return checks_run_; }
  uint64_t candidates() const { return candidates_; }
  const std::vector<Violation>& violations() const { return violations_; }

  // Runs Algorithm 2 once; returns true and fills the pair on violation.
  // Public so benches can measure the cost of a single pass.
  bool CheckOnce(CpuId* idle_cpu, CpuId* overloaded_cpu) const;

  static std::string Report(const Violation& v);

 private:
  // A candidate awaiting the end of its M-window. Kept out-of-line (FIFO
  // deque) so the confirmation event captures only `this`: SchedStats is far
  // larger than InlineCallback's inline buffer. Confirmation events fire in
  // detection order (same fixed window offset), so popping the front is
  // always the right entry.
  struct PendingConfirmation {
    CpuId idle_cpu;
    Time detected_at;
    SchedStats stats_before;
  };

  void ScheduleNext();
  void RunCheck();
  void Confirm(CpuId idle_cpu, Time detected_at, const SchedStats& stats_before);
  void ConfirmHead();

  Simulator* sim_;
  Options options_;
  uint64_t checks_run_ = 0;
  uint64_t candidates_ = 0;
  std::deque<PendingConfirmation> pending_;
  std::vector<Violation> violations_;
};

}  // namespace wcores

#endif  // SRC_TOOLS_SANITY_CHECKER_H_

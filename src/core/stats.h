// Scheduler-internal event counters, for tests, benches, and ablations.
#ifndef SRC_CORE_STATS_H_
#define SRC_CORE_STATS_H_

#include <cstdint>

namespace wcores {

struct SchedStats {
  uint64_t forks = 0;
  uint64_t exits = 0;
  uint64_t wakeups = 0;
  uint64_t wakeups_on_prev = 0;       // Woke on the core it last used.
  uint64_t wakeups_on_idle = 0;       // Woke onto an idle core.
  uint64_t wakeups_on_busy = 0;       // Woke onto a core with running work.
  uint64_t balance_calls = 0;         // Algorithm 1 bodies executed.
  uint64_t balance_designation_skips = 0;  // Lines 7-8: not the designated core.
  uint64_t balance_interval_skips = 0;
  uint64_t balance_found_busiest = 0;
  uint64_t balance_below_local = 0;   // Line 15-16: busiest <= local.
  uint64_t balance_affinity_retries = 0;  // Lines 20-22: excluded a cpu.
  // Always 0: the balancer no longer memoizes group stats. Kept only
  // because simbench/report.cc still reads them.
  uint64_t balance_group_cache_hits = 0;
  uint64_t balance_group_cache_misses = 0;
  uint64_t balance_failures = 0;      // Nothing could be moved at all.
  uint64_t balance_success = 0;       // Algorithm-1 bodies that moved >= 1 thread.
  uint64_t balance_moved_tasks = 0;   // Threads moved by balancing, all kinds.
  uint64_t migrations_periodic = 0;
  uint64_t migrations_idle = 0;
  uint64_t migrations_nohz = 0;
  uint64_t migrations_hotplug = 0;
  uint64_t nohz_kicks = 0;
  uint64_t ticks = 0;

  uint64_t TotalMigrations() const {
    return migrations_periodic + migrations_idle + migrations_nohz + migrations_hotplug;
  }
};

}  // namespace wcores

#endif  // SRC_CORE_STATS_H_

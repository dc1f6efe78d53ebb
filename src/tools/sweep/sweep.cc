#include "src/tools/sweep/sweep.h"

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "src/simkit/check.h"
#include "src/tools/sweep/trace_hash.h"

namespace wcores {

uint64_t SweepReport::CombinedHash() const {
  Fnv1a fnv;
  for (const ScenarioResult& r : results) {
    for (char c : r.name) {
      fnv.Mix(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    }
    fnv.Mix(r.trace_hash);
    fnv.Mix(r.trace_events);
  }
  return fnv.digest();
}

uint64_t SweepReport::TotalSimEvents() const {
  uint64_t total = 0;
  for (const ScenarioResult& r : results) {
    total += r.sim_events;
  }
  return total;
}

SweepReport RunSweep(const std::vector<Scenario>& scenarios, const SweepOptions& options) {
  // Scenario::name is documented "unique within a sweep" and everything
  // downstream — result rows, golden tables, receipt/resume keying in the
  // fleet service — relies on it. Enforce instead of trusting.
  {
    std::set<std::string> names;
    for (const Scenario& s : scenarios) {
      WC_CHECK(names.insert(s.name).second, "duplicate scenario name in sweep");
    }
  }

  SweepReport report;
  report.results.resize(scenarios.size());

  // wc-lint: allow(D3 sweep wall_ms is a host-side timing, not part of any result hash)
  auto wall_start = std::chrono::steady_clock::now();

  // Results land in per-scenario slots, so the report does not depend on
  // which worker ran what.
  report.threads = ParallelFor(scenarios.size(), options.threads,
                               [&](size_t i) { report.results[i] = RunScenario(scenarios[i]); });

  // wc-lint: allow(D3 sweep wall_ms is a host-side timing, not part of any result hash)
  auto wall_end = std::chrono::steady_clock::now();
  report.wall_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(wall_end - wall_start)
          .count();
  return report;
}

int ParallelFor(size_t n, int threads, const std::function<void(size_t)>& body) {
  if (threads < 1) {
    threads = 1;
  }
  if (threads > static_cast<int>(n) && n > 0) {
    threads = static_cast<int>(n);
  }
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      body(i);
    }
  };
  if (threads == 1) {
    worker();
    return threads;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return threads;
}

}  // namespace wcores

// Reduction of benchmark batches to named metrics, and the report printer.
#ifndef SIMBENCH_REPORT_H_
#define SIMBENCH_REPORT_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "simbench/ledger.h"
#include "src/core/stats.h"

namespace simbench {

// The SchedStats counters the ledger reports, summed over a batch.
struct CoreCounters {
  uint64_t balance_calls = 0;
  uint64_t balance_success = 0;
  uint64_t group_cache_hits = 0;
  uint64_t group_cache_misses = 0;
  uint64_t interval_skips = 0;
  uint64_t designation_skips = 0;
  uint64_t wakeups_on_idle = 0;
  uint64_t wakeups_on_busy = 0;
  uint64_t migrations = 0;
  uint64_t nohz_kicks = 0;
  uint64_t ticks = 0;

  void Add(const wcores::SchedStats& s);
};

double Median(std::vector<double> values);

// One per-scenario timing, repeated over the batches of a run. Host
// interference only ever slows a scenario down, and on a shared host it
// comes in bursts that last seconds, so the reported figure is each
// scenario's fastest repetition, summed over the batch: the median batch
// moves with the bursts, this sum much less.
class BatchTimes {
 public:
  explicit BatchTimes(size_t scenarios) : fastest_ns_(scenarios, INT64_MAX) {}

  void Add(const std::vector<int64_t>& per_scenario_ns);
  double FastestSeconds() const;
  double MedianBatchSeconds() const { return Median(batch_s_); }
  size_t batches() const { return batch_s_.size(); }

 private:
  std::vector<int64_t> fastest_ns_;
  std::vector<double> batch_s_;
};
double PeakRssMb();  // VmHWM of this process.

// Cost of one empty span: its whole cost, and the part of it the span's
// own clock reads record as the span's duration. The rest lands in the
// enclosing span.
struct SpanCost {
  double total_ns = 0;
  double inner_ns = 0;
};
SpanCost CalibrateSpanCost();

std::string LayerName(int layer);

// Per-layer totals of one traced batch, the fastest: self time, call count,
// and self time net of span cost.
struct LayerTotals {
  std::array<double, kLayerCount> self_ns{};
  std::array<double, kLayerCount> net_ns{};
  std::array<uint64_t, kLayerCount> calls{};
};
LayerTotals ReduceLedgers(const std::vector<Ledger>& ledgers, const SpanCost& cost);

class Report {
 public:
  Report(std::string workload, size_t scenarios, int failed)
      : workload_(std::move(workload)), scenarios_(scenarios), failed_(failed) {}

  void EndToEnd(const BatchTimes& run, const BatchTimes& setup, double peak_rss_mb);
  void Layers(const std::vector<Ledger>& ledgers, const CoreCounters& core, uint64_t sim_events,
              const BatchTimes& untraced_run, const BatchTimes& traced_run,
              const SpanCost& cost);

  // Human-readable lines, then the JSON result as the last line.
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  void Add(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }

  std::string workload_;
  size_t scenarios_;
  int failed_;
  std::vector<Metric> metrics_;
  std::vector<std::string> lines_;
};

}  // namespace simbench

#endif  // SIMBENCH_REPORT_H_

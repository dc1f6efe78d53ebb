// The commercial-database TPC-H workload of §3.3 (Figure 3, Table 2).
//
// "The commercial database relies on pools of worker threads: a handful of
// container processes each provide several dozens of worker threads" — each
// container lives in its own autogroup, and the pools have *different*
// sizes, so worker loads differ (triggering the Group Imbalance bug when
// autogroups are enabled).
//
// A query runs as a sequence of fork/join stages: every worker computes a
// jittered slice, then waits on a blocking barrier. Workers therefore sleep
// and wake constantly, exercising the wakeup-placement path where the
// Overload-on-Wakeup bug lives; two workers stuck on the same core make all
// the others wait ("gaps" in Figure 3).
#ifndef SRC_WORKLOADS_TPCH_H_
#define SRC_WORKLOADS_TPCH_H_

#include <vector>

#include "src/sim/simulator.h"

namespace wcores {

struct TpchQuerySpec {
  int id = 0;
  int stages = 40;
  Time stage_compute = Milliseconds(1);
  double jitter = 0.3;
};

// The full 22-query benchmark, scaled for simulation speed. Query 18 is the
// most synchronization-sensitive one (many fine-grained stages).
std::vector<TpchQuerySpec> FullTpchSuite(double scale = 1.0);
TpchQuerySpec TpchQuery18(double scale = 1.0);

struct TpchConfig {
  // "configured with 64 worker threads (1 thread per core)". Pool sizes are
  // deliberately unequal: "different container processes have a different
  // number of worker threads", so worker loads differ up to 3x.
  std::vector<int> pool_sizes = {8, 14, 18, 24};
  std::vector<TpchQuerySpec> queries;
  uint64_t seed = 42;
};

class TpchWorkload {
 public:
  TpchWorkload(Simulator* sim, const TpchConfig& config) : sim_(sim), config_(config) {}

  void Setup();

  int TotalWorkers() const;
  bool Finished() const;
  // Wall time of the whole run and of each query.
  Time TotalTime() const;
  const std::vector<Time>& QueryTimes() const { return query_times_; }

  const std::vector<ThreadId>& workers() const { return worker_tids_; }

 private:
  Simulator* sim_;
  TpchConfig config_;
  std::vector<ThreadId> worker_tids_;
  std::vector<Time> query_times_;
  Time started_ = 0;
};

}  // namespace wcores

#endif  // SRC_WORKLOADS_TPCH_H_

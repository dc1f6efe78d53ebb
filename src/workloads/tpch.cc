#include "src/workloads/tpch.h"

#include <algorithm>

#include "src/simkit/check.h"
#include "src/workloads/behaviors.h"

namespace wcores {

std::vector<TpchQuerySpec> FullTpchSuite(double scale) {
  // 22 queries with assorted stage counts and granularities; the totals are
  // scaled down so the whole suite simulates quickly. Q18 (three-way join +
  // group-by) gets the most, finest-grained stages, matching its role as
  // "one of the queries most sensitive to the bug".
  std::vector<TpchQuerySpec> suite;
  struct Row {
    int id;
    int stages;
    Time compute;
    double jitter;
  };
  // Most queries are scan/aggregate-heavy with coarse stages (less
  // sensitive to wakeup placement); Q18 and a few join-heavy ones
  // synchronize finely and often.
  static const Row kRows[] = {
      {1, 10, Milliseconds(5), 0.2},  {2, 6, Milliseconds(2), 0.3},
      {3, 10, Milliseconds(2), 0.3},  {4, 8, Milliseconds(2), 0.3},
      {5, 10, Milliseconds(2), 0.3},  {6, 4, Milliseconds(5), 0.2},
      {7, 10, Milliseconds(2), 0.3},  {8, 16, Milliseconds(1), 0.3},
      {9, 12, Milliseconds(2), 0.3},  {10, 8, Milliseconds(2), 0.3},
      {11, 5, Milliseconds(2), 0.3},  {12, 6, Milliseconds(2), 0.2},
      {13, 8, Milliseconds(2), 0.4},  {14, 5, Milliseconds(2), 0.3},
      {15, 6, Milliseconds(2), 0.3},  {16, 8, Milliseconds(1), 0.4},
      {17, 18, Milliseconds(1), 0.3}, {18, 60, Microseconds(700), 0.4},
      {19, 7, Milliseconds(2), 0.3},  {20, 8, Milliseconds(2), 0.3},
      {21, 22, Milliseconds(1), 0.4}, {22, 5, Milliseconds(2), 0.3},
  };
  for (const Row& row : kRows) {
    TpchQuerySpec q;
    q.id = row.id;
    q.stages = std::max(1, static_cast<int>(row.stages * scale));
    q.stage_compute = row.compute;
    q.jitter = row.jitter;
    suite.push_back(q);
  }
  return suite;
}

TpchQuerySpec TpchQuery18(double scale) {
  for (const TpchQuerySpec& q : FullTpchSuite(scale)) {
    if (q.id == 18) {
      return q;
    }
  }
  return TpchQuerySpec{};
}

namespace {

// Executes the query plan: for each stage, compute a jittered slice then
// join the other workers at a blocking barrier. Worker 0 records query
// completion times into the workload.
class DbWorker : public Behavior {
 public:
  DbWorker(std::vector<Time>* query_times, Time* started,
           const std::vector<TpchQuerySpec>* queries, SyncId barrier, bool is_recorder)
      : query_times_(query_times), started_(started), queries_(queries), barrier_(barrier),
        is_recorder_(is_recorder) {}

  Action Next(BehaviorContext& ctx) override {
    if (pending_record_) {
      // Fires on the first call after the query's final barrier crossing.
      pending_record_ = false;
      query_times_->push_back(ctx.now - *started_ - PreviousQueriesTime());
    }
    if (query_ >= static_cast<int>(queries_->size())) {
      return ExitAction{};
    }
    const TpchQuerySpec& q = (*queries_)[query_];
    if (!at_barrier_) {
      at_barrier_ = true;
      Time mean = q.stage_compute;
      double factor = 1.0 + q.jitter * (2.0 * ctx.rng->NextDouble() - 1.0);
      return ComputeAction{static_cast<Time>(static_cast<double>(mean) * factor)};
    }
    at_barrier_ = false;
    ++stage_;
    if (stage_ >= q.stages) {
      stage_ = 0;
      ++query_;
      if (is_recorder_) {
        // Recorded when worker 0 passes the final barrier of the query —
        // within one wakeup latency of the true completion.
        pending_record_ = true;
      }
    }
    return BlockingBarrierAction{barrier_};
  }

 private:
  Time PreviousQueriesTime() const {
    Time total = 0;
    for (Time t : *query_times_) {
      total += t;
    }
    return total;
  }

  std::vector<Time>* query_times_;
  Time* started_;
  const std::vector<TpchQuerySpec>* queries_;
  SyncId barrier_;
  bool is_recorder_;
  int query_ = 0;
  int stage_ = 0;
  bool at_barrier_ = false;
  bool pending_record_ = false;
};

}  // namespace

void TpchWorkload::Setup() {
  WC_CHECK(worker_tids_.empty(), "Setup called twice");
  started_ = sim_->Now();
  if (config_.queries.empty()) {
    config_.queries = FullTpchSuite();
  }

  int total = TotalWorkers();
  SyncId barrier = sim_->CreateBlockingBarrier(total);

  bool first = true;
  int pool_index = 0;
  for (int pool_size : config_.pool_sizes) {
    // One container process per pool: own autogroup, workers forked on the
    // container's node.
    Simulator::SpawnParams params;
    params.autogroup = sim_->CreateAutogroup();
    params.parent_cpu =
        (pool_index * sim_->topo().cores_per_node()) % sim_->topo().n_cores();
    for (int i = 0; i < pool_size; ++i) {
      worker_tids_.push_back(sim_->Spawn(
          std::make_unique<DbWorker>(&query_times_, &started_, &config_.queries, barrier, first),
          params));
      first = false;
    }
    ++pool_index;
  }
}

int TpchWorkload::TotalWorkers() const {
  int total = 0;
  for (int s : config_.pool_sizes) {
    total += s;
  }
  return total;
}

bool TpchWorkload::Finished() const {
  for (ThreadId tid : worker_tids_) {
    if (sim_->thread(tid).Alive()) {
      return false;
    }
  }
  return true;
}

Time TpchWorkload::TotalTime() const {
  Time last = 0;
  for (ThreadId tid : worker_tids_) {
    last = std::max(last, sim_->thread(tid).finished_at);
  }
  return last > started_ ? last - started_ : 0;
}

}  // namespace wcores

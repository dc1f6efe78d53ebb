#include "src/workloads/make_r.h"

#include <algorithm>

#include "src/simkit/check.h"
#include "src/workloads/behaviors.h"

namespace wcores {

void MakeRWorkload::Setup() {
  WC_CHECK(make_tids_.empty(), "Setup called twice");
  started_ = sim_->Now();

  // Three ttys => three autogroups (§2.2.1, autogroup feature).
  AutogroupId make_group = sim_->CreateAutogroup();

  Simulator::SpawnParams make_params;
  make_params.autogroup = make_group;
  make_params.parent_cpu = config_.make_spawn_cpu;
  for (int i = 0; i < config_.make_threads; ++i) {
    make_tids_.push_back(
        sim_->Spawn(std::make_unique<ComputeSleepBehavior>(config_.make_work_per_thread,
                                                           config_.make_chunk, config_.make_sleep),
                    make_params));
  }

  for (int r = 0; r < config_.r_processes; ++r) {
    Simulator::SpawnParams r_params;
    r_params.autogroup = sim_->CreateAutogroup();
    r_params.parent_cpu =
        r < static_cast<int>(config_.r_cpus.size()) ? config_.r_cpus[r] : kInvalidCpu;
    r_tids_.push_back(sim_->Spawn(std::make_unique<CpuHogBehavior>(config_.r_work), r_params));
  }
}

Time MakeRWorkload::MakeCompletionTime() const {
  Time last = 0;
  for (ThreadId tid : make_tids_) {
    last = std::max(last, sim_->thread(tid).finished_at);
  }
  return last > started_ ? last - started_ : 0;
}

bool MakeRWorkload::MakeFinished() const {
  for (ThreadId tid : make_tids_) {
    if (sim_->thread(tid).Alive()) {
      return false;
    }
  }
  return true;
}

std::vector<Time> MakeRWorkload::RCompletionTimes() const {
  std::vector<Time> times;
  for (ThreadId tid : r_tids_) {
    Time fin = sim_->thread(tid).finished_at;
    times.push_back(fin > started_ ? fin - started_ : 0);
  }
  return times;
}

}  // namespace wcores

#include "src/workloads/nas.h"

#include <algorithm>

#include "src/simkit/check.h"
#include "src/workloads/behaviors.h"

namespace wcores {

const char* NasAppName(NasApp app) {
  switch (app) {
    case NasApp::kBt:
      return "bt";
    case NasApp::kCg:
      return "cg";
    case NasApp::kEp:
      return "ep";
    case NasApp::kFt:
      return "ft";
    case NasApp::kIs:
      return "is";
    case NasApp::kLu:
      return "lu";
    case NasApp::kMg:
      return "mg";
    case NasApp::kSp:
      return "sp";
    case NasApp::kUa:
      return "ua";
  }
  return "?";
}

const std::vector<NasApp>& AllNasApps() {
  static const std::vector<NasApp> kApps = {NasApp::kBt, NasApp::kCg, NasApp::kEp,
                                            NasApp::kFt, NasApp::kIs, NasApp::kLu,
                                            NasApp::kMg, NasApp::kSp, NasApp::kUa};
  return kApps;
}

namespace {

// Per-app synchronization parameters (see the table in nas.h). Iteration
// counts target ~0.4-0.6 virtual seconds of ideal parallel runtime so a
// whole table stays fast to simulate.
struct AppParams {
  enum class Kind { kBarrier, kLock, kPipeline, kComputeOnly };
  Kind kind = Kind::kBarrier;
  BarrierMode barrier_mode = BarrierMode::kHybrid;  // kBarrier only.
  Time granularity = Milliseconds(2);
  double jitter = 0.1;
  int iterations = 250;
  Time critical = Microseconds(40);   // kLock only.
  int barrier_every = 8;              // kPipeline only.
  Time spin_grace = Milliseconds(1);  // Hybrid barrier spin budget.
};

AppParams ParamsFor(NasApp app, double scale) {
  // OpenMP-built NAS codes use hybrid barriers (spin for GOMP_SPINCOUNT,
  // then block), so when crowded most apps suffer the CPU-share loss plus a
  // bounded amount of spin waste (1.3x-2.2x in Table 1). The outliers are
  // the codes with *unbounded* userspace spinning: cg (lock-protected
  // reductions), ua (pure spin barriers over irregular work) and above all
  // lu (fine-grain spin pipeline, 27x/138x).
  AppParams p;
  switch (app) {
    case NasApp::kEp:
      p.kind = AppParams::Kind::kComputeOnly;
      p.granularity = Milliseconds(20);
      p.iterations = 25;
      break;
    case NasApp::kBt:
      p.granularity = Milliseconds(2);
      p.iterations = 250;
      p.jitter = 0.15;
      break;
    case NasApp::kCg:
      p.kind = AppParams::Kind::kLock;
      p.granularity = Microseconds(300);
      p.critical = Microseconds(80);
      p.iterations = 1300;
      break;
    case NasApp::kFt:
      p.granularity = Microseconds(1500);
      p.iterations = 330;
      p.jitter = 0.1;
      break;
    case NasApp::kIs:
      // Integer sort: coarse phases, few of them, uneven work — the least
      // synchronization-bound app (smallest factors in Tables 1 and 3).
      p.granularity = Milliseconds(10);
      p.iterations = 50;
      p.jitter = 0.45;
      break;
    case NasApp::kLu:
      // Fine-grain spin pipeline + per-time-step spin barrier: the
      // pathological case (27x / 138x).
      p.kind = AppParams::Kind::kPipeline;
      p.granularity = Microseconds(150);
      p.iterations = 1500;
      p.barrier_every = 8;
      break;
    case NasApp::kMg:
      p.granularity = Microseconds(1000);
      p.iterations = 500;
      p.jitter = 0.2;
      break;
    case NasApp::kSp:
      p.granularity = Microseconds(800);
      p.iterations = 600;
      p.jitter = 0.15;
      break;
    case NasApp::kUa:
      // Unstructured adaptive mesh: irregular work between spin-leaning
      // hybrid barriers; the paper's second-worst super-linear case.
      p.barrier_mode = BarrierMode::kHybrid;
      p.spin_grace = Milliseconds(4);
      p.granularity = Microseconds(1500);
      p.iterations = 320;
      p.jitter = 0.35;
      break;
  }
  p.iterations = std::max(1, static_cast<int>(p.iterations * scale));
  return p;
}

}  // namespace

void NasWorkload::Setup() {
  WC_CHECK(tids_.empty(), "Setup called twice");
  started_ = sim_->Now();
  AppParams params = ParamsFor(config_.app, config_.scale);

  Simulator::SpawnParams sp;
  sp.affinity = config_.affinity;
  sp.parent_cpu = config_.spawn_cpu;
  if (sp.parent_cpu == kInvalidCpu && !config_.affinity.Empty()) {
    sp.parent_cpu = config_.affinity.First();
  }
  // One autogroup per application process.
  sp.autogroup = sim_->CreateAutogroup();

  switch (params.kind) {
    case AppParams::Kind::kComputeOnly: {
      SyncId barrier = sim_->CreateSpinBarrier(config_.threads);
      for (int i = 0; i < config_.threads; ++i) {
        tids_.push_back(sim_->Spawn(
            std::make_unique<ComputeOnlyBehavior>(barrier, params.granularity, params.iterations),
            sp));
      }
      break;
    }
    case AppParams::Kind::kBarrier: {
      SyncId barrier = params.barrier_mode == BarrierMode::kBlock
                           ? sim_->CreateBlockingBarrier(config_.threads)
                           : sim_->CreateSpinBarrier(config_.threads);
      for (int i = 0; i < config_.threads; ++i) {
        tids_.push_back(sim_->Spawn(std::make_unique<BarrierComputeBehavior>(
                                        barrier, params.barrier_mode, params.granularity,
                                        params.jitter, params.iterations, params.spin_grace),
                                    sp));
      }
      break;
    }
    case AppParams::Kind::kLock: {
      SyncId lock = sim_->CreateSpinLock();
      for (int i = 0; i < config_.threads; ++i) {
        tids_.push_back(sim_->Spawn(
            std::make_unique<LockComputeBehavior>(lock, params.granularity, params.critical,
                                                  params.iterations),
            sp));
      }
      break;
    }
    case AppParams::Kind::kPipeline: {
      std::vector<SyncId> vars;
      vars.reserve(config_.threads);
      for (int i = 0; i < config_.threads; ++i) {
        vars.push_back(sim_->CreateVar());
      }
      SyncId step_barrier = sim_->CreateSpinBarrier(config_.threads);
      for (int i = 0; i < config_.threads; ++i) {
        SyncId prev = i == 0 ? -1 : vars[i - 1];
        tids_.push_back(sim_->Spawn(
            std::make_unique<PipelineBehavior>(prev, vars[i], step_barrier, params.barrier_every,
                                               params.granularity, params.iterations),
            sp));
      }
      break;
    }
  }
}

bool NasWorkload::Finished() const {
  for (ThreadId tid : tids_) {
    if (sim_->thread(tid).Alive()) {
      return false;
    }
  }
  return true;
}

Time NasWorkload::CompletionTime() const {
  Time last = 0;
  for (ThreadId tid : tids_) {
    last = std::max(last, sim_->thread(tid).finished_at);
  }
  return last > started_ ? last - started_ : 0;
}

Time NasWorkload::TotalSpinTime() const {
  Time total = 0;
  for (ThreadId tid : tids_) {
    total += sim_->thread(tid).spin_time;
  }
  return total;
}

Time NasWorkload::TotalComputeTime() const {
  Time total = 0;
  for (ThreadId tid : tids_) {
    total += sim_->thread(tid).total_compute;
  }
  return total;
}

}  // namespace wcores

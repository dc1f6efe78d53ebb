// Reusable thread behaviors shared by the workload models.
#ifndef SRC_WORKLOADS_BEHAVIORS_H_
#define SRC_WORKLOADS_BEHAVIORS_H_

#include <cstdint>

#include "src/sim/thread.h"

namespace wcores {

// How threads wait at a barrier.
//  kSpin:   burn CPU until release (pure spin barriers — ua, lu's steps).
//  kHybrid: spin for a grace period then block, like OpenMP's default
//           wait policy (GOMP_SPINCOUNT) — the common NAS configuration.
//  kBlock:  sleep immediately (futex/condvar barriers — databases).
enum class BarrierMode { kSpin, kHybrid, kBlock };

// compute(granularity +/- jitter) ; barrier — the dominant NAS pattern.
class BarrierComputeBehavior : public Behavior {
 public:
  BarrierComputeBehavior(SyncId barrier, BarrierMode mode, Time granularity, double jitter,
                         int iterations, Time spin_grace = Milliseconds(1))
      : barrier_(barrier), mode_(mode), granularity_(granularity), jitter_(jitter),
        iterations_(iterations), spin_grace_(spin_grace) {}

  Action Next(BehaviorContext& ctx) override {
    if (iteration_ >= iterations_) {
      return ExitAction{};
    }
    if (!at_barrier_) {
      at_barrier_ = true;
      return ComputeAction{Jittered(ctx, granularity_, jitter_)};
    }
    at_barrier_ = false;
    ++iteration_;
    switch (mode_) {
      case BarrierMode::kSpin:
        return SpinBarrierAction{barrier_};
      case BarrierMode::kHybrid:
        return SpinBarrierAction{barrier_, spin_grace_};
      case BarrierMode::kBlock:
        return BlockingBarrierAction{barrier_};
    }
    return ExitAction{};
  }

  static Time Jittered(BehaviorContext& ctx, Time mean, double jitter) {
    if (jitter <= 0) {
      return mean;
    }
    double factor = 1.0 + jitter * (2.0 * ctx.rng->NextDouble() - 1.0);
    if (factor < 0.05) {
      factor = 0.05;
    }
    return static_cast<Time>(static_cast<double>(mean) * factor);
  }

 private:
  SyncId barrier_;
  BarrierMode mode_;
  Time granularity_;
  double jitter_;
  int iterations_;
  Time spin_grace_;
  int iteration_ = 0;
  bool at_barrier_ = false;
};

// compute(g) ; lock ; compute(critical) ; unlock — spinlock-heavy codes (cg).
// Exits after the last unlock.
class LockComputeBehavior : public Behavior {
 public:
  LockComputeBehavior(SyncId lock, Time granularity, Time critical, int iterations)
      : lock_(lock), granularity_(granularity), critical_(critical), iterations_(iterations) {}

  Action Next(BehaviorContext& ctx) override {
    if (done_) {
      return ExitAction{};
    }
    switch (step_) {
      case 0:
        step_ = 1;
        return ComputeAction{BarrierComputeBehavior::Jittered(ctx, granularity_, 0.3)};
      case 1:
        step_ = 2;
        return SpinLockAction{lock_};
      case 2:
        step_ = 3;
        return ComputeAction{critical_};
      default:
        step_ = 0;
        done_ = ++iteration_ >= iterations_;
        return SpinUnlockAction{lock_};
    }
  }

 private:
  SyncId lock_;
  Time granularity_;
  Time critical_;
  int iterations_;
  int iteration_ = 0;
  int step_ = 0;
  bool done_ = false;
};

// Pipeline hand-off (NAS lu): thread k spins until its predecessor finished
// iteration i, computes, then publishes its own progress. "lu uses a
// pipeline algorithm to parallelize work; threads wait for the data
// processed by other threads" (§3.2).
class PipelineBehavior : public Behavior {
 public:
  // `prev_var` < 0 for the pipeline head. Every `barrier_every` iterations
  // all threads additionally cross a spin barrier (SSOR's per-time-step
  // residual reduction), which is what makes lu catastrophic when cores are
  // oversubscribed: a single descheduled straggler makes every other thread
  // burn entire timeslices spinning.
  PipelineBehavior(SyncId prev_var, SyncId own_var, SyncId step_barrier, int barrier_every,
                   Time granularity, int iterations)
      : prev_var_(prev_var), own_var_(own_var), step_barrier_(step_barrier),
        barrier_every_(barrier_every), granularity_(granularity), iterations_(iterations) {}

  Action Next(BehaviorContext& ctx) override {
    switch (step_) {
      case 0:
        if (iteration_ >= iterations_) {
          return ExitAction{};
        }
        step_ = 1;
        if (prev_var_ >= 0) {
          return SpinUntilAction{prev_var_, iteration_ + 1};
        }
        [[fallthrough]];
      case 1:
        step_ = 2;
        return ComputeAction{BarrierComputeBehavior::Jittered(ctx, granularity_, 0.1)};
      case 2:
        step_ = 3;
        ++iteration_;
        return VarAddAction{own_var_, 1};
      default:
        step_ = 0;
        if (step_barrier_ >= 0 && barrier_every_ > 0 && iteration_ % barrier_every_ == 0) {
          // The per-time-step barrier is an OpenMP hybrid barrier: it blocks
          // once the spin grace expires (only the pipeline flags spin
          // unboundedly), which is what kept real lu at "only" 138x.
          return SpinBarrierAction{step_barrier_, Milliseconds(14)};
        }
        return Next(ctx);
    }
  }

 private:
  SyncId prev_var_;
  SyncId own_var_;
  SyncId step_barrier_;
  int barrier_every_;
  Time granularity_;
  int iterations_;
  int64_t iteration_ = 0;
  int step_ = 0;
};

// Pure compute in a handful of chunks, then one final barrier (NAS ep).
class ComputeOnlyBehavior : public Behavior {
 public:
  ComputeOnlyBehavior(SyncId final_barrier, Time chunk, int chunks)
      : barrier_(final_barrier), chunk_(chunk), chunks_(chunks) {}

  Action Next(BehaviorContext& ctx) override {
    if (done_ < chunks_) {
      ++done_;
      return ComputeAction{BarrierComputeBehavior::Jittered(ctx, chunk_, 0.2)};
    }
    if (!crossed_) {
      crossed_ = true;
      return SpinBarrierAction{barrier_};
    }
    return ExitAction{};
  }

 private:
  SyncId barrier_;
  Time chunk_;
  int chunks_;
  int done_ = 0;
  bool crossed_ = false;
};

// compute/sleep loop with a fixed total compute budget — `make` compile jobs
// and other I/O-punctuated work.
class ComputeSleepBehavior : public Behavior {
 public:
  ComputeSleepBehavior(Time total_work, Time chunk_mean, Time sleep_mean)
      : remaining_(total_work), chunk_mean_(chunk_mean), sleep_mean_(sleep_mean) {}

  Action Next(BehaviorContext& ctx) override {
    if (remaining_ == 0) {
      return ExitAction{};
    }
    if (!sleeping_) {
      sleeping_ = true;
      Time chunk = BarrierComputeBehavior::Jittered(ctx, chunk_mean_, 0.5);
      if (chunk > remaining_) {
        chunk = remaining_;
      }
      remaining_ -= chunk;
      return ComputeAction{chunk};
    }
    sleeping_ = false;
    if (remaining_ == 0) {
      return ExitAction{};
    }
    return SleepAction{BarrierComputeBehavior::Jittered(ctx, sleep_mean_, 0.5)};
  }

 private:
  Time remaining_;
  Time chunk_mean_;
  Time sleep_mean_;
  bool sleeping_ = false;
};

// Uninterrupted CPU hog with a fixed total (the R processes of §3.1).
class CpuHogBehavior : public Behavior {
 public:
  explicit CpuHogBehavior(Time total_work, Time chunk = Milliseconds(50))
      : remaining_(total_work), chunk_(chunk) {}

  Action Next(BehaviorContext& ctx) override {
    (void)ctx;
    if (remaining_ == 0) {
      return ExitAction{};
    }
    Time c = chunk_ > remaining_ ? remaining_ : chunk_;
    remaining_ -= c;
    return ComputeAction{c};
  }

 private:
  Time remaining_;
  Time chunk_;
};

}  // namespace wcores

#endif  // SRC_WORKLOADS_BEHAVIORS_H_

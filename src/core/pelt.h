// Per-entity load tracking (§2.2.1, "The load tracking metric").
//
// CFS balances runqueues by *load*: the combination of a thread's weight and
// its average CPU utilization. A thread that rarely needs the CPU has its
// load decayed accordingly. The kernel implements this with PELT (per-entity
// load tracking): a geometric series over 1 ms periods where a contribution
// 32 ms in the past counts half. We implement the continuous-time equivalent,
// an exponentially-decayed average with half-life 32 ms:
//
//   avg(t + d) = avg(t) * 2^(-d/32ms) + state * (1 - 2^(-d/32ms))
//
// where state is 1 while the entity is runnable (running or waiting in a
// runqueue) and 0 while it sleeps. The value converges to the fraction of
// time the entity spends runnable, which is what the balancer multiplies by
// the weight (and divides by the autogroup size) to obtain the load.
#ifndef SRC_CORE_PELT_H_
#define SRC_CORE_PELT_H_

#include <cmath>

#include "src/simkit/exact.h"
#include "src/simkit/time.h"

namespace wcores {

class LoadTracker {
 public:
  // PELT half-life: a contribution 32 ms in the past weighs one half.
  static constexpr Time kHalfLife = Milliseconds(32);

  // Decay() saturates to exactly 0.0 beyond this horizon (20 half-lives; the
  // true factor would be below 1e-6), keeping exp2 out of the common idle
  // path.
  static constexpr Time kSaturationHorizon = 20 * kHalfLife;

  // Threads start with a full contribution, like the kernel's
  // init_entity_runnable_average: a new thread is assumed CPU-hungry until
  // proven otherwise.
  explicit LoadTracker(double initial = 1.0) : avg_(initial) {}

  // Accounts the elapsed time since the last update under the previous
  // state, then switches to `runnable`.
  void SetState(Time now, bool runnable) {
    Advance(now);
    runnable_ = runnable;
  }

  // Accounts elapsed time under the current state.
  void Advance(Time now) {
    avg_ = ValueAt(now);
    last_update_ = now;
  }

  // Projected average at `now` without mutating. Pure; used by the balancer
  // and the sanity checker, which read many entities per pass.
  double ValueAt(Time now) const {
    if (now <= last_update_) {
      return avg_;
    }
    // Saturated trackers are fixed points of the decay blend, so returning
    // avg_ directly is bit-identical and spares the balance folds a libm
    // exp2 for every fully-ramped hog and fully-decayed sleeper. With
    // k = Decay(now - last_update_) in [0, 1]:
    //  - runnable, avg_ == 1.0: the blend is fl(1.0 * k + fl(1.0 - k)), and
    //    1.0 * k is exactly k. For k >= 0.5, fl(1.0 - k) is exact by the
    //    Sterbenz lemma, so the sum is exactly 1.0. For k < 0.5, 1.0 - k lies
    //    in (0.5, 1] where the spacing is 2^-53, so fl(1.0 - k) = 1 - k + e
    //    with |e| <= 2^-54; the true sum k + fl(1.0 - k) = 1 + e then rounds
    //    to 1.0 (1 - 2^-54 is the tie midpoint below 1.0 and resolves to the
    //    even mantissa, 1.0). A continuously runnable thread reaches 1.0
    //    either at creation or by this rounding after ~54 half-lives.
    //  - blocked, avg_ == 0.0: fl(0.0 * k + 0.0 * (1 - k)) is exactly 0.0.
    // The equality test is deliberate: it probes for the exact saturated
    // values, not for approximate convergence.
    if (runnable_ ? ExactlyEqual(avg_, 1.0) : ExactlyEqual(avg_, 0.0)) {
      return avg_;
    }
    double k = Decay(now - last_update_);
    return avg_ * k + (runnable_ ? 1.0 : 0.0) * (1.0 - k);
  }

  // Decay factor 2^(-elapsed / half-life), saturating to 0.0 beyond
  // kSaturationHorizon. Public so the golden decay table test can pin its
  // exact values. Inline so ValueAt — called once per entity per balance
  // fold — keeps the saturation test and the division at the call site; the
  // exp2 itself stays a libm call, so the produced doubles are the same
  // whether or not inlining happens.
  static double Decay(Time elapsed);

  bool runnable() const { return runnable_; }
  Time last_update() const { return last_update_; }

 private:
  double avg_ = 0.0;
  Time last_update_ = 0;
  bool runnable_ = false;
};

inline double LoadTracker::Decay(Time elapsed) {
  // 2^(-elapsed / half-life). Beyond the saturation horizon the contribution
  // is below 1e-6; short-circuit to keep exp2 out of the common idle path.
  if (elapsed > kSaturationHorizon) {
    return 0.0;
  }
  return std::exp2(-static_cast<double>(elapsed) / static_cast<double>(kHalfLife));
}

}  // namespace wcores

#endif  // SRC_CORE_PELT_H_

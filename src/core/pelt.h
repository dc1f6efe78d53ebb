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
//
// Decay-forward (the balancer's cross-instant caches): rolling a cached
// aggregate forward from instant t0 to t1 by multiplying with Decay(t1 - t0)
// is how the kernel's ___update_load_sum amortizes per-entity walks, but in
// IEEE-754 doubles that multiply is NOT bit-identical to re-evaluating
// ValueAt at t1 — exp2 of a sum is not the rounded product of exp2s, and
// float multiplication does not distribute over a sum of entities (the golden
// table test in tests/core/pelt_test.cc pins both failures). The subdomain
// where decay-forward IS exact — trivially, with a roll-forward factor of
// exactly 1.0 — is the set of trackers whose ValueAt is *constant*:
// fully-ramped runnable entities and fully-decayed blocked ones. That is what
// ConstantFrom() below detects, and what the RqLoad memo in
// src/core/scheduler.h keys its cross-instant validity on.
#ifndef SRC_CORE_PELT_H_
#define SRC_CORE_PELT_H_

#include <cmath>

#include "src/simkit/time.h"

namespace wcores {

class LoadTracker {
 public:
  // PELT half-life: a contribution 32 ms in the past weighs one half.
  static constexpr Time kHalfLife = Milliseconds(32);

  // Decay() saturates to exactly 0.0 beyond this horizon (20 half-lives; the
  // true factor would be below 1e-6). Besides keeping exp2 out of the common
  // idle path, the saturation makes long-elapsed trackers exactly constant,
  // which ConstantFrom() exploits.
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
    // wc-lint: allow(A4 the tracker folding its own history, not a rq sum)
    avg_ = ValueAt(now);
    last_update_ = now;
  }

  // Projected average at `now` without mutating. Pure; used by the balancer
  // and the sanity checker, which read many entities per pass.
  double ValueAt(Time now) const {
    if (now <= last_update_) {
      return avg_;
    }
    // Saturated trackers are fixed points of the decay blend — the
    // ConstantFrom() cases 1 and 2 below prove fl(avg*k + state*(1-k))
    // lands back on avg_ exactly, for every k in [0, 1]. Returning avg_
    // directly is therefore bit-identical, and spares the balance folds a
    // libm exp2 for every fully-ramped hog and fully-decayed sleeper.
    // wc-lint: allow(D4 exact-saturation probe; fixed points of ValueAt, see ConstantFrom proof)
    if (runnable_ ? avg_ == 1.0 : avg_ == 0.0) {
      return avg_;
    }
    double k = Decay(now - last_update_);
    return avg_ * k + (runnable_ ? 1.0 : 0.0) * (1.0 - k);
  }

  // True if ValueAt(u) returns one and the same double for every u >= t
  // (with t >= last_update_): the tracker's contribution to any sum taken at
  // or after t can be cached at t and reused verbatim at later instants —
  // exact decay-forward, with a roll-forward factor of exactly 1.0.
  //
  // The three constant cases, with the IEEE-754 argument:
  //
  //  1. runnable && avg_ == 1.0. For u > last_update_, ValueAt computes
  //     fl(1.0 * k + fl(1.0 - k)) with k = Decay(u - last_update_) in [0, 1].
  //     1.0 * k is exactly k. For k >= 0.5, fl(1.0 - k) is exact by the
  //     Sterbenz lemma, so the sum is exactly 1.0. For k < 0.5, 1.0 - k lies
  //     in (0.5, 1] where the spacing is 2^-53, so fl(1.0 - k) = 1 - k + e
  //     with |e| <= 2^-54; the true sum k + fl(1.0 - k) = 1 + e then rounds
  //     to 1.0 (1 - 2^-54 is the tie midpoint below 1.0 and resolves to the
  //     even mantissa, 1.0). Hence ValueAt == 1.0 for all u. A continuously
  //     runnable thread reaches avg_ == 1.0 either at creation (trackers are
  //     born at 1.0) or by the same rounding after ~54 half-lives (~1.7 s).
  //  2. !runnable && avg_ == 0.0. ValueAt computes fl(0.0 * k + 0.0 * (1-k))
  //     which is exactly 0.0 for every finite k.
  //  3. t - last_update_ > kSaturationHorizon. Decay saturates to 0.0 for
  //     every u >= t, so ValueAt is exactly (runnable ? 1.0 : 0.0).
  //
  // The equality tests below are deliberate: they probe for the exact
  // saturated values, not for approximate convergence.
  bool ConstantFrom(Time t) const {
    if (t > last_update_ && t - last_update_ > kSaturationHorizon) {
      return true;
    }
    // wc-lint: allow(D4 exact-saturation probe; 1.0 and 0.0 are fixed points of ValueAt, see proof above)
    return runnable_ ? avg_ == 1.0 : avg_ == 0.0;
  }

  // Decay factor 2^(-elapsed / half-life), saturating to 0.0 beyond
  // kSaturationHorizon. Public so the decay-forward golden tests and the
  // fuzzer's property checks can pin its exact values. Inline so ValueAt —
  // called once per entity per balance fold — keeps the saturation test and
  // the division at the call site; the exp2 itself stays a libm call, so
  // the produced doubles are the same whether or not inlining happens.
  static double Decay(Time elapsed);

  // Closed-form multi-period decay: the factor covering `periods`
  // back-to-back spans of `period`, evaluated as a single exp2 over the
  // total elapsed time — the form the tracker itself uses. In IEEE doubles
  // this is NOT the same as multiplying Decay(period) by itself `periods`
  // times (the golden table test demonstrates the divergence), which is why
  // the balancer's caches roll sums forward only across the constant
  // subdomain (ConstantFrom) instead of scaling them.
  static double DecayPeriods(Time period, int periods);

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
  // The saturated 0.0 is also what makes ConstantFrom's case 3 exact.
  if (elapsed > kSaturationHorizon) {
    return 0.0;
  }
  return std::exp2(-static_cast<double>(elapsed) / static_cast<double>(kHalfLife));
}

inline double LoadTracker::DecayPeriods(Time period, int periods) {
  if (periods <= 0) {
    return 1.0;
  }
  return Decay(period * static_cast<Time>(periods));
}

}  // namespace wcores

#endif  // SRC_CORE_PELT_H_

#include "src/core/pelt.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace wcores {
namespace {

TEST(PeltTest, NewTrackerStartsFull) {
  LoadTracker t;
  EXPECT_DOUBLE_EQ(t.ValueAt(0), 1.0);
}

TEST(PeltTest, DecaysTowardZeroWhileBlocked) {
  LoadTracker t;
  t.SetState(0, false);
  double v32 = t.ValueAt(Milliseconds(32));
  EXPECT_NEAR(v32, 0.5, 1e-9);  // One half-life.
  double v64 = t.ValueAt(Milliseconds(64));
  EXPECT_NEAR(v64, 0.25, 1e-9);
}

TEST(PeltTest, GrowsTowardOneWhileRunnable) {
  LoadTracker t(0.0);
  t.SetState(0, true);
  EXPECT_NEAR(t.ValueAt(Milliseconds(32)), 0.5, 1e-9);
  EXPECT_NEAR(t.ValueAt(Milliseconds(320)), 1.0, 1e-3);
}

TEST(PeltTest, ValueAtIsPure) {
  LoadTracker t;
  t.SetState(0, false);
  double a = t.ValueAt(Milliseconds(10));
  double b = t.ValueAt(Milliseconds(10));
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_EQ(t.last_update(), 0u);
}

TEST(PeltTest, AdvanceCommitsDecay) {
  LoadTracker t;
  t.SetState(0, false);
  t.Advance(Milliseconds(32));
  EXPECT_EQ(t.last_update(), Milliseconds(32));
  EXPECT_NEAR(t.ValueAt(Milliseconds(32)), 0.5, 1e-9);
  EXPECT_NEAR(t.ValueAt(Milliseconds(64)), 0.25, 1e-9);
}

TEST(PeltTest, FiftyPercentDutyCycleConvergesToHalf) {
  LoadTracker t(0.0);
  Time now = 0;
  for (int i = 0; i < 2000; ++i) {
    t.SetState(now, true);
    now += Milliseconds(1);
    t.SetState(now, false);
    now += Milliseconds(1);
  }
  EXPECT_NEAR(t.ValueAt(now), 0.5, 0.03);
}

TEST(PeltTest, MostlyIdleThreadHasLowLoad) {
  // "If a thread does not use much of a CPU, its load will be decreased
  // accordingly" (§2.2.1): 10% duty cycle -> ~0.1.
  LoadTracker t(0.0);
  Time now = 0;
  for (int i = 0; i < 2000; ++i) {
    t.SetState(now, true);
    now += Microseconds(200);
    t.SetState(now, false);
    now += Microseconds(1800);
  }
  EXPECT_NEAR(t.ValueAt(now), 0.1, 0.03);
}

TEST(PeltTest, LongBlockedGapShortCircuitsToZero) {
  LoadTracker t;
  t.SetState(0, false);
  EXPECT_DOUBLE_EQ(t.ValueAt(Seconds(100)), 0.0);
}

TEST(PeltTest, TimeGoingBackwardsIsClamped) {
  LoadTracker t;
  t.Advance(Milliseconds(10));
  EXPECT_DOUBLE_EQ(t.ValueAt(Milliseconds(5)), t.ValueAt(Milliseconds(10)));
}

TEST(PeltTest, StateIsVisible) {
  LoadTracker t;
  t.SetState(5, true);
  EXPECT_TRUE(t.runnable());
  t.SetState(6, false);
  EXPECT_FALSE(t.runnable());
}

// ---- Exact values ----------------------------------------------------------
//
// The golden table below pins the exact IEEE-754 doubles Decay produces at
// period multiples. If any of these drift — a different exp2, a different
// fold, a "harmless" refactor to fixed-point — every load the balancer reads
// changes and all sweep trace hashes break, so this test fails first, with a
// readable diff.
TEST(PeltDecayForwardTest, GoldenDecayTable) {
  struct Row {
    Time elapsed;
    double factor;
  };
  const Row kGolden[] = {
      {Milliseconds(1), 0x1.f50765b6e4540p-1},
      {Milliseconds(2), 0x1.ea4afa2a490dap-1},
      {Milliseconds(4), 0x1.d5818dcfba487p-1},
      {Milliseconds(8), 0x1.ae89f995ad3adp-1},
      {Milliseconds(16), 0x1.6a09e667f3bcdp-1},  // Half a half-life: 2^-0.5.
      {Milliseconds(32), 0x1.0000000000000p-1},  // One half-life: exactly 0.5.
      {Milliseconds(48), 0x1.6a09e667f3bcdp-2},
      {Milliseconds(64), 0x1.0000000000000p-2},  // Two half-lives: exactly 0.25.
      {Milliseconds(96), 0x1.0000000000000p-3},
      {Milliseconds(128), 0x1.0000000000000p-4},
      {Milliseconds(320), 0x1.0000000000000p-10},
      {Milliseconds(640), 0x1.0000000000000p-20},  // Saturation horizon itself.
      {Milliseconds(641), 0.0},                    // Past it: exact zero.
      {Seconds(100), 0.0},
  };
  for (const Row& row : kGolden) {
    EXPECT_EQ(LoadTracker::Decay(row.elapsed), row.factor)
        << "Decay(" << row.elapsed << ") drifted";
  }
}

// The identity ValueAt's saturation shortcut rests on: for every decay
// factor k in [0, 1], fl(1.0 * k + fl(1.0 - k)) == 1.0 — a fully-ramped
// runnable tracker is a fixed point of the decay blend. Swept densely over
// elapsed times (which is how k values arise in the tracker), including the
// sub-half-life range where k > 0.5 (Sterbenz territory) and the deep tail
// where fl(1-k) rounds.
TEST(PeltDecayForwardTest, FullyRampedRunnableIsFixedPoint) {
  for (Time elapsed = 1; elapsed <= LoadTracker::kSaturationHorizon + Milliseconds(1);
       elapsed += Microseconds(97)) {
    double k = LoadTracker::Decay(elapsed);
    EXPECT_EQ(1.0 * k + (1.0 - k), 1.0) << "elapsed=" << elapsed << " k=" << k;
  }
  // And through the tracker itself, at awkward instants.
  LoadTracker t(1.0);
  t.SetState(0, true);
  for (Time now : {Nanoseconds(1), Microseconds(1), Microseconds(333), Milliseconds(1),
                   Milliseconds(31), Milliseconds(32), Milliseconds(33), Milliseconds(555),
                   Milliseconds(641), Seconds(100)}) {
    EXPECT_EQ(t.ValueAt(now), 1.0) << "now=" << now;
  }
}

// Saturated trackers — fully ramped and runnable, fully decayed and blocked —
// return the same double at every later instant; a tracker in motion reaches
// its saturated value exactly once the saturation horizon has passed.
TEST(PeltTest, SaturatedTrackersHoldTheirValue) {
  const Time t0 = Milliseconds(100);

  // Born full and runnable from birth. (SetState at a later instant would
  // decay the tracker first — trackers are born non-runnable.)
  LoadTracker ramped(1.0);
  ramped.SetState(0, true);
  LoadTracker drained(0.0);
  drained.SetState(t0, false);
  for (const LoadTracker* t : {&ramped, &drained}) {
    double v0 = t->ValueAt(t0);
    for (int n = 1; n <= 64; ++n) {
      EXPECT_EQ(t->ValueAt(t0 + Milliseconds(7) * static_cast<Time>(n)), v0);
    }
  }

  LoadTracker ramping(0.5);
  ramping.SetState(t0, true);
  EXPECT_NE(ramping.ValueAt(t0 + Milliseconds(1)), ramping.ValueAt(t0 + Milliseconds(2)));
  EXPECT_EQ(ramping.ValueAt(t0 + LoadTracker::kSaturationHorizon + 1), 1.0);

  LoadTracker draining(0.5);
  draining.SetState(t0, false);
  EXPECT_NE(draining.ValueAt(t0 + Milliseconds(1)), draining.ValueAt(t0 + Milliseconds(2)));
  EXPECT_EQ(draining.ValueAt(t0 + LoadTracker::kSaturationHorizon + 1), 0.0);
}

// Committing a saturated tracker at a later instant re-derives the same
// fixed point.
TEST(PeltTest, AdvanceKeepsSaturatedValue) {
  LoadTracker t(1.0);
  t.SetState(0, true);
  for (Time now = Milliseconds(5); now < Seconds(2); now += Milliseconds(173)) {
    t.Advance(now);
    EXPECT_EQ(t.ValueAt(now + Seconds(1)), 1.0);
  }
}

// A hog that was not born full converges to *exactly* 1.0 by rounding after
// ~54 half-lives of continuous runnability, and stays there.
TEST(PeltTest, ContinuousRunnabilityReachesExactOne) {
  LoadTracker t(0.0);
  t.SetState(0, true);
  EXPECT_LT(t.ValueAt(Milliseconds(500)), 1.0);
  const Time converged = 54 * LoadTracker::kHalfLife;
  EXPECT_EQ(t.ValueAt(converged), 1.0);
  t.Advance(converged);
  EXPECT_EQ(t.ValueAt(converged + Seconds(10)), 1.0);
}

}  // namespace
}  // namespace wcores

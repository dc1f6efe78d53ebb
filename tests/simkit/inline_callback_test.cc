#include "src/simkit/inline_callback.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "src/simkit/event_queue.h"

namespace wcores {
namespace {

TEST(InlineCallbackTest, DefaultConstructedIsEmpty) {
  InlineCallback cb;
  EXPECT_FALSE(static_cast<bool>(cb));
}

TEST(InlineCallbackTest, InvokesStoredCallable) {
  int hits = 0;
  InlineCallback cb([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(cb));
  cb();
  cb();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallbackTest, CapturesUpToCapacityBytes) {
  // Two pointers — the simulator's worst case — is exactly kCapacity on
  // LP64; the callback must carry both values intact.
  int64_t a = 0;
  int64_t b = 0;
  int64_t* pa = &a;
  int64_t* pb = &b;
  InlineCallback cb([pa, pb] {
    *pa = 7;
    *pb = 11;
  });
  cb();
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 11);
}

TEST(InlineCallbackTest, MoveTransfersAndEmptiesSource) {
  int hits = 0;
  int* p = &hits;
  InlineCallback src([p] { ++*p; });
  InlineCallback dst(std::move(src));
  EXPECT_FALSE(static_cast<bool>(src));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(dst));
  dst();
  EXPECT_EQ(hits, 1);

  InlineCallback assigned;
  assigned = std::move(dst);
  EXPECT_FALSE(static_cast<bool>(dst));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(assigned));
  assigned();
  EXPECT_EQ(hits, 2);
}

TEST(InlineCallbackTest, MoveOnlySemantics) {
  static_assert(!std::is_copy_constructible_v<InlineCallback>);
  static_assert(!std::is_copy_assignable_v<InlineCallback>);
  static_assert(std::is_nothrow_move_constructible_v<InlineCallback>);
  static_assert(std::is_nothrow_move_assignable_v<InlineCallback>);
}

TEST(InlineCallbackTest, CanHoldProbesTheExactBoundary) {
  struct Sixteen {
    char bytes[16];
    void operator()() const {}
  };
  struct Seventeen {
    char bytes[17];
    void operator()() const {}
  };
  struct OverAligned {
    alignas(32) char bytes[8];
    void operator()() const {}
  };
  static_assert(InlineCallback::CanHold<Sixteen>());
  static_assert(!InlineCallback::CanHold<Seventeen>());
  static_assert(!InlineCallback::CanHold<OverAligned>());
  // Captureless lambdas and raw function pointers trivially fit.
  auto lambda = [] {};
  static_assert(InlineCallback::CanHold<decltype(lambda)>());
  static_assert(InlineCallback::CanHold<void (*)()>());
}

// Cancellation interplay with the queue's pooled slots: a cancelled event's
// InlineCallback stays parked in its slot until pop-time lazy deletion, and
// its (trivially copyable) captures need no destruction; slot recycling must
// not resurrect it.
TEST(InlineCallbackTest, CancelledEntryNeverFiresAfterSlotReuse) {
  EventQueue q;
  int cancelled_hits = 0;
  int live_hits = 0;
  int* pc = &cancelled_hits;
  int* pl = &live_hits;
  EventHandle doomed = q.ScheduleAt(10, [pc] { ++*pc; });
  EventHandle stale = doomed;
  doomed.Cancel();
  // The dead key holds its slot until it leaves the queue; this RunOne drops
  // it, so the next schedule recycles the slot. The generation bump keeps
  // the stale copy from seeing, or cancelling, the slot's new occupant.
  EXPECT_FALSE(q.RunOne());
  EventHandle live = q.ScheduleAt(10, [pl] { ++*pl; });
  EXPECT_FALSE(stale.Pending());
  stale.Cancel();
  EXPECT_TRUE(live.Pending());
  q.RunAll();
  EXPECT_EQ(cancelled_hits, 0);
  EXPECT_EQ(live_hits, 1);
  EXPECT_EQ(q.executed_count(), 1u);
}

TEST(InlineCallbackTest, RescheduleFromInsideCallback) {
  // The self-rescheduling pattern used by ticks: the struct re-passes
  // itself by value, which requires trivially-copyable self-copies to be
  // admitted while an instance is executing.
  struct Rearm {
    EventQueue* q;
    int* count;
    void operator()() const {
      ++*count;
      if (*count < 3) {
        q->ScheduleAfter(5, *this);
      }
    }
  };
  EventQueue q;
  int count = 0;
  q.ScheduleAt(0, Rearm{&q, &count});
  q.RunAll();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(q.now(), 10u);
}

}  // namespace
}  // namespace wcores

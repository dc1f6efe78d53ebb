#include "src/simkit/event_queue.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "src/simkit/rng.h"

namespace wcores {
namespace {

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(30, [&] { order.push_back(3); });
  q.ScheduleAt(10, [&] { order.push_back(1); });
  q.ScheduleAt(20, [&] { order.push_back(2); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueueTest, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.ScheduleAt(5, [&] { order.push_back(1); });
  q.ScheduleAt(5, [&] { order.push_back(2); });
  q.ScheduleAt(5, [&] { order.push_back(3); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, ScheduleAfterUsesNow) {
  EventQueue q;
  Time seen = kTimeNever;
  q.ScheduleAt(100, [&] { q.ScheduleAfter(50, [&] { seen = q.now(); }); });
  q.RunAll();
  EXPECT_EQ(seen, 150u);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(h.Pending());
  h.Cancel();
  EXPECT_FALSE(h.Pending());
  q.RunAll();
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, HandleNotPendingAfterFire) {
  EventQueue q;
  EventHandle h = q.ScheduleAt(10, [] {});
  q.RunAll();
  EXPECT_FALSE(h.Pending());
  h.Cancel();  // Safe no-op.
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  std::vector<Time> fired;
  for (Time t = 10; t <= 100; t += 10) {
    q.ScheduleAt(t, [&, t] { fired.push_back(t); });
  }
  uint64_t n = q.RunUntil(50);
  EXPECT_EQ(n, 5u);
  EXPECT_EQ(q.now(), 50u);
  EXPECT_FALSE(q.Empty());
  q.RunAll();
  EXPECT_EQ(fired.size(), 10u);
}

TEST(EventQueueTest, EventsScheduledDuringRunExecute) {
  EventQueue q;
  int depth = 0;
  q.ScheduleAt(1, [&] {
    ++depth;
    q.ScheduleAfter(1, [&] {
      ++depth;
      q.ScheduleAfter(1, [&] { ++depth; });
    });
  });
  q.RunAll();
  EXPECT_EQ(depth, 3);
  EXPECT_EQ(q.now(), 3u);
}

TEST(EventQueueTest, EmptyAndLiveCountTrackCancellation) {
  EventQueue q;
  EventHandle a = q.ScheduleAt(5, [] {});
  EventHandle b = q.ScheduleAt(6, [] {});
  EXPECT_EQ(q.LiveCount(), 2u);
  a.Cancel();
  EXPECT_EQ(q.LiveCount(), 1u);
  EXPECT_FALSE(q.Empty());
  b.Cancel();
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.RunOne());
}

TEST(EventQueueTest, ExecutedCountAccumulates) {
  EventQueue q;
  for (int i = 0; i < 7; ++i) {
    q.ScheduleAt(i + 1, [] {});
  }
  q.RunAll();
  EXPECT_EQ(q.executed_count(), 7u);
}

TEST(EventQueueTest, RunOneReturnsFalsePastUntil) {
  EventQueue q;
  q.ScheduleAt(100, [] {});
  EXPECT_FALSE(q.RunOne(50));
  EXPECT_EQ(q.now(), 50u);  // Clock advances to the boundary.
  EXPECT_TRUE(q.RunOne(200));
}

// A heap key due now with a smaller seq than a now-lane entry fires first:
// Y was scheduled for t=10 before the clock got there, Z at t=10 from
// inside X, so (10, Y) < (10, Z) although Z sits in the lane.
TEST(EventQueueTest, HeapEntryDueNowBeatsLaterLaneEntry) {
  EventQueue q;
  std::vector<char> order;
  q.ScheduleAt(10, [&] {
    order.push_back('X');
    q.ScheduleAt(q.now(), [&] { order.push_back('Z'); });
  });
  q.ScheduleAt(10, [&] { order.push_back('Y'); });
  q.RunAll();
  EXPECT_EQ(order, (std::vector<char>{'X', 'Y', 'Z'}));
}

// From-scratch twin: the queue against a std::set of (when, seq), driven by
// seeded random ScheduleAt/ScheduleAfter/Cancel/RunOne(until) calls, with
// callbacks that schedule more events (a third of them at now()). Every
// step must agree on extraction order, Pending(), LiveCount() and now().
class QueueTwin {
 public:
  explicit QueueTwin(uint64_t seed) : rng_(seed) {}

  void Step() {
    uint64_t op = rng_.NextBelow(10);
    if (op < 4) {
      Schedule(RandomWhen(), /*after=*/op == 0);
    } else if (op < 6) {
      CancelRandom();
    } else {
      RunOne();
    }
    ASSERT_EQ(q_.LiveCount(), ref_.size());
    ASSERT_EQ(q_.Empty(), ref_.empty());
    ASSERT_EQ(q_.now(), ref_now_);
    for (int probe = 0; probe < 4 && !events_.empty(); ++probe) {
      size_t id = rng_.NextBelow(events_.size());
      ASSERT_EQ(events_[id].handle.Pending(), ref_.count(Key(id)) == 1) << "event " << id;
    }
  }

  void Drain() {
    while (!ref_.empty()) {
      RunOne();
    }
    EXPECT_FALSE(q_.RunOne());
    EXPECT_EQ(q_.executed_count(), executed_);
  }

 private:
  struct Event {
    Time when;
    uint64_t seq;
    EventHandle handle;
  };
  using RefKey = std::tuple<Time, uint64_t, size_t>;

  RefKey Key(size_t id) const { return {events_[id].when, events_[id].seq, id}; }

  Time RandomWhen() {
    uint64_t r = rng_.NextBelow(3);
    return r == 0 ? ref_now_ : ref_now_ + rng_.NextInRange(1, r == 1 ? 5 : 200);
  }

  void Schedule(Time when, bool after) {
    size_t id = events_.size();
    QueueTwin* self = this;
    auto fire = [self, id] { self->Fired(id); };
    EventHandle h = after ? q_.ScheduleAfter(when - ref_now_, fire) : q_.ScheduleAt(when, fire);
    events_.push_back(Event{when, next_seq_++, h});
    ref_.insert(Key(id));
  }

  void CancelRandom() {
    if (events_.empty()) {
      return;
    }
    size_t id = rng_.NextBelow(events_.size());
    events_[id].handle.Cancel();
    ref_.erase(Key(id));
  }

  // The reference pops first, so a firing callback sees the twin's clock
  // already at its own instant.
  void RunOne() {
    Time until = rng_.NextBelow(4) == 0 ? kTimeNever : ref_now_ + rng_.NextBelow(60);
    expected_ = kNone;
    bool ref_ran = false;
    if (!ref_.empty()) {
      if (std::get<0>(*ref_.begin()) > until) {
        ref_now_ = std::max(ref_now_, until);
      } else {
        expected_ = std::get<2>(*ref_.begin());
        ref_now_ = std::get<0>(*ref_.begin());
        ref_.erase(ref_.begin());
        ref_ran = true;
      }
    }
    fired_ = kNone;
    ASSERT_EQ(q_.RunOne(until), ref_ran);
    ASSERT_EQ(fired_, expected_);
  }

  void Fired(size_t id) {
    fired_ = id;
    ++executed_;
    // Children: often one at now(), sometimes a later one too.
    uint64_t r = rng_.NextBelow(6);
    if (r < 2) {
      Schedule(ref_now_, /*after=*/false);
    }
    if (r == 0 || r == 3) {
      Schedule(ref_now_ + rng_.NextInRange(1, 30), /*after=*/true);
    }
  }

  static constexpr size_t kNone = ~size_t{0};

  EventQueue q_;
  Rng rng_;
  std::vector<Event> events_;
  std::set<RefKey> ref_;
  Time ref_now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t expected_ = kNone;
  size_t fired_ = kNone;
};

TEST(EventQueueTest, MatchesFromScratchTwinOnRandomOps) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    QueueTwin twin(seed);
    for (int step = 0; step < 3000; ++step) {
      twin.Step();
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    twin.Drain();
  }
}

}  // namespace
}  // namespace wcores

#include "src/simkit/event_queue.h"

#include "src/simkit/check.h"

#include <algorithm>
#include <utility>

namespace wcores {

// The two overflow checks below guard the packed key. A unit test would need
// about 16M simultaneously queued events to reach the slot bound, and 2^40
// schedules to reach the seq bound, so neither is death-tested.
EventHandle EventQueue::ScheduleAt(Time when, Callback fn) {
  WC_CHECK(when >= now_, "cannot schedule events in the past");
  WC_CHECK(static_cast<bool>(fn), "cannot schedule an empty callback");
  WC_CHECK(next_seq_ < kSeqLimit, "event seq overflows its 40 key bits (2^40 schedules)");
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    WC_CHECK(slots_.size() <= kSlotMask,
             "event slot overflows its 24 key bits (2^24 queued events)");
    slot = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  uint64_t low = next_seq_++ << kSlotBits | slot;
  if (when == now_) {
    lane_.push_back(low);
  } else {
    HeapPush(Key{when} << 64 | low);
  }
  return EventHandle(this, slot, s.generation);
}

void EventQueue::FreeSlot(uint32_t slot) {
  slots_[slot].cancelled = false;
  free_slots_.push_back(slot);
}

// A binary heap. With 16-byte keys a 4-ary heap was re-measured and gained
// nothing on whole-sim throughput (EXPERIMENTS.md "Event engine"): the
// queue averages ~40 pending keys, so halving the depth does not repay the
// extra child comparisons per level.
void EventQueue::HeapPush(Key key) {
  heap_.push_back(key);
  SiftUp(heap_.size() - 1, key);
}

void EventQueue::SiftUp(size_t hole, Key key) {
  Key* h = heap_.data();
  while (hole > 0) {
    size_t parent = (hole - 1) / 2;
    if (!(key < h[parent])) {
      break;
    }
    h[hole] = h[parent];
    hole = parent;
  }
  h[hole] = key;
}

void EventQueue::HeapPop() {
  Key last = heap_.back();
  heap_.pop_back();
  size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  Key* h = heap_.data();
  size_t hole = 0;
  size_t child;
  // Keys are unique, so the smaller child is picked without a tie branch.
  while ((child = 2 * hole + 2) < n) {
    child -= static_cast<size_t>(h[child - 1] < h[child]);
    h[hole] = h[child];
    hole = child;
  }
  if (child == n) {  // A lone left child.
    h[hole] = h[n - 1];
    hole = n - 1;
  }
  SiftUp(hole, last);
}

void EventQueue::PopFront(bool from_lane) {
  if (!from_lane) {
    HeapPop();
  } else if (++lane_head_ == lane_.size()) {
    lane_.clear();
    lane_head_ = 0;
  }
}

bool EventQueue::RunOne(Time until) {
  Key key;
  bool from_lane;
  uint32_t slot;
  for (;;) {
    if (lane_head_ < lane_.size()) {
      key = Key{now_} << 64 | lane_[lane_head_];
      from_lane = heap_.empty() || key < heap_.front();
      if (!from_lane) {
        key = heap_.front();
      }
    } else if (!heap_.empty()) {
      key = heap_.front();
      from_lane = false;
    } else {
      return false;
    }
    slot = SlotOf(static_cast<uint64_t>(key));
    if (!slots_[slot].cancelled) {
      break;
    }
    // A cancelled key leaves the queue; only now is its slot reusable.
    PopFront(from_lane);
    FreeSlot(slot);
  }
  Time when = static_cast<Time>(key >> 64);
  if (when > until) {
    if (until != kTimeNever) {
      now_ = std::max(now_, until);
    }
    return false;
  }
  PopFront(from_lane);
  now_ = when;
  // Move the callback out first: it may schedule, which can reuse this slot
  // or grow the slot table under it.
  Callback fn = std::move(slots_[slot].fn);
  ++slots_[slot].generation;  // Marks the handle non-pending once fired.
  FreeSlot(slot);
  ++executed_;
  fn();
  return true;
}

bool EventQueue::Empty() const { return LiveCount() == 0; }

size_t EventQueue::LiveCount() const {
  size_t n = 0;
  for (Key key : heap_) {
    n += !slots_[SlotOf(static_cast<uint64_t>(key))].cancelled;
  }
  for (size_t i = lane_head_; i < lane_.size(); ++i) {
    n += !slots_[SlotOf(lane_[i])].cancelled;
  }
  return n;
}

uint64_t EventQueue::RunUntil(Time until) {
  uint64_t n = 0;
  while (RunOne(until)) {
    ++n;
  }
  return n;
}

}  // namespace wcores

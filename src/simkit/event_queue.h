// Discrete-event queue: the heart of the simulator.
//
// Events are (time, sequence, callback) triples ordered by time, with the
// sequence number breaking ties so that two events scheduled for the same
// instant fire in scheduling order. Determinism of the whole simulation
// follows from this total order plus seeded RNG.
//
// Keys and payloads live apart. The binary heap holds only 16-byte keys,
// `when` in the high half and `seq << kSlotBits | slot` in the low half, so
// one unsigned 128-bit compare is the (when, seq) order and a sift moves
// trivially copyable words. The callback, the handle generation and a
// cancelled flag live in a pooled slot table. A slot is held by its key and
// freed only when that key leaves the queue (fired, or popped after
// cancellation), so a key's slot never changes owner while it is queued.
//
// Events scheduled at now() skip the heap: they append to a FIFO "now-lane"
// whose entries all carry `when == now()` and whose seqs grow in order.
// RunOne takes the lane head unless the heap top is due now with a smaller
// seq, so extraction stays exactly the (when, seq) order.
//
// Cancellation is lazy: Cancel() bumps the slot's generation and marks it
// cancelled; the dead key is dropped when it reaches the front. A handle is
// (queue, slot, generation), pending while the slot's generation matches.
// Slots are recycled through a free list, so steady-state scheduling
// allocates nothing. Handles must not outlive their queue (the simulator
// guarantees this by declaring the queue before everything that stores
// handles).
#ifndef SRC_SIMKIT_EVENT_QUEUE_H_
#define SRC_SIMKIT_EVENT_QUEUE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/simkit/inline_callback.h"
#include "src/simkit/time.h"

namespace wcores {

class EventQueue;

// Cancellation token for a scheduled event. Copyable; all copies observe the
// same underlying slot. Invalidated (not dangling-safe) if the queue dies
// first — see the lifetime note above.
class EventHandle {
 public:
  EventHandle() = default;

  // True if the event has neither fired nor been cancelled.
  bool Pending() const;

  // Cancel the event if still pending. Safe to call repeatedly or on a
  // default-constructed handle.
  void Cancel();

 private:
  friend class EventQueue;
  EventHandle(EventQueue* queue, uint32_t slot, uint64_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  uint32_t slot_ = 0;
  uint64_t generation_ = 0;
};

class EventQueue {
 public:
  using Callback = InlineCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  Time now() const { return now_; }

  // Schedule `fn` to run at absolute time `when` (must be >= now()).
  EventHandle ScheduleAt(Time when, Callback fn);

  // Schedule `fn` to run `delay` from now.
  EventHandle ScheduleAfter(Time delay, Callback fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // True if no live (non-cancelled) events remain. O(queue size).
  bool Empty() const;

  size_t LiveCount() const;

  // Run the earliest event. Returns false if the queue is empty or the next
  // event is later than `until` (clock is then advanced to `until`).
  bool RunOne(Time until = kTimeNever);

  // Run events until the queue drains or the clock reaches `until`.
  // Returns the number of events executed.
  uint64_t RunUntil(Time until);

  // Run everything. Returns the number of events executed.
  uint64_t RunAll() { return RunUntil(kTimeNever); }

  // Total events executed over the queue's lifetime.
  uint64_t executed_count() const { return executed_; }

 private:
  friend class EventHandle;

  __extension__ typedef unsigned __int128 Key;

  // The low key half packs seq above the slot index. A queue needs 2^24
  // (~16M) simultaneously queued keys, or 2^40 schedules, to overflow them;
  // ScheduleAt checks both.
  static constexpr int kSlotBits = 24;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;
  static constexpr uint64_t kSeqLimit = uint64_t{1} << (64 - kSlotBits);
  static uint32_t SlotOf(uint64_t low) { return static_cast<uint32_t>(low & kSlotMask); }

  struct Slot {
    Callback fn;
    // Bumped on fire/cancel; a handle whose generation no longer matches is
    // not pending. 64-bit so recycling can never wrap within a run.
    uint64_t generation = 0;
    // The slot's key is still queued but must not fire.
    bool cancelled = false;
  };

  bool SlotPending(uint32_t slot, uint64_t generation) const {
    return slots_[slot].generation == generation;
  }
  void CancelSlot(uint32_t slot) {
    ++slots_[slot].generation;
    slots_[slot].cancelled = true;
  }
  void FreeSlot(uint32_t slot);

  // Binary min-heap on Key. Pop sinks the root's hole along the smaller
  // child to a leaf, then sifts the former last key up from there.
  void HeapPush(Key key);
  void HeapPop();
  void SiftUp(size_t hole, Key key);
  // Removes the front key, from the lane or the heap.
  void PopFront(bool from_lane);

  std::vector<Key> heap_;
  // The now-lane: low key halves of events due at now_, in seq order, from
  // lane_head_ on. Emptied before now_ can advance.
  std::vector<uint64_t> lane_;
  size_t lane_head_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  Time now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
};

inline bool EventHandle::Pending() const {
  return queue_ != nullptr && queue_->SlotPending(slot_, generation_);
}

inline void EventHandle::Cancel() {
  if (queue_ != nullptr && queue_->SlotPending(slot_, generation_)) {
    queue_->CancelSlot(slot_);
  }
  queue_ = nullptr;
}

}  // namespace wcores

#endif  // SRC_SIMKIT_EVENT_QUEUE_H_

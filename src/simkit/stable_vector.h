// Append-only indexed store whose elements never move.
//
// The simulator's per-thread, per-cpu and per-sync-object tables are
// indexed on every event and grow while the simulation runs (threads fork),
// and the runqueues hold SchedEntity* links into one of them, so element
// addresses must stay stable. Elements live in fixed chunks of kChunk that
// are never reallocated: indexing is a shift, a mask and two loads, where a
// std::deque's operator[] redoes node arithmetic relative to its start on
// every access. Elements need not be copyable or movable; they are built in
// place by emplace_back and destroyed with the store, in index order.
#ifndef SRC_SIMKIT_STABLE_VECTOR_H_
#define SRC_SIMKIT_STABLE_VECTOR_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace wcores {

template <typename T>
class StableVector {
 public:
  StableVector() = default;
  StableVector(const StableVector&) = delete;
  StableVector& operator=(const StableVector&) = delete;
  ~StableVector() {
    for (size_t i = 0; i < size_; ++i) {
      (*this)[i].~T();
    }
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if ((size_ & kMask) == 0) {
      chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
    }
    T* item = std::construct_at(&CellAt(size_).value, std::forward<Args>(args)...);
    ++size_;
    return *item;
  }

  T& operator[](size_t i) { return CellAt(i).value; }
  const T& operator[](size_t i) const { return CellAt(i).value; }
  T& back() { return (*this)[size_ - 1]; }
  size_t size() const { return size_; }

 private:
  static constexpr size_t kShift = 6;
  static constexpr size_t kChunk = size_t{1} << kShift;
  static constexpr size_t kMask = kChunk - 1;

  // Raw storage for one element: the union defers T's construction to
  // emplace_back and its destruction to ~StableVector.
  union Cell {
    Cell() {}
    ~Cell() {}
    T value;
  };
  struct Chunk {
    Cell cells[kChunk];
  };

  Cell& CellAt(size_t i) const { return chunks_[i >> kShift]->cells[i & kMask]; }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  size_t size_ = 0;
};

}  // namespace wcores

#endif  // SRC_SIMKIT_STABLE_VECTOR_H_

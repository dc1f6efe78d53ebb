// A fixed-capacity CPU bitmask, analogous to the kernel's cpumask_t.
//
// Used for thread affinity (taskset), scheduling-group membership, and the
// "considered cores" bitmaps recorded by the visualization tool.
#ifndef SRC_SIMKIT_CPUSET_H_
#define SRC_SIMKIT_CPUSET_H_

#include <cstdint>
#include <iosfwd>
#include <string>

namespace wcores {

// Core identifier. Cores are numbered densely from 0.
using CpuId = int;
constexpr CpuId kInvalidCpu = -1;

// Maximum number of cores a machine may have. The paper's machine has 64;
// 256 leaves room for larger synthetic topologies.
constexpr int kMaxCpus = 256;

class CpuSet {
 public:
  constexpr CpuSet() : words_{} {}

  // A set containing cpus [0, n).
  static CpuSet FirstN(int n) {
    CpuSet s;
    for (int i = 0; i < n; ++i) {
      s.Set(i);
    }
    return s;
  }

  static CpuSet Single(CpuId cpu) {
    CpuSet s;
    s.Set(cpu);
    return s;
  }

  constexpr void Set(CpuId cpu) { words_[Word(cpu)] |= Bit(cpu); }
  constexpr void Clear(CpuId cpu) { words_[Word(cpu)] &= ~Bit(cpu); }
  constexpr bool Test(CpuId cpu) const { return (words_[Word(cpu)] & Bit(cpu)) != 0; }

  constexpr bool Empty() const {
    for (auto w : words_) {
      if (w != 0) {
        return false;
      }
    }
    return true;
  }

  constexpr int Count() const {
    int n = 0;
    for (auto w : words_) {
      n += __builtin_popcountll(w);
    }
    return n;
  }

  // Lowest set cpu, or kInvalidCpu if empty.
  constexpr CpuId First() const {
    for (int i = 0; i < kWords; ++i) {
      if (words_[i] != 0) {
        return i * 64 + __builtin_ctzll(words_[i]);
      }
    }
    return kInvalidCpu;
  }

  // Lowest set cpu strictly greater than `cpu`, or kInvalidCpu.
  constexpr CpuId Next(CpuId cpu) const {
    int start = cpu + 1;
    if (start >= kMaxCpus) {
      return kInvalidCpu;
    }
    int w = Word(start);
    uint64_t masked = words_[w] & (~uint64_t{0} << (start % 64));
    if (masked != 0) {
      return w * 64 + __builtin_ctzll(masked);
    }
    for (int i = w + 1; i < kWords; ++i) {
      if (words_[i] != 0) {
        return i * 64 + __builtin_ctzll(words_[i]);
      }
    }
    return kInvalidCpu;
  }

  constexpr CpuSet operator&(const CpuSet& other) const {
    CpuSet r;
    for (int i = 0; i < kWords; ++i) {
      r.words_[i] = words_[i] & other.words_[i];
    }
    return r;
  }

  constexpr CpuSet operator|(const CpuSet& other) const {
    CpuSet r;
    for (int i = 0; i < kWords; ++i) {
      r.words_[i] = words_[i] | other.words_[i];
    }
    return r;
  }

  constexpr CpuSet operator~() const {
    CpuSet r;
    for (int i = 0; i < kWords; ++i) {
      r.words_[i] = ~words_[i];
    }
    return r;
  }

  constexpr CpuSet& operator&=(const CpuSet& other) {
    for (int i = 0; i < kWords; ++i) {
      words_[i] &= other.words_[i];
    }
    return *this;
  }

  constexpr CpuSet& operator|=(const CpuSet& other) {
    for (int i = 0; i < kWords; ++i) {
      words_[i] |= other.words_[i];
    }
    return *this;
  }

  constexpr bool operator==(const CpuSet& other) const {
    for (int i = 0; i < kWords; ++i) {
      if (words_[i] != other.words_[i]) {
        return false;
      }
    }
    return true;
  }

  constexpr bool operator!=(const CpuSet& other) const { return !(*this == other); }

  // Word-lexicographic total order, so a CpuSet can key an ordered container
  // or be sorted deterministically. Not a subset relation.
  constexpr bool operator<(const CpuSet& other) const {
    for (int i = 0; i < kWords; ++i) {
      if (words_[i] != other.words_[i]) {
        return words_[i] < other.words_[i];
      }
    }
    return false;
  }

  constexpr bool Intersects(const CpuSet& other) const {
    for (int i = 0; i < kWords; ++i) {
      if ((words_[i] & other.words_[i]) != 0) {
        return true;
      }
    }
    return false;
  }

  constexpr bool ContainsAll(const CpuSet& other) const {
    for (int i = 0; i < kWords; ++i) {
      if ((other.words_[i] & ~words_[i]) != 0) {
        return false;
      }
    }
    return true;
  }

  // Renders like "0-3,8,10-11".
  std::string ToString() const;

  // Iteration support: for (CpuId c : set) { ... }, in ascending order.
  //
  // The iterator holds the current word's remaining bits and steps with
  // ctz and `bits &= bits - 1`, loading the next word only when these run
  // out. Each word is read once, so the loop body must not modify the set
  // being iterated.
  class Sentinel {};
  class Iterator {
   public:
    explicit Iterator(const uint64_t* words) : words_(words), bits_(words[0]) { SkipEmpty(); }
    CpuId operator*() const { return word_ * 64 + __builtin_ctzll(bits_); }
    Iterator& operator++() {
      bits_ &= bits_ - 1;
      SkipEmpty();
      return *this;
    }
    bool operator!=(Sentinel) const { return bits_ != 0; }

   private:
    // Leaves bits_ == 0 only past the last word.
    void SkipEmpty() {
      while (bits_ == 0 && word_ + 1 < kWords) {
        bits_ = words_[++word_];
      }
    }

    const uint64_t* words_;
    int word_ = 0;
    uint64_t bits_;
  };

  Iterator begin() const { return Iterator(words_); }
  Sentinel end() const { return {}; }

 private:
  static constexpr int kWords = kMaxCpus / 64;
  static constexpr int Word(CpuId cpu) { return cpu / 64; }
  static constexpr uint64_t Bit(CpuId cpu) { return uint64_t{1} << (cpu % 64); }

  uint64_t words_[kWords];
};

// Streams ToString(), so gtest prints a failed CpuSet comparison as "0-3,8".
std::ostream& operator<<(std::ostream& os, const CpuSet& set);

}  // namespace wcores

#endif  // SRC_SIMKIT_CPUSET_H_

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

// Maximum number of cores a machine may have, as in a kernel built with
// NR_CPUS=64: the paper's machine has 64, and a set is one 64-bit word.
constexpr int kMaxCpus = 64;

class CpuSet {
 public:
  constexpr CpuSet() = default;

  // A set containing cpus [0, n).
  static constexpr CpuSet FirstN(int n) {
    CpuSet s;
    s.bits_ = n >= kMaxCpus ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
    return s;
  }

  static constexpr CpuSet Single(CpuId cpu) {
    CpuSet s;
    s.Set(cpu);
    return s;
  }

  constexpr void Set(CpuId cpu) { bits_ |= Bit(cpu); }
  constexpr void Clear(CpuId cpu) { bits_ &= ~Bit(cpu); }
  constexpr bool Test(CpuId cpu) const { return (bits_ & Bit(cpu)) != 0; }

  constexpr bool Empty() const { return bits_ == 0; }
  constexpr int Count() const { return __builtin_popcountll(bits_); }

  // Lowest set cpu, or kInvalidCpu if empty.
  constexpr CpuId First() const { return bits_ != 0 ? __builtin_ctzll(bits_) : kInvalidCpu; }

  // Lowest set cpu strictly greater than `cpu`, or kInvalidCpu.
  constexpr CpuId Next(CpuId cpu) const {
    if (cpu + 1 >= kMaxCpus) {
      return kInvalidCpu;
    }
    uint64_t above = bits_ & (~uint64_t{0} << (cpu + 1));
    return above != 0 ? __builtin_ctzll(above) : kInvalidCpu;
  }

  constexpr CpuSet operator&(const CpuSet& other) const { return Of(bits_ & other.bits_); }
  constexpr CpuSet operator|(const CpuSet& other) const { return Of(bits_ | other.bits_); }
  constexpr CpuSet operator~() const { return Of(~bits_); }

  constexpr CpuSet& operator&=(const CpuSet& other) {
    bits_ &= other.bits_;
    return *this;
  }

  constexpr CpuSet& operator|=(const CpuSet& other) {
    bits_ |= other.bits_;
    return *this;
  }

  constexpr bool operator==(const CpuSet& other) const { return bits_ == other.bits_; }
  constexpr bool operator!=(const CpuSet& other) const { return bits_ != other.bits_; }

  // The word as an unsigned number, so a CpuSet can key an ordered container
  // or be sorted deterministically. Not a subset relation.
  constexpr bool operator<(const CpuSet& other) const { return bits_ < other.bits_; }

  constexpr bool Intersects(const CpuSet& other) const { return (bits_ & other.bits_) != 0; }
  constexpr bool ContainsAll(const CpuSet& other) const { return (other.bits_ & ~bits_) == 0; }

  // Renders like "0-3,8,10-11".
  std::string ToString() const;

  // Iteration support: for (CpuId c : set) { ... }, in ascending order.
  //
  // The iterator holds a copy of the remaining bits and steps with ctz and
  // `bits &= bits - 1`, so the loop body may modify the set being iterated
  // without changing which cpus the loop visits.
  class Sentinel {};
  class Iterator {
   public:
    explicit Iterator(uint64_t bits) : bits_(bits) {}
    CpuId operator*() const { return __builtin_ctzll(bits_); }
    Iterator& operator++() {
      bits_ &= bits_ - 1;
      return *this;
    }
    bool operator!=(Sentinel) const { return bits_ != 0; }

   private:
    uint64_t bits_;
  };

  Iterator begin() const { return Iterator(bits_); }
  Sentinel end() const { return {}; }

 private:
  static constexpr uint64_t Bit(CpuId cpu) { return uint64_t{1} << cpu; }
  static constexpr CpuSet Of(uint64_t bits) {
    CpuSet s;
    s.bits_ = bits;
    return s;
  }

  uint64_t bits_ = 0;
};

// Streams ToString(), so gtest prints a failed CpuSet comparison as "0-3,8".
std::ostream& operator<<(std::ostream& os, const CpuSet& set);

}  // namespace wcores

#endif  // SRC_SIMKIT_CPUSET_H_

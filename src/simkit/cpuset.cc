#include "src/simkit/cpuset.h"

#include <cstdio>
#include <ostream>

namespace wcores {

std::string CpuSet::ToString() const {
  std::string out;
  char buf[32];
  CpuId run_start = kInvalidCpu;
  CpuId prev = kInvalidCpu;
  auto flush = [&] {
    if (run_start == kInvalidCpu) {
      return;
    }
    if (!out.empty()) {
      out += ',';
    }
    if (run_start == prev) {
      std::snprintf(buf, sizeof(buf), "%d", run_start);
    } else {
      std::snprintf(buf, sizeof(buf), "%d-%d", run_start, prev);
    }
    out += buf;
  };
  for (CpuId c = First(); c != kInvalidCpu; c = Next(c)) {
    if (run_start == kInvalidCpu) {
      run_start = c;
    } else if (c != prev + 1) {
      flush();
      run_start = c;
    }
    prev = c;
  }
  flush();
  if (out.empty()) {
    out = "(empty)";
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const CpuSet& set) { return os << set.ToString(); }

}  // namespace wcores

// Nice levels and scheduling weights (§2.1).
//
// CFS divides CPU time among threads in proportion to their weights. The
// weight table is the kernel's sched_prio_to_weight: each nice step changes
// the weight by ~1.25x so that one step costs ~10% relative CPU time.
#ifndef SRC_CORE_WEIGHTS_H_
#define SRC_CORE_WEIGHTS_H_

#include <cstdint>

namespace wcores {

constexpr int kMinNice = -20;
constexpr int kMaxNice = 19;

// Weight of a nice-0 thread; vruntime advances at wall speed for this weight.
constexpr uint32_t kNice0Weight = 1024;

// Weight corresponding to a nice value in [-20, 19]; the scheduler checks the
// range where a nice value comes in (CreateThread, SetNice).
uint32_t NiceToWeight(int nice);

// Inverse mapping used to convert real runtime to weighted vruntime:
// delta_vruntime = delta_exec * kNice0Weight / weight.
// 2^32 / weight precomputed, as in the kernel's sched_prio_to_wmult.
uint32_t NiceToInverseWeight(int nice);

}  // namespace wcores

#endif  // SRC_CORE_WEIGHTS_H_

// Always-on invariant checks.
//
// Unlike the standard assert macro, WC_CHECK survives NDEBUG builds:
// scheduler-state corruption (double enqueue, waking a runnable thread,
// unlocking a lock that is not held) must abort loudly in every
// configuration, because a simulation that silently continues produces
// plausible-looking wrong numbers. The checks guard O(1) conditions only,
// so the cost is noise.
#ifndef SRC_SIMKIT_CHECK_H_
#define SRC_SIMKIT_CHECK_H_

#include <cstdio>
#include <cstdlib>

namespace wcores {

[[noreturn]] inline void CheckFailed(const char* expr, const char* file, int line,
                                     const char* msg) {
  std::fprintf(stderr, "WC_CHECK failed: %s (%s) at %s:%d\n", msg, expr, file, line);
  std::abort();
}

}  // namespace wcores

#define WC_CHECK(cond, msg)                                 \
  do {                                                      \
    if (!(cond)) {                                          \
      ::wcores::CheckFailed(#cond, __FILE__, __LINE__, msg); \
    }                                                       \
  } while (0)

#endif  // SRC_SIMKIT_CHECK_H_

// Deliberate exact floating-point equality.
//
// The build compiles every target with -Werror=float-equal: a scheduling
// decision keyed on `==` between doubles is one ulp away from flipping, so a
// stray compare must not build. A few compares want exactly that equality:
// probing a value for a fixed point it reaches bit-exactly, folding -0.0
// into +0.0 before hashing a bit pattern, and reporting a value only when it
// changed. Those sites call ExactlyEqual, which names the intent and is the
// one place the warning is switched off. It is the IEEE `==`: +0.0 equals
// -0.0 and NaN equals nothing, itself included.
#ifndef SRC_SIMKIT_EXACT_H_
#define SRC_SIMKIT_EXACT_H_

namespace wcores {

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wfloat-equal"
inline bool ExactlyEqual(double a, double b) { return a == b; }
#pragma GCC diagnostic pop

}  // namespace wcores

#endif  // SRC_SIMKIT_EXACT_H_

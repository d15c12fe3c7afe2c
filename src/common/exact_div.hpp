// Correctly-rounded division by a loop-invariant divisor, without a divide
// instruction in the loop.
//
// The batched environment sweep divides every lane's state by quantities
// that are fixed for the whole batch (TOC2's full count, full-scale
// pressure, vehicle mass, metres-per-pulse; the ADC reuses the brake's
// pressure quotient). Hardware vdivpd throughput is an order of magnitude
// worse than multiply/FMA throughput, and on the lockstep hot path those
// four divides would bound the whole kernel. Markstein's sequence
//
//   recip = RN(1/y)            (one real divide, hoisted out of the loop)
//   q0    = RN(x * recip)
//   r     = RN(x - y*q0)       (exact, via FMA)
//   q     = RN(q0 + r*recip)   (via FMA)
//
// yields the correctly-rounded quotient RN(x/y) -- bit-identical to `x / y`
// -- for round-to-nearest-even binary64 whenever y is a normal number and
// neither x nor the quotient is in the subnormal/overflow range
// (P. Markstein, "Computation of elementary functions on the IBM RISC
// System/6000 processor"; see also Muller et al., Handbook of
// Floating-Point Arithmetic, ch. division via FMA). Every divisor on the
// hot path is a physical constant or test-case parameter comfortably
// inside that range, as are the dividends (pressures, forces, velocities).
// tests/common/exact_div_test.cpp checks bit-identity against the divide
// instruction across the full operand range used by the simulator, and the
// batch-vs-scalar equivalence suite enforces it end to end.
//
// Without FMA hardware the sequence would need a libm soft fma (slow) and
// the proof breaks anyway, so the class falls back to plain division --
// which is the same correctly-rounded value, keeping results identical
// across both builds.
#pragma once

#include <cmath>

namespace propane {

class ExactDivisor {
 public:
  /// `y` must be a normal, non-zero number (a compile-time constant or a
  /// per-batch parameter); the single real divide happens here.
  explicit constexpr ExactDivisor(double y) : y_(y), recip_(1.0 / y) {}

  /// RN(x / y), divide-free when FMA hardware is available.
  double divide(double x) const {
#if defined(__FMA__)
    const double q0 = x * recip_;
    const double r = std::fma(-y_, q0, x);
    const double q = std::fma(r, recip_, q0);
    // The residual step turns a signed zero into +0.0 (+0 + -0 rounds to
    // +0); a zero dividend must pass through unchanged to match the
    // divide instruction's sign. Compiles to one compare+blend.
    return x == 0.0 ? x : q;
#else
    return x / y_;
#endif
  }

  constexpr double divisor() const { return y_; }

 private:
  double y_;
  double recip_;
};

}  // namespace propane

// ExactDivisor must return the exact bits of `x / y` -- the batched
// environment kernel substitutes it for the scalar path's divide
// instructions, and the lockstep equivalence guarantee rests on the two
// being indistinguishable. The checks here compare bit patterns, not
// values, so a one-ulp deviation (or a -0.0 / +0.0 swap) fails.
#include "common/exact_div.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace propane {
namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_exact(double x, double y) {
  const ExactDivisor d(y);
  const double got = d.divide(x);
  const double want = x / y;
  EXPECT_EQ(bits_of(got), bits_of(want))
      << "x=" << x << " y=" << y << " got=" << got << " want=" << want;
}

// The divisors the environment sweep actually uses.
constexpr double kSimDivisors[] = {65535.0,                     // TOC2 FS
                                   10.0e6,                      // pressure FS
                                   2.0 * 3.141592653589793 * 0.5 / 64,
                                   70000.0, 12500.0, 3.5e4};    // masses

TEST(ExactDivisorTest, ExactOnSimulatorOperandRanges) {
  Rng rng(0x5eedULL);
  for (const double y : kSimDivisors) {
    for (int i = 0; i < 200000; ++i) {
      // Dividends span the simulator's dynamic range: pressures up to
      // 1e7, forces up to 1e6, per-tick velocity increments down to 1e-9.
      const double mag = std::exp2(rng.uniform01() * 60.0 - 30.0);
      expect_exact(rng.uniform01() * mag, y);
    }
  }
}

TEST(ExactDivisorTest, ExactOnRandomBitPatterns) {
  Rng rng(0xd1d1dULL);
  for (int i = 0; i < 500000; ++i) {
    // Random finite normal doubles via random bit patterns, exponent
    // restricted to avoid overflow/subnormal quotients (outside the
    // documented contract).
    const std::uint64_t raw = rng();
    const std::uint64_t exp =
        512 + (raw >> 52) % 1024;  // biased exponent in [512, 1536)
    const std::uint64_t xbits =
        (raw & 0x800fffffffffffffULL) | (exp << 52);
    double x;
    std::memcpy(&x, &xbits, sizeof x);
    const double y = kSimDivisors[static_cast<std::size_t>(i) %
                                  std::size(kSimDivisors)];
    expect_exact(x, y);
  }
}

TEST(ExactDivisorTest, ExactOnEdgeValues) {
  for (const double y : kSimDivisors) {
    expect_exact(0.0, y);
    expect_exact(-0.0, y);
    expect_exact(y, y);
    expect_exact(-y, y);
    expect_exact(1.0, y);
    expect_exact(std::nextafter(y, 0.0), y);
    expect_exact(std::nextafter(y, 2.0 * y), y);
    expect_exact(65535.0, y);
    expect_exact(1.0e7, y);
    expect_exact(std::numeric_limits<double>::min(), y);
  }
}

TEST(ExactDivisorTest, RecordsDivisor) {
  constexpr ExactDivisor d(10.0e6);
  EXPECT_EQ(d.divisor(), 10.0e6);
}

}  // namespace
}  // namespace propane

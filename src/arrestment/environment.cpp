#include "arrestment/environment.hpp"

#include <algorithm>
#include <cmath>

#include "arrestment/constants.hpp"
#include "arrestment/lane_mask.hpp"
#include "common/contracts.hpp"
#include "common/exact_div.hpp"

namespace propane::arr {

Environment::Environment(const TestCase& test_case, const BusMap& map)
    : map_(map),
      timer_(kTimerTicksPerUs),
      adc_(0.0, kMaxPressurePa),
      mass_(test_case.mass_kg),
      velocity_(test_case.velocity_mps) {}

void Environment::step(fi::SignalBus& bus, sim::SimTime now) {
  const double dt = 0.001;  // one controller tick [s]

  // --- Actuation: valve command written by PRES_A in the previous tick.
  const double commanded =
      static_cast<double>(bus.read(map_.toc2)) / 65535.0 * kMaxPressurePa;

  // --- Hydraulic lag: first-order response of the applied pressure.
  pressure_ += (commanded - pressure_) * (dt / kPressureTauS);

  // --- Longitudinal dynamics.
  if (velocity_ > 0.0) {
    const double brake_force =
        kMaxBrakeForceN * (pressure_ / kMaxPressurePa);
    const double friction = kFrictionNsPerM * velocity_;
    const double decel = (brake_force + friction) / mass_;
    peak_decel_ = std::max(peak_decel_, decel);
    velocity_ = std::max(0.0, velocity_ - decel * dt);
    position_ += velocity_ * dt;
  }

  // --- Rotation sensing: the drum turns with the cable payout.
  pulse_accumulator_ += velocity_ * dt / kMetersPerPulse;
  const auto whole_pulses = static_cast<std::uint32_t>(pulse_accumulator_);
  pulse_accumulator_ -= whole_pulses;

  const std::uint16_t tcnt = timer_.read(now);
  if (whole_pulses > 0) {
    // PACNT accumulates in place (read-modify-write): an injected error in
    // the register persists through subsequent counting, like real
    // hardware.
    bus.write(map_.pacnt, static_cast<std::uint16_t>(
                              bus.read(map_.pacnt) + whole_pulses));
    // Input capture latches the timer at the (last) pulse edge.
    bus.write(map_.tic1, tcnt);
  }
  // The free-running timer and the A/D converter are refreshed from the
  // physical state every tick regardless of software activity.
  bus.write(map_.tcnt, tcnt);
  adc_.set_physical(pressure_);
  bus.write(map_.adc, adc_.read());
}

BatchedEnvironment::BatchedEnvironment(const Environment& origin,
                                       sim::SimTime now, const BusMap& map,
                                       std::size_t lane_count)
    : map_(map),
      timer_(kTimerTicksPerUs),
      div_mass_(origin.mass_kg()),
      velocity_(lane_count, origin.velocity_mps()),
      pressure_(lane_count, origin.pressure_pa()),
      pulse_accumulator_(lane_count, origin.pulse_accumulator()),
      timer_lanes_(lane_count, timer_.read(now)) {}

void BatchedEnvironment::load_lane(std::size_t lane, const Environment& origin,
                                   sim::SimTime now) {
  PROPANE_REQUIRE_MSG(origin.mass_kg() == div_mass_.divisor(),
                      "a batched environment runs one test case's mass");
  velocity_[lane] = origin.velocity_mps();
  pressure_[lane] = origin.pressure_pa();
  pulse_accumulator_[lane] = origin.pulse_accumulator();
  timer_lanes_[lane] = timer_.read(now);
}

void BatchedEnvironment::copy_lane(std::size_t dst, std::size_t src) {
  velocity_[dst] = velocity_[src];
  pressure_[dst] = pressure_[src];
  pulse_accumulator_[dst] = pulse_accumulator_[src];
  timer_lanes_[dst] = timer_lanes_[src];
}

std::uint64_t BatchedEnvironment::at_rest_lanes() const {
  std::uint8_t at_rest[64] = {};
  for (std::size_t l = 0; l < velocity_.size(); ++l) {
    at_rest[l] = velocity_[l] == 0.0;
  }
  return pack_lane_bytes(at_rest);
}

namespace {

/// The per-lane sweep lives in a free function because GCC only honours
/// __restrict on *parameters*: spelled this way the vectorizer knows the
/// rows cannot overlap (the bus owns one contiguous row per signal; each
/// state vector is its own allocation) and emits no runtime alias
/// versioning. The operation sequence mirrors Environment::step statement
/// for statement; see the bit-exactness note on BatchedEnvironment. The
/// loop has no control flow, every array element is loaded and stored
/// exactly once, and the selects are between plain values (never
/// references), keeping every statement speculation-safe for the
/// vectorizer. The scalar path's `velocity > 0` branch needs no select:
/// velocity starts positive and is only clamped with the literal +0, so
/// it is never negative or -0, and a lane at +0 has zero friction and a
/// deceleration >= 0, so the clamp returns +0 again. All four per-lane
/// divides, the commanded pressure's TOC2 / 65535 among them, go through
/// ExactDivisor's Markstein sequence, which returns the correctly-rounded
/// quotient -- the same bits as the scalar path's divide instructions --
/// at multiply/FMA throughput and without a table to gather from. Every
/// divisor is batch-invariant (the mass: a kernel runs one test case) or
/// constant.
void step_lanes_kernel(std::size_t lanes, ExactDivisor div_mass,
                       std::uint16_t timer_step,
                       std::uint16_t* __restrict timer,
                       const std::uint16_t* __restrict toc2,
                       std::uint16_t* __restrict pacnt,
                       std::uint16_t* __restrict tic1,
                       std::uint16_t* __restrict tcnt_row,
                       std::uint16_t* __restrict adc_row,
                       double* __restrict velocity_lanes,
                       double* __restrict pressure_lanes,
                       double* __restrict pulse_acc_lanes) {
  const double dt = 0.001;  // one controller tick [s]
  constexpr ExactDivisor div_toc2(65535.0);
  constexpr ExactDivisor div_pmax(kMaxPressurePa);
  constexpr ExactDivisor div_mpp(kMetersPerPulse);
  for (std::size_t l = 0; l < lanes; ++l) {
    double pressure = pressure_lanes[l];
    double velocity = velocity_lanes[l];
    double pulse_acc = pulse_acc_lanes[l];
    const std::uint16_t tcnt = timer[l];

    const double commanded =
        div_toc2.divide(static_cast<double>(toc2[l])) * kMaxPressurePa;
    pressure += (commanded - pressure) * (dt / kPressureTauS);

    const double pressure_ratio = div_pmax.divide(pressure);
    const double brake_force = kMaxBrakeForceN * pressure_ratio;
    const double friction = kFrictionNsPerM * velocity;
    const double decel = div_mass.divide(brake_force + friction);
    const double slowed = velocity - decel * dt;
    velocity = slowed > 0.0 ? slowed : 0.0;

    pulse_acc += div_mpp.divide(velocity * dt);
    const auto whole_pulses = static_cast<std::uint32_t>(pulse_acc);
    pulse_acc -= whole_pulses;
    const std::uint16_t pacnt_old = pacnt[l];
    const std::uint16_t tic1_old = tic1[l];

    pressure_lanes[l] = pressure;
    velocity_lanes[l] = velocity;
    pulse_acc_lanes[l] = pulse_acc;

    pacnt[l] = whole_pulses > 0
                   ? static_cast<std::uint16_t>(pacnt_old + whole_pulses)
                   : pacnt_old;
    tic1[l] = whole_pulses > 0 ? tcnt : tic1_old;
    tcnt_row[l] = tcnt;
    timer[l] = static_cast<std::uint16_t>(tcnt + timer_step);
    // sim::Adc::quantize over [0, kMaxPressurePa]: inside the clamp its
    // quotient is the brake's, bit for bit (and x / x == 1 at the top).
    // The pressure never leaves the range; the clamp mirrors sim::Adc.
    const double ratio =
        pressure < 0.0 ? 0.0
                       : (kMaxPressurePa < pressure ? 1.0 : pressure_ratio);
    adc_row[l] = static_cast<std::uint16_t>(ratio * 65535.0 + 0.5);
  }
}

}  // namespace

void BatchedEnvironment::step_lanes(fi::BatchedSignalBus& bus) {
  step_lanes_kernel(velocity_.size(), div_mass_,
                    timer_.read(sim::kMillisecond), timer_lanes_.data(),
                    bus.lane_values(map_.toc2).data(),
                    bus.lane_values(map_.pacnt).data(),
                    bus.lane_values(map_.tic1).data(),
                    bus.lane_values(map_.tcnt).data(),
                    bus.lane_values(map_.adc).data(), velocity_.data(),
                    pressure_.data(), pulse_accumulator_.data());
}

}  // namespace propane::arr

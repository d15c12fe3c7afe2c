// Environment simulator (Fig. 7): the incoming aircraft, the cable/drum
// assembly, the hydraulic brake, and the sensor/actuator glue that turns
// physics into hardware-register values.
//
// Per the paper's setup, the slave node is removed and "the retracting
// force applied by the master was also applied on the slave-end of the
// cable" -- hence the single pressure command drives the total force of
// both drum brakes.
//
// The simulator steps at the controller tick (1 ms) *before* the software
// modules run: it refreshes the sensor registers (PACNT, TIC1, TCNT, ADC)
// from the physical state and reads the actuator register (TOC2) written
// in the previous tick.
#pragma once

#include <cstdint>
#include <vector>

#include "arrestment/signals.hpp"
#include "arrestment/testcase.hpp"
#include "common/exact_div.hpp"
#include "fi/batched_bus.hpp"
#include "fi/signal_bus.hpp"
#include "sim/hw_registers.hpp"
#include "sim/simtime.hpp"

namespace propane::arr {

class Environment {
 public:
  Environment(const TestCase& test_case, const BusMap& map);

  /// Advances the physics by one millisecond ending at time `now`, then
  /// publishes the sensor registers onto the bus and consumes TOC2.
  void step(fi::SignalBus& bus, sim::SimTime now);

  // Physical state (observability for tests / outcome classification).
  double velocity_mps() const { return velocity_; }
  double position_m() const { return position_; }
  double pressure_pa() const { return pressure_; }
  double peak_decel() const { return peak_decel_; }
  bool at_rest() const { return velocity_ <= 0.0; }

  /// True when the two environments are indistinguishable *through the
  /// bus* from now on: equal velocity, applied pressure, and fractional
  /// pulse accumulator (the only physical state feeding the sensor
  /// registers). position_ and peak_decel_ are deliberately excluded --
  /// they feed outcome classification only and never loop back into
  /// PACNT/TIC1/TCNT/ADC -- so this equality, together with equal bus and
  /// module-internal state, implies every future sensor-register value of
  /// the two systems coincides. Used by the batched kernel's lane-
  /// convergence early exit.
  bool bus_state_equals(const Environment& other) const {
    return velocity_ == other.velocity_ && pressure_ == other.pressure_ &&
           pulse_accumulator_ == other.pulse_accumulator_;
  }

  // State replication for the batched environment below.
  double mass_kg() const { return mass_; }
  double pulse_accumulator() const { return pulse_accumulator_; }

 private:
  BusMap map_;
  sim::FreeRunningTimer timer_;
  sim::Adc adc_;

  double mass_;
  double velocity_;
  double position_ = 0.0;
  double pressure_ = 0.0;  // applied brake pressure [Pa]
  double pulse_accumulator_ = 0.0;  // fractional pulses
  double peak_decel_ = 0.0;
};

/// Structure-of-arrays counterpart of Environment for lockstep batches:
/// one physics state per lane, advanced by a single sweep per tick.
///
/// Bit-exactness: step_lanes performs, per lane, the exact operation
/// sequence of Environment::step on the state that feeds the bus (not
/// position or peak deceleration, which only classify outcomes). Every
/// double operation is IEEE per-op regardless of surrounding code (no
/// -ffast-math, no FMA contraction), and each of the four divides by a
/// batch-invariant divisor -- TOC2's 65535, the full-scale pressure, the
/// mass, the metres per pulse -- goes through ExactDivisor, whose
/// quotient has the divide's bits. So a lane's state is bit-identical to
/// a scalar Environment stepped from the same origin: the property
/// tests/fi/batch_equivalence_test.cpp and
/// tests/arrestment/environment_test.cpp enforce. The ADC quantisation
/// repeats sim::Adc's clamp, scale and round-half-up on the brake's
/// pressure quotient (the ADC spans 0 to full scale).
class BatchedEnvironment {
 public:
  /// Replicates `origin`'s physical state, and its timer at time `now`,
  /// across `lane_count` lanes. Every lane carries `origin`'s mass: a
  /// kernel runs one test case.
  BatchedEnvironment(const Environment& origin, sim::SimTime now,
                     const BusMap& map, std::size_t lane_count);

  /// Overwrites one lane's physical state with `origin`'s, and its timer
  /// with the timer's value at `now` -- how the batch kernel seeds a
  /// segment's golden lane from a golden-run system of its test case
  /// stopped at `now`. `origin` must carry the batch's mass.
  void load_lane(std::size_t lane, const Environment& origin,
                 sim::SimTime now);

  /// Overwrites lane `dst`'s complete physical state (timer included) with
  /// lane `src`'s -- how a batch slot is seeded from its segment's golden
  /// lane between ticks.
  void copy_lane(std::size_t dst, std::size_t src);

  /// Advances every lane by one millisecond of its own clock, publishing
  /// the sensor rows (PACNT, TIC1, TCNT, ADC) and consuming TOC2.
  void step_lanes(fi::BatchedSignalBus& bus);

  /// One lane's applied brake pressure [Pa] (Environment::pressure_pa).
  double pressure_pa(std::size_t lane) const { return pressure_[lane]; }

  /// One lane's velocity [m/s] (Environment::velocity_mps).
  double velocity_mps(std::size_t lane) const { return velocity_[lane]; }

  /// Lane-level bus_state_equals (velocity, pressure, pulse accumulator).
  bool lane_equals(std::size_t a, std::size_t b) const {
    return velocity_[a] == velocity_[b] && pressure_[a] == pressure_[b] &&
           pulse_accumulator_[a] == pulse_accumulator_[b];
  }

  /// Lanes standing still (bit l: velocity exactly 0). step_lanes never
  /// raises a zero velocity (see step_lanes_kernel), and it adds exactly
  /// 0 to a pulse accumulator that holds [0, 1) after every tick, so such
  /// a lane never writes PACNT or TIC1 again -- the environment's half of
  /// the standstill closure (batch_system.hpp, "Early exit").
  std::uint64_t at_rest_lanes() const;

 private:
  BusMap map_;
  sim::FreeRunningTimer timer_;

  // The one batch-invariant divisor: the test case's mass (the others
  // are compile-time constants).
  ExactDivisor div_mass_;
  std::vector<double> velocity_;
  std::vector<double> pressure_;
  std::vector<double> pulse_accumulator_;
  // Per-lane free-running timer value at the start of the lane's next
  // tick. Lanes of different segments run different clocks; the timer is
  // linear modulo 2^16, so each tick adds the same one-millisecond step.
  std::vector<std::uint16_t> timer_lanes_;
};

}  // namespace propane::arr

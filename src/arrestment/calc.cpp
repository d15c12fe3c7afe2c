#include "arrestment/calc.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "arrestment/constants.hpp"
#include "arrestment/lane_mask.hpp"
#include "common/contracts.hpp"

namespace propane::arr {

namespace {
/// Nominal aircraft mass used before the first gain re-identification [kg].
constexpr double kNominalMassKg = 14000.0;
/// Nominal brake gain [m/s^2 per SetValue unit].
constexpr double kNominalGain =
    kMaxBrakeForceN / 65535.0 / kNominalMassKg;
}  // namespace

CalcModule::CalcModule(const BusMap& map) : map_(map), gain_(kNominalGain) {}

std::uint16_t CalcModule::checkpoint_pulses(int index) {
  PROPANE_REQUIRE(index >= 0 && index < kCheckpointCount);
  return static_cast<std::uint16_t>(
      std::lround(kCheckpointM[index] / kMetersPerPulse));
}

CalcCheckpointOutcome calc_checkpoint_math(std::uint16_t seg_pulses,
                                           std::uint16_t seg_ms,
                                           double seg_start_velocity,
                                           std::uint16_t seg_set_value,
                                           double gain,
                                           std::uint16_t pulscnt) {
  if (seg_ms == 0) seg_ms = 1;  // defensive: corrupted clock

  // Velocity estimate from the pulse rate over the finished segment.
  const double velocity = static_cast<double>(seg_pulses) * kMetersPerPulse /
                          (static_cast<double>(seg_ms) / 1000.0);

  // Re-identify the brake gain from the previous segment: measured
  // deceleration per unit of applied set point. Skips the first segment
  // (no braking yet) and degenerate estimates.
  if (seg_set_value > 0 && seg_start_velocity > velocity) {
    const double seg_m = static_cast<double>(seg_pulses) * kMetersPerPulse;
    if (seg_m > 1.0) {
      const double measured_decel =
          (seg_start_velocity * seg_start_velocity - velocity * velocity) /
          (2.0 * seg_m);
      const double estimate =
          measured_decel / static_cast<double>(seg_set_value);
      if (estimate > kNominalGain * 0.2 && estimate < kNominalGain * 5.0) {
        gain = estimate;
      }
    }
  }

  // Deceleration required to stop at the target point.
  const double distance_now = static_cast<double>(pulscnt) * kMetersPerPulse;
  const double remaining = std::max(5.0, kTargetStopM - distance_now);
  const double required = std::clamp(
      velocity * velocity / (2.0 * remaining), kMinDecel, kMaxDecel);

  const double set_point = required / gain;
  CalcCheckpointOutcome outcome;
  outcome.velocity = velocity;
  outcome.gain = gain;
  outcome.set_value =
      static_cast<std::uint16_t>(std::clamp(set_point, 0.0, 65535.0));
  return outcome;
}

void CalcModule::step(fi::SignalBus& bus) {
  const std::uint16_t mscnt = bus.read(map_.mscnt);
  const std::uint16_t pulscnt = bus.read(map_.pulscnt);
  const std::uint16_t slow_speed = bus.read(map_.slow_speed);
  const std::uint16_t stopped = bus.read(map_.stopped);
  const std::uint16_t i = bus.read(map_.checkpoint_i);

  if (stopped != 0) {
    // Arrestment complete: release the brake.
    bus.write(map_.set_value, 0);
    return;
  }

  if (i < kCheckpointCount &&
      pulscnt >= checkpoint_pulses(static_cast<int>(i))) {
    // --- Checkpoint reached: (re)compute the pressure set point.
    const auto seg_pulses =
        static_cast<std::uint16_t>(pulscnt - seg_start_pulses_);
    const auto seg_ms = static_cast<std::uint16_t>(mscnt - seg_start_ms_);
    const CalcCheckpointOutcome outcome =
        calc_checkpoint_math(seg_pulses, seg_ms, seg_start_velocity_,
                             seg_set_value_, gain_, pulscnt);
    gain_ = outcome.gain;
    bus.write(map_.set_value, outcome.set_value);

    // Advance to the next checkpoint and open the next segment.
    bus.write(map_.checkpoint_i, static_cast<std::uint16_t>(i + 1));
    seg_start_pulses_ = pulscnt;
    seg_start_ms_ = mscnt;
    seg_start_velocity_ = outcome.velocity;
    seg_set_value_ = outcome.set_value;
    return;
  }

  if (slow_speed != 0) {
    // Near-standstill: cap the pressure to a gentle creep value so the
    // aircraft is brought to rest without a hard final jerk.
    const std::uint16_t current = bus.read(map_.set_value);
    if (current > kSlowCreepSetValue) {
      bus.write(map_.set_value, kSlowCreepSetValue);
    }
  }
}

BatchedCalc::BatchedCalc(const BusMap& map, const CalcModule& prototype,
                         std::size_t lanes)
    : map_(map) {
  PROPANE_REQUIRE_MSG(lanes > 0 && lanes <= 64,
                      "a batched CALC sweeps at most 64 lanes");
  for (int i = 0; i < kCheckpointCount; ++i) {
    checkpoint_pulses_[i] = CalcModule::checkpoint_pulses(i);
  }
  const CalcModule::Snapshot s = prototype.snapshot();
  seg_start_pulses_.assign(lanes, s.seg_start_pulses);
  seg_start_ms_.assign(lanes, s.seg_start_ms);
  seg_start_velocity_.assign(lanes, s.seg_start_velocity);
  seg_set_value_.assign(lanes, s.seg_set_value);
  gain_.assign(lanes, s.gain);
}

namespace {

/// CALC's one reach predicate over a row: bit l is set when lane l's
/// checkpoint index names a checkpoint its pulse count has reached, that
/// is i < kCheckpointCount and pulscnt >= checkpoint_pulses(i). It is
/// spelled as one equality compare per checkpoint rather than a gather
/// through i, so any 16-bit i -- a corrupted one included -- is exact and
/// the loop vectorizes; the `&`/`|=` keep it free of short-circuit
/// branches.
std::uint64_t reached_lanes(std::size_t lanes,
                            const std::uint16_t* __restrict checkpoint_i,
                            const std::uint16_t* __restrict pulscnt,
                            const std::uint16_t* __restrict thresholds) {
  std::uint8_t reached[64] = {};
  for (std::size_t l = 0; l < lanes; ++l) {
    bool hit = false;
    for (int k = 0; k < kCheckpointCount; ++k) {
      hit |= (checkpoint_i[l] == k) & (pulscnt[l] >= thresholds[k]);
    }
    reached[l] = hit;
  }
  return pack_lane_bytes(reached);
}

/// The common-path set point over a row, with CalcModule::step's branches
/// if-converted into selects: a stopped lane releases the brake, a slow
/// one caps the set point to the creep value. Returns the lanes that are
/// not stopped. A free function for the same reason as the dist_s and
/// clock kernels: GCC only honours __restrict on parameters.
std::uint64_t set_value_kernel(std::size_t lanes,
                               const std::uint16_t* __restrict stopped,
                               const std::uint16_t* __restrict slow,
                               std::uint16_t* __restrict set_value) {
  std::uint8_t running[64] = {};
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::uint16_t current = set_value[l];
    const std::uint16_t capped =
        slow[l] != 0 && current > kSlowCreepSetValue ? kSlowCreepSetValue
                                                     : current;
    set_value[l] = stopped[l] != 0 ? 0 : capped;
    running[l] = stopped[l] == 0;
  }
  return pack_lane_bytes(running);
}

}  // namespace

void BatchedCalc::step_lanes(fi::BatchedSignalBus& bus) {
  const std::span<const std::uint16_t> mscnt = bus.lane_values(map_.mscnt);
  const std::span<const std::uint16_t> pulscnt =
      bus.lane_values(map_.pulscnt);
  const std::span<std::uint16_t> checkpoint_i =
      bus.lane_values(map_.checkpoint_i);
  const std::span<std::uint16_t> set_value =
      bus.lane_values(map_.set_value);

  const std::size_t lanes = gain_.size();
  std::uint64_t hits =
      reached_lanes(lanes, checkpoint_i.data(), pulscnt.data(),
                    checkpoint_pulses_) &
      set_value_kernel(lanes, bus.lane_values(map_.stopped).data(),
                       bus.lane_values(map_.slow_speed).data(),
                       set_value.data());
  // Rare lanes (six hits per run): the shared scalar math, whose set
  // point replaces the one the sweep wrote -- a lane at its checkpoint
  // takes no creep cap, as in CalcModule::step.
  for (; hits != 0; hits &= hits - 1) {
    const auto l = static_cast<std::size_t>(std::countr_zero(hits));
    const auto seg_pulses =
        static_cast<std::uint16_t>(pulscnt[l] - seg_start_pulses_[l]);
    const auto seg_ms =
        static_cast<std::uint16_t>(mscnt[l] - seg_start_ms_[l]);
    const CalcCheckpointOutcome outcome = calc_checkpoint_math(
        seg_pulses, seg_ms, seg_start_velocity_[l], seg_set_value_[l],
        gain_[l], pulscnt[l]);
    gain_[l] = outcome.gain;
    set_value[l] = outcome.set_value;
    checkpoint_i[l] = static_cast<std::uint16_t>(checkpoint_i[l] + 1);
    seg_start_pulses_[l] = pulscnt[l];
    seg_start_ms_[l] = mscnt[l];
    seg_start_velocity_[l] = outcome.velocity;
    seg_set_value_[l] = outcome.set_value;
  }
}

std::uint64_t BatchedCalc::settled_lanes(
    const fi::BatchedSignalBus& bus) const {
  const std::size_t lanes = gain_.size();
  const std::uint64_t all =
      lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
  return all & ~reached_lanes(lanes, bus.lane_values(map_.checkpoint_i).data(),
                              bus.lane_values(map_.pulscnt).data(),
                              checkpoint_pulses_);
}

}  // namespace propane::arr

#include "arrestment/calc.hpp"

#include <algorithm>
#include <cmath>

#include "arrestment/constants.hpp"
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

void BatchedCalc::step_lanes(fi::BatchedSignalBus& bus) {
  const std::span<const std::uint16_t> mscnt = bus.lane_values(map_.mscnt);
  const std::span<const std::uint16_t> pulscnt =
      bus.lane_values(map_.pulscnt);
  const std::span<const std::uint16_t> slow =
      bus.lane_values(map_.slow_speed);
  const std::span<const std::uint16_t> stopped =
      bus.lane_values(map_.stopped);
  const std::span<std::uint16_t> checkpoint_i =
      bus.lane_values(map_.checkpoint_i);
  const std::span<std::uint16_t> set_value =
      bus.lane_values(map_.set_value);

  const std::size_t lanes = bus.lane_count();
  for (std::size_t l = 0; l < lanes; ++l) {
    if (stopped[l] != 0) {
      set_value[l] = 0;
      continue;
    }
    const std::uint16_t i = checkpoint_i[l];
    if (i < kCheckpointCount && pulscnt[l] >= checkpoint_pulses_[i]) {
      // Rare branch (six hits per run per lane): shared scalar math.
      const auto seg_pulses =
          static_cast<std::uint16_t>(pulscnt[l] - seg_start_pulses_[l]);
      const auto seg_ms =
          static_cast<std::uint16_t>(mscnt[l] - seg_start_ms_[l]);
      const CalcCheckpointOutcome outcome = calc_checkpoint_math(
          seg_pulses, seg_ms, seg_start_velocity_[l], seg_set_value_[l],
          gain_[l], pulscnt[l]);
      gain_[l] = outcome.gain;
      set_value[l] = outcome.set_value;
      checkpoint_i[l] = static_cast<std::uint16_t>(i + 1);
      seg_start_pulses_[l] = pulscnt[l];
      seg_start_ms_[l] = mscnt[l];
      seg_start_velocity_[l] = outcome.velocity;
      seg_set_value_[l] = outcome.set_value;
      continue;
    }
    if (slow[l] != 0 && set_value[l] > kSlowCreepSetValue) {
      set_value[l] = kSlowCreepSetValue;
    }
  }
}

std::uint64_t BatchedCalc::settled_lanes(
    const fi::BatchedSignalBus& bus) const {
  const std::span<const std::uint16_t> pulscnt =
      bus.lane_values(map_.pulscnt);
  const std::span<const std::uint16_t> checkpoint_i =
      bus.lane_values(map_.checkpoint_i);
  std::uint64_t lanes = 0;
  for (std::size_t l = 0; l < bus.lane_count(); ++l) {
    const std::uint16_t i = checkpoint_i[l];
    const bool settled =
        i >= kCheckpointCount || pulscnt[l] < checkpoint_pulses_[i];
    lanes |= static_cast<std::uint64_t>(settled) << l;
  }
  return lanes;
}

}  // namespace propane::arr

// CALC (Section 7.1): "uses mscnt, pulscnt, slow_speed and stopped to
// calculate a set point value for the pressure valves, SetValue, at six
// predefined checkpoints along the runway. The checkpoints are detected by
// comparing the current pulscnt with pre-defined pulscnt-values
// corresponding to the various checkpoints. The current checkpoint is
// stored in i. Period = n/a (background task, runs when other modules are
// dormant)."
//
// Control law (reconstruction): at every checkpoint the module estimates
// the engagement velocity from the pulse count and the millisecond clock,
// computes the deceleration required to stop at the target point, and
// converts it to a pressure set point using a brake-gain estimate that is
// re-identified from the previous segment (the aircraft mass is unknown to
// the controller). While slow_speed is set the set point is capped to a
// creep pressure; when stopped is set the brake is released.
#pragma once

#include <cstdint>
#include <vector>

#include "arrestment/constants.hpp"
#include "arrestment/signals.hpp"
#include "fi/batched_bus.hpp"
#include "fi/signal_bus.hpp"

namespace propane::arr {

/// Code-version token for delta-campaign fingerprints (arr::module_version_tokens,
/// fi/delta_campaign.hpp). Bump on ANY behavioural change to this module, or
/// cached baseline records will be replayed as if still valid.
inline constexpr std::uint64_t kCalcVersion = 1;

class CalcModule {
 public:
  explicit CalcModule(const BusMap& map);

  /// Background task: invoked once per millisecond tick.
  void step(fi::SignalBus& bus);

  /// Checkpoint pulse thresholds (pre-computed from kCheckpointM).
  static std::uint16_t checkpoint_pulses(int index);

  /// Module-internal state, exposed so the batched kernel can replicate a
  /// checkpointed module across lanes and compare lane state for
  /// convergence detection.
  struct Snapshot {
    std::uint16_t seg_start_pulses = 0;
    std::uint16_t seg_start_ms = 0;
    double seg_start_velocity = 0.0;
    std::uint16_t seg_set_value = 0;
    double gain = 0.0;
  };
  Snapshot snapshot() const {
    return {seg_start_pulses_, seg_start_ms_, seg_start_velocity_,
            seg_set_value_, gain_};
  }

 private:
  BusMap map_;
  // Segment bookkeeping for velocity / brake-gain estimation.
  std::uint16_t seg_start_pulses_ = 0;
  std::uint16_t seg_start_ms_ = 0;
  double seg_start_velocity_ = 0.0;  // m/s estimate at segment start
  std::uint16_t seg_set_value_ = 0;  // set point applied during the segment
  // Brake gain estimate [m/s^2 per SetValue unit].
  double gain_;
};

/// The double-precision checkpoint computation of CALC: velocity estimate
/// over the finished segment, brake-gain re-identification, required
/// deceleration and the resulting set point. Deliberately a non-inline
/// free function defined once in calc.cpp: the scalar CalcModule::step and
/// the batched kernel both call this exact compiled code, so their
/// floating-point results are bit-identical by construction (two separate
/// compilations of the same expressions could contract FMAs differently).
struct CalcCheckpointOutcome {
  double velocity = 0.0;     // segment-end velocity estimate [m/s]
  double gain = 0.0;         // possibly re-identified brake gain
  std::uint16_t set_value = 0;
};
CalcCheckpointOutcome calc_checkpoint_math(std::uint16_t seg_pulses,
                                           std::uint16_t seg_ms,
                                           double seg_start_velocity,
                                           std::uint16_t seg_set_value,
                                           double gain, std::uint16_t pulscnt);

/// Batched CALC: structure-of-arrays per-lane segment state for up to 64
/// lanes. Each step is two branch-free sweeps over whole lane rows -- the
/// set point (brake release when stopped, creep cap when slow) and the
/// lanes whose checkpoint is reached -- and the rare checkpoint branch runs
/// calc_checkpoint_math only for the reached lanes that are not stopped,
/// overwriting the set point the sweep wrote. Reach is one compare per
/// checkpoint rather than a table lookup through i, so a corrupted
/// i >= kCheckpointCount is exact.
class BatchedCalc {
 public:
  /// Every lane starts as a copy of `prototype`'s current state.
  BatchedCalc(const BusMap& map, const CalcModule& prototype,
              std::size_t lanes);

  /// Overwrites one lane's segment state with `prototype`'s, between
  /// ticks -- how the batch kernel seeds a segment's golden lane from a
  /// golden-run state of its test case.
  void load_lane(std::size_t lane, const CalcModule& prototype) {
    const CalcModule::Snapshot snap = prototype.snapshot();
    seg_start_pulses_[lane] = snap.seg_start_pulses;
    seg_start_ms_[lane] = snap.seg_start_ms;
    seg_start_velocity_[lane] = snap.seg_start_velocity;
    seg_set_value_[lane] = snap.seg_set_value;
    gain_[lane] = snap.gain;
  }

  /// Overwrites lane `dst`'s segment state with lane `src`'s (slot
  /// refill).
  void copy_lane(std::size_t dst, std::size_t src) {
    seg_start_pulses_[dst] = seg_start_pulses_[src];
    seg_start_ms_[dst] = seg_start_ms_[src];
    seg_start_velocity_[dst] = seg_start_velocity_[src];
    seg_set_value_[dst] = seg_set_value_[src];
    gain_[dst] = gain_[src];
  }

  /// One background-task invocation over all lanes.
  void step_lanes(fi::BatchedSignalBus& bus);

  /// Lane state equality (convergence detection).
  bool lane_equals(std::size_t a, std::size_t b) const {
    return seg_start_pulses_[a] == seg_start_pulses_[b] &&
           seg_start_ms_[a] == seg_start_ms_[b] &&
           seg_start_velocity_[a] == seg_start_velocity_[b] &&
           seg_set_value_[a] == seg_set_value_[b] && gain_[a] == gain_[b];
  }

  /// Lanes whose checkpoint index is settled (batch_system.hpp, "Early
  /// exit"): the complement of the reach predicate step_lanes uses, that
  /// is i >= kCheckpointCount or pulscnt < checkpoint_pulses(i).
  /// CALC is the only writer of i and advances it only past a reached
  /// checkpoint, so while pulscnt holds a settled lane's i never changes,
  /// whatever stopped, slow_speed and mscnt hold.
  std::uint64_t settled_lanes(const fi::BatchedSignalBus& bus) const;

 private:
  BusMap map_;
  std::uint16_t checkpoint_pulses_[kCheckpointCount];
  std::vector<std::uint16_t> seg_start_pulses_;
  std::vector<std::uint16_t> seg_start_ms_;
  std::vector<double> seg_start_velocity_;
  std::vector<std::uint16_t> seg_set_value_;
  std::vector<double> gain_;
};

}  // namespace propane::arr

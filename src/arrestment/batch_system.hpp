// Lockstep batched execution of the target system: N injection runs,
// possibly of *different* test cases and fire ticks, simulated together --
// the structure-of-arrays counterpart of ArrestmentSystem.
//
// A batch is a sequence of segments, one per test case, each contributing
// one golden lane plus that test case's injection lanes. Every segment's
// golden lane re-simulates its golden run from the shared origin tick, and
// each injection lane tracks divergence online against *its own segment's*
// golden lane, so the batch produces final DivergenceReports without
// materialising a trace per run. Lanes whose injection fires after the
// origin tick simply evolve bit-identically to their golden lane until the
// fire scan triggers them (staggered activation needs no kernel masking).
// The batched module updates are exact by construction: integer modules
// are pure re-implementations, and the double-precision paths
// (BatchedEnvironment, calc_checkpoint_math) perform the scalar path's
// operation sequence per lane on a target whose double arithmetic is IEEE
// per-op (no FMA contraction), so lane values are bit-identical to a
// scalar run at every tick -- the property
// tests/fi/batch_equivalence_test.cpp enforces.
//
// Early exit: an injection lane retires from the batch when its report can
// no longer change --
//   * exhausted: every signal has recorded its first divergence, or
//   * converged: the lane's complete bus, module-internal and
//     bus-observable environment state equals the golden lane's, so all
//     its future samples equal the golden suffix.
// Retired lanes may still be touched by the branch-free module sweeps
// (their state is dead); the simulation stops once every injection lane
// retired or the horizon is reached.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arrestment/system.hpp"
#include "fi/batched_bus.hpp"
#include "fi/golden.hpp"
#include "sim/lanes.hpp"
#include "sim/scheduler.hpp"

namespace propane::arr {

/// One injection lane: the planned injection plus its RNG stream seed
/// (the same (campaign seed, flat index)-derived seed the scalar path
/// would use). `spec` is borrowed and must outlive the batch.
struct BatchLaneSpec {
  const fi::InjectionSpec* spec = nullptr;
  std::uint64_t rng_seed = 0;
};

/// One test-case segment of a batch: a golden-run origin system at the
/// batch's shared start tick, plus the injection lanes that compare
/// against it. `origin` and `specs` are borrowed and must outlive the
/// batch's construction (`origin`) / the batch (`specs` elements).
struct BatchSegment {
  const ArrestmentSystem* origin = nullptr;
  std::span<const BatchLaneSpec> specs;
};

class BatchedArrestmentSystem {
 public:
  /// Replicates `origin` -- a golden-run system at its current tick
  /// (a warm-start checkpoint, or a fresh system for fire tick 0) --
  /// across `specs.size() + 1` lanes. The batch simulates from
  /// origin.now() to `duration`. (Single-segment convenience form.)
  BatchedArrestmentSystem(const ArrestmentSystem& origin,
                          std::span<const BatchLaneSpec> specs,
                          sim::SimTime duration);

  /// Cross-test-case form: one golden lane per segment, every origin at
  /// the same current tick. Lanes are laid out segment-contiguously
  /// ([golden 0, lanes 0..., golden 1, lanes 1...]); injection lane
  /// indices (reports, take_lane_trace) count specs across segments in
  /// order. At least one segment must carry an injection lane.
  BatchedArrestmentSystem(std::span<const BatchSegment> segments,
                          sim::SimTime duration);
  ~BatchedArrestmentSystem();

  BatchedArrestmentSystem(const BatchedArrestmentSystem&) = delete;
  BatchedArrestmentSystem& operator=(const BatchedArrestmentSystem&) = delete;

  /// Test/diagnostic mode: materialise a full per-lane trace (golden lane
  /// included) and disable early exit so every lane covers the horizon.
  /// `prefix` seeds each trace with the rows before origin.now() (pass the
  /// checkpoint's shared golden trace -- rows past the origin tick are
  /// ignored -- or nullptr when the origin starts at t=0). Must be called
  /// before run(). Single-segment batches only; the span overload below
  /// takes one prefix per segment.
  void enable_recording(const fi::TraceSet* prefix);
  void enable_recording(std::span<const fi::TraceSet* const> prefixes);

  /// Simulates to the horizon (or until every injection lane retired) and
  /// returns one final DivergenceReport per injection lane, in spec order.
  std::vector<fi::DivergenceReport> run();

  // Post-run observability.
  /// Scheduler slots actually executed (one per simulated millisecond).
  std::uint64_t ticks_simulated() const { return ticks_; }
  /// Per retirement: ticks into the batch when the lane retired, in
  /// retirement order; its size is the number of lanes retired early.
  const std::vector<std::uint64_t>& retirement_ticks() const {
    return retirement_ticks_;
  }

  /// Recorded traces (recording mode, after run()): injection lane `i` in
  /// cross-segment spec order, or a segment's golden lane (segment 0 by
  /// default, matching the single-segment constructor).
  fi::TraceSet take_lane_trace(std::size_t i);
  fi::TraceSet take_golden_trace(std::size_t segment = 0);

 private:
  /// One test-case segment's lane geometry: its golden bus lane, the bus
  /// lane of its first injection lane (golden_lane + 1), the cross-segment
  /// spec index of that lane (= its bit position in the pending masks) and
  /// the number of injection lanes.
  struct SegmentInfo {
    std::size_t golden_lane = 0;
    std::size_t first_lane = 0;
    std::size_t first_bit = 0;
    std::size_t count = 0;
  };

  void fire_injections(sim::SimTime now, fi::InjectionPhase phase);
  void step_environment(sim::SimTime now);
  void check_divergence(sim::SimTime now);
  void note_divergences(std::size_t sig, std::size_t base,
                        std::uint64_t newly, std::uint64_t ms);
  void check_convergence(sim::SimTime now);
  void retire(std::size_t lane, std::uint64_t now_ms);

  void record_rows();

  std::size_t lanes_;            // total specs + one golden per segment
  std::size_t signals_;
  BusMap map_;
  sim::SimTime duration_;
  std::uint64_t duration_ms_;
  fi::SignalNameTable names_;

  fi::BatchedSignalBus bus_;
  sim::SlotScheduler scheduler_;
  BatchedEnvironment env_;
  BatchedClock clock_;
  BatchedDistS dist_s_;
  BatchedPresS pres_s_;
  BatchedPresA pres_a_;
  BatchedVReg v_reg_;
  BatchedCalc calc_;

  // Injection lanes in cross-segment spec order. Spec j occupies bus lane
  // spec_lane_[j] and compares against golden lane spec_golden_[j] (its
  // segment's golden); in the single-segment layout these collapse to
  // j + 1 and 0.
  std::vector<BatchLaneSpec> specs_;
  std::vector<SegmentInfo> segments_;
  std::vector<std::uint32_t> spec_lane_;
  std::vector<std::uint32_t> spec_golden_;
  std::vector<std::uint8_t> fired_;
  std::size_t unfired_ = 0;

  // Online divergence tracking.
  std::vector<fi::DivergenceReport> reports_;   // per injection lane
  std::vector<sim::LaneMask> pending_;          // per signal: not yet diverged
  std::vector<std::uint32_t> undiverged_;       // per lane: pending signals
  std::vector<std::uint16_t> conv_hint_;        // per lane: last unequal signal
  sim::LaneMask active_;                        // live injection lanes
  std::size_t active_count_ = 0;
  std::uint64_t ticks_ = 0;

  // Early-exit accounting.
  std::uint64_t start_ms_ = 0;  // origin.now() in ms, for retirement ticks
  std::vector<std::uint64_t> retirement_ticks_;

  // General divergence screen scratch (batches wider than one mask word).
  std::vector<std::uint64_t> screen_words_;

  // Golden-gather screen tables (valid when lanes_ <= 64): golden_idx_[l]
  // is the bus lane whose value lane l compares against (a golden lane
  // maps to itself); spec_lane_mask_ has one bit per injection lane. A
  // vector permute through golden_idx_ reduces the whole screen to one
  // row compare per signal, independent of how many test-case segments
  // the batch packs (check_divergence).
  std::array<std::uint16_t, 64> golden_idx_{};
  std::uint64_t spec_lane_mask_ = 0;

  // Recording mode (tests): per-bus-lane traces, retirement disabled.
  bool recording_ = false;
  std::vector<fi::TraceSet> traces_;
  std::vector<std::uint16_t> row_scratch_;
};

}  // namespace propane::arr

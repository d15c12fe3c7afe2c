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
//
// Persistent lanes: a segment may hold more runs than it has injection
// lanes ("slots"). Between ticks, a retired slot is reseeded from its
// segment's golden lane (copy_lane on the bus and every stateful module)
// and takes the segment's next queued run whose fire tick has not passed;
// from the golden state at tick t, a run firing at or after t is exactly
// its scalar run. Runs whose fire tick passed before a slot came free are
// left for a later pass (deferred()). The simulation stops once no slot
// holds a run and no queued run can still join, or at the horizon. Slots
// without a run may still be touched by the branch-free module sweeps
// (their state is dead until the next reseed).
//
// Width: a batch sweeps at most kMaxLanes lanes (slots plus one golden lane
// per segment) over at most kMaxSignals signals, so one 64-bit word holds
// every per-signal lane set and the divergence screen compares whole rows
// at once. The production runner sizes each pass to exactly one or two
// 32-lane vector rows (batch_runner.cpp).
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
/// batch's shared start tick, plus the runs that compare against it.
/// `origin` and `specs` are borrowed and must outlive the batch's
/// construction (`origin`) / the batch (`specs` elements).
struct BatchSegment {
  const ArrestmentSystem* origin = nullptr;
  /// The segment's runs, in non-decreasing fire-tick order when they
  /// outnumber the slots (refill takes them in this order).
  std::span<const BatchLaneSpec> specs;
  /// Injection lanes the runs share; 0 = one per run (no refill), which
  /// recording mode requires. More slots than runs leaves the extra slots
  /// empty.
  std::size_t slots = 0;
};

class BatchedArrestmentSystem {
 public:
  /// Most lanes (slots + golden lanes) and bus signals one batch sweeps.
  static constexpr std::size_t kMaxLanes = 64;
  static constexpr std::size_t kMaxSignals = 64;

  /// The divergence screen the kernel compiled to: "avx512bw+bmi2" (golden
  /// gather), "avx2+bmi2" or "scalar".
  static const char* screen_isa();

  /// Replicates `origin` -- a golden-run system at its current tick
  /// (a warm-start checkpoint, or a fresh system for fire tick 0) --
  /// across `slots + 1` lanes (`slots` 0 = one per spec). The batch
  /// simulates from origin.now() to `duration`. (Single-segment
  /// convenience form.)
  BatchedArrestmentSystem(const ArrestmentSystem& origin,
                          std::span<const BatchLaneSpec> specs,
                          sim::SimTime duration, std::size_t slots = 0);

  /// Cross-test-case form: one golden lane per segment, every origin at
  /// the same current tick. Lanes are laid out segment-contiguously
  /// ([golden 0, slots 0..., golden 1, slots 1...]); run indices (reports,
  /// deferred, take_lane_trace) count specs across segments in order. At
  /// least one segment must carry a run.
  BatchedArrestmentSystem(std::span<const BatchSegment> segments,
                          sim::SimTime duration);
  ~BatchedArrestmentSystem();

  BatchedArrestmentSystem(const BatchedArrestmentSystem&) = delete;
  BatchedArrestmentSystem& operator=(const BatchedArrestmentSystem&) = delete;

  /// Test/diagnostic mode: materialise a full per-lane trace (golden lane
  /// included) and disable early exit so every lane covers the horizon.
  /// Every run needs its own slot (recording never refills).
  /// `prefix` seeds each trace with the rows before origin.now() (pass the
  /// checkpoint's shared golden trace -- rows past the origin tick are
  /// ignored -- or nullptr when the origin starts at t=0). Must be called
  /// before run(). Single-segment batches only; the span overload below
  /// takes one prefix per segment.
  void enable_recording(const fi::TraceSet* prefix);
  void enable_recording(std::span<const fi::TraceSet* const> prefixes);

  /// Simulates until no slot holds a run and no queued run can still join
  /// (or to the horizon) and returns one final DivergenceReport per run,
  /// in spec order. A deferred run's entry stays empty.
  std::vector<fi::DivergenceReport> run();

  // Post-run observability.
  /// Runs the batch did not take, ascending: their fire tick had passed
  /// when a slot came free. A later pass must run them from an earlier
  /// origin.
  const std::vector<std::size_t>& deferred() const { return deferred_; }
  /// Scheduler slots actually executed (one per simulated millisecond).
  std::uint64_t ticks_simulated() const { return ticks_; }
  /// Injection lanes (slots) the batch sweeps.
  std::size_t slot_count() const { return slot_run_.size(); }
  /// Lanes the batch sweeps: slots plus one golden lane per segment.
  std::size_t lane_count() const { return lanes_; }
  /// Runs loaded into a slot a retired run had freed.
  std::uint64_t refills() const { return refills_; }
  /// Per tick, the slots holding a run, summed (divide by
  /// ticks_simulated() * slot_count() for slot utilisation).
  std::uint64_t live_slot_ticks() const { return live_slot_ticks_; }
  /// Per retirement: ticks from the run joining its slot to its
  /// retirement, in retirement order; its size is the number of runs
  /// retired early.
  const std::vector<std::uint64_t>& retirement_ticks() const {
    return retirement_ticks_;
  }

  /// Recorded traces (recording mode, after run()): run `i` in
  /// cross-segment spec order, or a segment's golden lane (segment 0 by
  /// default, matching the single-segment constructor).
  fi::TraceSet take_lane_trace(std::size_t i);
  fi::TraceSet take_golden_trace(std::size_t segment = 0);

 private:
  /// One test-case segment's lane geometry: its golden bus lane, the bus
  /// lane of its first slot (golden_lane + 1), the cross-segment index of
  /// that slot (= its bit position in the pending and active masks), the
  /// slot count, and its run queue [next_spec, end_spec) in cross-segment
  /// spec indices.
  struct SegmentInfo {
    std::size_t golden_lane = 0;
    std::size_t first_lane = 0;
    std::size_t first_slot = 0;
    std::size_t slots = 0;
    std::size_t next_spec = 0;
    std::size_t end_spec = 0;
  };

  /// Marks a slot without a run.
  static constexpr std::uint32_t kNoRun = ~std::uint32_t{0};

  /// Loads the next eligible queued run into every free slot; returns how
  /// many it loaded.
  std::size_t fill_free_slots(std::uint64_t now_ms);
  void load(std::size_t slot, std::size_t spec, std::uint64_t now_ms);
  void fire_injections(sim::SimTime now, fi::InjectionPhase phase);
  void step_environment(sim::SimTime now);
  void check_divergence(sim::SimTime now);
  void note_divergences(std::size_t sig, std::uint64_t newly,
                        std::uint64_t ms);
  void check_convergence(sim::SimTime now);
  void retire(std::size_t slot, std::uint64_t now_ms);

  void record_rows();

  std::size_t lanes_;            // total slots + one golden per segment
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

  // Runs in cross-segment spec order, and the final report of each run
  // that has left its slot.
  std::vector<BatchLaneSpec> specs_;
  std::vector<fi::DivergenceReport> results_;
  std::vector<std::size_t> deferred_;
  std::vector<SegmentInfo> segments_;

  // Per slot, in cross-segment slot order: bus lane, its segment's golden
  // lane, segment index, the run it holds (kNoRun when free), whether that
  // run's injection is still to fire, and the tick the run joined.
  std::vector<std::uint32_t> slot_lane_;
  std::vector<std::uint32_t> slot_golden_;
  std::vector<std::uint32_t> slot_segment_;
  std::vector<std::uint32_t> slot_run_;
  std::vector<std::uint8_t> armed_;
  std::vector<std::uint64_t> joined_ms_;
  std::size_t armed_count_ = 0;
  sim::SimTime next_fire_ = 0;  // earliest `when` among armed slots
  bool refill_due_ = false;     // a slot freed while its queue is non-empty

  // Online divergence tracking, per slot.
  std::vector<fi::DivergenceReport> reports_;
  std::vector<std::uint64_t> pending_;          // per signal: undiverged slots
  std::vector<std::uint32_t> undiverged_;       // pending signals
  std::vector<std::uint16_t> conv_hint_;        // last unequal signal
  sim::LaneMask active_;                        // slots holding a run
  std::size_t active_count_ = 0;
  std::uint64_t ticks_ = 0;

  // Early-exit and refill accounting.
  std::uint64_t refills_ = 0;
  std::uint64_t live_slot_ticks_ = 0;
  std::vector<std::uint64_t> retirement_ticks_;

  // Golden-gather screen tables: golden_idx_[l] is the bus lane whose
  // value lane l compares against (a golden lane maps to itself);
  // slot_lane_mask_ has one bit per slot lane. A vector permute through
  // golden_idx_ reduces the whole screen to one row compare per signal,
  // independent of how many test-case segments the batch packs
  // (check_divergence).
  std::array<std::uint16_t, kMaxLanes> golden_idx_{};
  std::uint64_t slot_lane_mask_ = 0;

  // Recording mode (tests): per-bus-lane traces, retirement disabled.
  bool recording_ = false;
  std::vector<fi::TraceSet> traces_;
  std::vector<std::uint16_t> row_scratch_;
};

}  // namespace propane::arr

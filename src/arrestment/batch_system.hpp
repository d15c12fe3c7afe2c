// Lockstep batched execution of the target system: many injection runs of
// one test case, at any fire ticks, simulated together -- the
// structure-of-arrays counterpart of ArrestmentSystem.
//
// Lanes and segments: the kernel sweeps a fixed set of at most kMaxLanes
// lanes. A segment is the test case's golden run resumed from a
// golden-run state (a warm-start checkpoint, or t=0): one golden lane plus
// the lanes ("slots") whose runs compare against it. Each injection lane
// tracks divergence online against its own segment's golden lane, so the
// kernel produces final DivergenceReports without materialising a trace
// per run. Every segment keeps its own clock -- its simulated millisecond
// is the kernel tick plus a per-segment offset -- so segments opened from
// different checkpoints run side by side, each to its own horizon.
// Everything that reads simulated time is per segment: the environment's
// timer (TCNT), both fire scans, the first-divergence millisecond and the
// horizon. Lanes whose injection fires after they joined evolve
// bit-identically to their golden lane until the fire scan triggers them.
// The batched module updates are exact by construction: integer modules
// are pure re-implementations, and the double-precision paths
// (BatchedEnvironment, calc_checkpoint_math) perform the scalar path's
// operation sequence per lane on a target whose double arithmetic is IEEE
// per-op (no FMA contraction), so lane values are bit-identical to a
// scalar run at every tick -- the property
// tests/fi/batch_equivalence_test.cpp enforces.
//
// Early exit: a run retires from its lane when its report can no longer
// change --
//   * converged: the lane's complete bus, module-internal and
//     bus-observable environment state equals the golden lane's, so all
//     its future samples equal the golden suffix, or
//   * exhausted: every signal it has not diverged on yet is closed for
//     it -- a closed signal that still equals its golden lane at the end
//     of a tick equals it for the rest of the run. Once a run has fired,
//     only the system itself writes its bus, and two sets are closed:
//       - statically, {TCNT, mscnt, ms_slot_nbr}, for every lane: TCNT is
//         rewritten every tick from the timer the lane shares with its
//         golden lane, and mscnt and ms_slot_nbr only ever advance from
//         their own values (CLOCK);
//       - at standstill, for a lane that is at rest together with its
//         golden lane (velocity 0, and DIST_S's last pulse count equal to
//         PACNT): PACNT, TIC1 and pulscnt (no pulse ever again), plus
//         slow_speed once both lanes are pulse-free for kSlowSpeedGapMs,
//         stopped and SetValue once both are pulse-free for kStoppedGapMs
//         (DIST_S latches stopped, CALC then writes SetValue = 0 every
//         tick), and CALC's i once both lanes' i is settled (no reachable
//         checkpoint while pulscnt holds). Each module states its
//         predicates as lane masks beside its lane_equals.
//     The static rule is applied on every tick a run diverges, the
//     standstill rule in the periodic convergence pass; both retire
//     `touched & ~OR_sig(pending[sig] & ~closed[sig])`.
//
// Rolling segments: between ticks, a free lane joins an open segment when
// a queued run fires within kJoinWindowMs of the segment's clock; from the
// golden state at tick t, a run firing at or after t is exactly its scalar
// run. When lanes are free and no open segment can take a queued run, the
// kernel opens a new segment at the earliest pending fire tick -- a golden
// lane seeded from the pool's origin, plus slots for the runs firing
// within the join window -- once kOpenLanes lanes are free (or nothing
// else is open, or every queued run fits). A segment closes when it holds
// no run or its clock reaches the horizon. Free lanes may still be touched
// by the branch-free module sweeps (their state is dead until the next
// seeding).
//
// Width: a kernel sweeps at most kMaxLanes lanes over at most kMaxSignals
// signals, so one 64-bit word holds every per-signal lane set and the
// divergence screen compares whole rows at once. The production runner
// sizes each kernel to exactly one or two 32-lane vector rows
// (batch_runner.cpp).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "arrestment/system.hpp"
#include "fi/batched_bus.hpp"
#include "fi/golden.hpp"

namespace propane::arr {

/// One injection lane: the planned injection plus its RNG stream seed
/// (the same (campaign seed, flat index)-derived seed the scalar path
/// would use). `spec` is borrowed and must outlive the batch.
struct BatchLaneSpec {
  const fi::InjectionSpec* spec = nullptr;
  std::uint64_t rng_seed = 0;
};

/// The runs of one test case, and the golden-run states its segments open
/// from.
struct BatchPool {
  /// The runs, in non-decreasing fire-tick order. Borrowed; must outlive
  /// the batch.
  std::span<const BatchLaneSpec> specs;
  /// The golden-run system a segment whose earliest run fires at tick `ms`
  /// opens from: the state at the start of tick `ms`, or of an earlier
  /// tick (t=0) when none is kept. Read only while the segment opens.
  std::function<const ArrestmentSystem&(std::uint64_t ms)> origin;
};

class BatchedArrestmentSystem {
 public:
  /// Most lanes (slots + golden lanes) and bus signals one kernel sweeps.
  static constexpr std::size_t kMaxLanes = 64;
  static constexpr std::size_t kMaxSignals = 64;
  /// A free lane joins an open segment for a run firing at most this many
  /// milliseconds after the segment's clock.
  static constexpr std::uint64_t kJoinWindowMs = 500;
  /// Free lanes a new segment waits for while other segments are open.
  static constexpr std::size_t kOpenLanes = 8;

  /// Rolling form: streams every run of `pool` through `lanes` lanes (at
  /// most kMaxLanes), holding at most `max_slots` runs at a time, each
  /// segment simulating from its origin to `duration`.
  BatchedArrestmentSystem(const BatchPool& pool, std::size_t lanes,
                          std::size_t max_slots, sim::SimTime duration);

  /// Fixed form: one segment opens before the first tick from `origin` --
  /// a golden-run system at its current tick -- with `slots` slots (0 =
  /// one per spec, which recording mode requires), so the kernel sweeps
  /// `slots + 1` lanes. `specs` are in non-decreasing fire-tick order, none
  /// firing before the origin tick; runs beyond the slots wait for a free
  /// lane. `origin` and `specs` are borrowed and must outlive the batch.
  BatchedArrestmentSystem(const ArrestmentSystem& origin,
                          std::span<const BatchLaneSpec> specs,
                          sim::SimTime duration, std::size_t slots = 0);
  ~BatchedArrestmentSystem();

  BatchedArrestmentSystem(const BatchedArrestmentSystem&) = delete;
  BatchedArrestmentSystem& operator=(const BatchedArrestmentSystem&) = delete;

  /// Test/diagnostic mode (fixed form): materialise a full per-lane trace
  /// (the golden lane included) and disable early exit so every lane
  /// covers the horizon. Every run needs its own slot. `prefix` seeds the
  /// traces with the rows before the origin tick (pass the checkpoint's
  /// golden trace -- rows past the origin tick are ignored -- or nullptr
  /// when the origin starts at t=0). Must be called before run().
  void enable_recording(const fi::TraceSet* prefix);

  /// Simulates until every run has left its lane and returns one final
  /// DivergenceReport per run, in run order.
  std::vector<fi::DivergenceReport> run();

  // Post-run observability.
  /// Kernel ticks executed (each advances every open segment by 1 ms).
  std::uint64_t ticks_simulated() const { return ticks_; }
  /// Most runs the kernel holds at a time.
  std::size_t slot_count() const { return max_slots_; }
  /// Lanes the kernel sweeps every tick.
  std::size_t lane_count() const { return lanes_; }
  /// Segments opened.
  std::size_t segment_count() const { return segments_.size(); }
  /// Per segment, in opening order: the millisecond its clock started at
  /// and the kernel tick it opened on.
  struct SegmentOrigin {
    std::uint64_t origin_ms = 0;
    std::uint64_t opened_tick = 0;
  };
  std::vector<SegmentOrigin> segment_origins() const;
  /// Runs that joined a segment already open (rather than one opening
  /// for them).
  std::uint64_t refills() const { return refills_; }
  /// Per tick, the lanes that were not golden lanes, summed.
  std::uint64_t slot_ticks() const { return slot_ticks_; }
  /// Per tick, the lanes holding a run, summed.
  std::uint64_t live_slot_ticks() const { return live_slot_ticks_; }
  /// Per retirement: ticks from the run joining its lane to its
  /// retirement, in retirement order; its size is the number of runs
  /// retired early.
  const std::vector<std::uint64_t>& retirement_ticks() const {
    return retirement_ticks_;
  }
  /// Early retirements by cause (they sum to retirement_ticks().size()).
  std::uint64_t converged_retirements() const { return converged_; }
  std::uint64_t exhausted_retirements() const { return exhausted_; }

  /// The steps of one tick, in tick() order (both fire scans count as
  /// kStepFire; kStepScreen includes recording mode's row capture).
  enum Step : std::uint8_t {
    kStepFire,
    kStepEnv,
    kStepClock,
    kStepDistS,
    kStepPresS,
    kStepPresA,
    kStepVReg,
    kStepCalc,
    kStepScreen,
    kStepConverge,
    kStepCount
  };
  static constexpr std::array<const char*, kStepCount> kStepNames = {
      "fire",   "env",    "clock", "dist_s", "pres_s",
      "pres_a", "v_reg",  "calc",  "screen", "converge"};
  /// One tick in this many is timed step by step.
  static constexpr std::uint64_t kStepSamplePeriod = 64;
  /// Per step, the timer units (TSC cycles on x86, steady-clock
  /// nanoseconds elsewhere) it took over the sampled ticks, less the
  /// timer's own cost: a split of the tick's cost, not its total. The
  /// sampled tick walks through the residues modulo the convergence
  /// period, so the sampled ticks hold their share of convergence checks;
  /// a sampled tick the thread was descheduled in is left out.
  const std::array<std::uint64_t, kStepCount>& step_cycles() const {
    return step_cycles_;
  }
  /// The sampled ticks step_cycles() holds (the descheduled ones left
  /// out): step_cycles()[s] / this is step s's cost per tick.
  std::uint64_t step_sampled_ticks() const { return step_sampled_ticks_; }

  /// Recorded traces (recording mode, after run()): run `i` in spec
  /// order, or the segment's golden lane.
  fi::TraceSet take_lane_trace(std::size_t i);
  fi::TraceSet take_golden_trace();

 private:
  struct Segment {
    std::uint32_t golden = 0;    // golden bus lane
    std::int64_t offset = 0;     // segment millisecond - kernel tick
    std::uint64_t opened_tick = 0;
    std::uint64_t end_tick = 0;  // kernel tick its clock reaches the horizon
    std::uint64_t lanes = 0;     // golden lane plus the lanes holding runs
    std::uint32_t runs = 0;
  };

  /// Marks a lane without a segment or a run.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  BatchedArrestmentSystem(const BatchPool& pool, std::size_t lanes,
                          std::size_t max_slots, sim::SimTime duration,
                          const ArrestmentSystem& prototype);

  std::uint64_t segment_ms(const Segment& seg) const {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(ticks_) +
                                      seg.offset);
  }
  std::size_t in_flight() const {
    return static_cast<std::size_t>(__builtin_popcountll(runs_));
  }

  /// Between ticks: joins free lanes to open segments, closes segments
  /// without a run and opens new ones (see the header comment).
  void schedule();
  void refill();
  /// Position in the queue of the first run firing at or after the
  /// segment's clock.
  std::size_t next_queued(const Segment& segment) const;
  void open_segment(const ArrestmentSystem& origin, std::size_t slots,
                    std::uint64_t last_fire_ms);
  void load(std::size_t lane, std::uint32_t seg, std::uint32_t run);
  void release(std::size_t lane);
  void close(std::uint32_t seg);

  void tick();
  void fire_injections(fi::InjectionPhase phase);
  /// Bit l set iff lane l's value of `sig` differs from its golden lane's.
  std::uint64_t golden_diff(std::size_t sig) const;
  void check_divergence();
  void note_divergences(std::size_t sig, std::uint64_t newly);
  void check_convergence();
  /// The lanes of `lanes` whose segment's golden lane is in `lanes` too
  /// (a lane in no segment is left out).
  std::uint64_t with_golden(std::uint64_t lanes) const;
  /// The lanes with a pending signal that is not closed for them, given
  /// one closed-lane mask per signal: `touched` minus this set is
  /// exhausted.
  std::uint64_t open_lanes(
      const std::array<std::uint64_t, kMaxSignals>& closed) const;
  void retire(std::size_t lane, bool exhausted);

  void record_rows();

  std::size_t lanes_;
  std::size_t max_slots_;
  std::size_t signals_;
  BusMap map_;
  std::uint64_t duration_ms_;
  fi::SignalNameTable names_;

  fi::BatchedSignalBus bus_;
  BatchedEnvironment env_;
  BatchedClock clock_;
  BatchedDistS dist_s_;
  BatchedPresS pres_s_;
  BatchedPresA pres_a_;
  BatchedVReg v_reg_;
  BatchedCalc calc_;

  // Runs in fire-tick order; the final report of each run that has left
  // its lane, and the lane each run ran on. The queue holds the indices of
  // the runs no lane has taken yet, in fire-tick order, and `origin_` the
  // golden-run states segments open from.
  std::vector<BatchLaneSpec> specs_;
  std::vector<std::uint64_t> fire_ms_;
  std::vector<fi::DivergenceReport> results_;
  std::vector<std::uint32_t> run_lane_;
  std::vector<std::uint32_t> queue_;
  std::function<const ArrestmentSystem&(std::uint64_t)> origin_;

  // Segments ever opened, and the indices of the open ones.
  std::vector<Segment> segments_;
  std::vector<std::uint32_t> open_;

  // Lane sets (bit l = lane l): lanes in no segment, lanes holding a run,
  // and lanes whose run's injection is still to fire.
  std::uint64_t free_ = 0;
  std::uint64_t runs_ = 0;
  std::uint64_t armed_ = 0;
  std::uint64_t next_fire_tick_ = 0;  // earliest fire tick among armed lanes

  // Per lane: its segment, the run it holds, the kernel tick that run fires
  // at and the tick it joined.
  std::vector<std::uint32_t> lane_seg_;
  std::vector<std::uint32_t> lane_run_;
  std::vector<std::uint64_t> fire_tick_;
  std::vector<std::uint64_t> joined_tick_;

  // Online divergence tracking, per lane. A signal's pending word holds
  // the lanes whose run has not diverged on it yet; its static-closed word
  // is every lane for TCNT, mscnt and ms_slot_nbr, and none otherwise.
  std::vector<fi::DivergenceReport> reports_;
  std::vector<std::uint64_t> pending_;
  std::array<std::uint64_t, kMaxSignals> static_closed_{};

  // Golden-gather table: golden_idx_[l] is the bus lane whose value lane l
  // compares against (golden and free lanes map to themselves). Through it
  // a signal's screen is one pass over its row, however many segments are
  // open (golden_diff): an AVX-512BW permute and masked compare where the
  // kernel is built for it, a portable byte-per-lane loop elsewhere.
  std::array<std::uint16_t, kMaxLanes> golden_idx_{};

  std::uint64_t next_end_tick_ = ~std::uint64_t{0};  // earliest end_tick
  bool schedule_due_ = true;          // a lane or segment came free
  std::uint64_t wake_tick_ = ~std::uint64_t{0};  // a queued run joinable
  std::uint64_t ticks_ = 0;

  // Accounting.
  std::uint64_t refills_ = 0;
  std::uint64_t slot_ticks_ = 0;
  std::uint64_t live_slot_ticks_ = 0;
  std::uint64_t converged_ = 0;
  std::uint64_t exhausted_ = 0;
  std::vector<std::uint64_t> retirement_ticks_;
  std::array<std::uint64_t, kStepCount> step_cycles_{};
  std::uint64_t step_sampled_ticks_ = 0;

  // Recording mode (tests): per-bus-lane traces, retirement disabled.
  bool recording_ = false;
  std::vector<fi::TraceSet> traces_;
  std::vector<std::uint16_t> row_scratch_;
};

}  // namespace propane::arr

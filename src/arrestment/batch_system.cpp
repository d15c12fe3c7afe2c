#include "arrestment/batch_system.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "arrestment/constants.hpp"
#include "arrestment/lane_mask.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace propane::arr {
namespace {

/// Convergence is checked once per this many ticks: often enough that a
/// transient error retires its lane quickly, rarely enough that the check
/// (a full state compare per candidate lane) stays off the hot path.
constexpr std::uint64_t kConvergenceCheckPeriod = 16;

/// The step split's clock: the TSC behind an lfence (so the step before it
/// has finished) on x86, steady-clock nanoseconds elsewhere.
std::uint64_t step_stamp() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_lfence();
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/// Whether tick `tick` is timed step by step: one tick in each window of
/// kStepSamplePeriod, at an offset that walks through the residues
/// modulo kConvergenceCheckPeriod from window to window (a fixed offset
/// would sample the convergence check on every sampled tick or never).
bool step_sampled(std::uint64_t tick) {
  constexpr std::uint64_t kPeriod = BatchedArrestmentSystem::kStepSamplePeriod;
  static_assert(kPeriod % kConvergenceCheckPeriod == 0);
  return tick % kPeriod == tick / kPeriod % kConvergenceCheckPeriod;
}

/// Charges the time between consecutive laps of one tick to its steps,
/// less the clock's own cost (two back-to-back reads on the same tick);
/// on an unsampled tick it reads no clock.
class StepLaps {
 public:
  using Sums = std::array<std::uint64_t, BatchedArrestmentSystem::kStepCount>;

  explicit StepLaps(bool sampled) : sampled_(sampled) {
    if (!sampled_) return;
    const std::uint64_t first = step_stamp();
    last_ = step_stamp();
    floor_ = last_ - first;
  }

  void lap(std::size_t step) {
    if (!sampled_) return;
    const std::uint64_t now = step_stamp();
    const std::uint64_t spent = now - last_;
    laps_[step] += spent > floor_ ? spent - floor_ : 0;
    last_ = now;
  }

  /// Adds the tick's laps to `sums` and counts it in `kept`, unless the
  /// tick took longer than any tick's work does (2^20 timer units, about
  /// 0.3 ms of TSC): then the thread was descheduled inside it, and one
  /// such tick would outweigh thousands of sampled ones.
  void commit(Sums& sums, std::uint64_t& kept) const {
    if (!sampled_) return;
    std::uint64_t total = 0;
    for (const std::uint64_t lap : laps_) total += lap;
    if (total > (std::uint64_t{1} << 20)) return;
    for (std::size_t step = 0; step < sums.size(); ++step) {
      sums[step] += laps_[step];
    }
    ++kept;
  }

 private:
  bool sampled_;
  std::uint64_t last_ = 0;
  std::uint64_t floor_ = 0;
  Sums laps_{};
};

std::uint64_t lane_bit(std::size_t lane) { return std::uint64_t{1} << lane; }

std::size_t lowest_lane(std::uint64_t lanes) {
  return static_cast<std::size_t>(__builtin_ctzll(lanes));
}

/// The golden-run system the kernel's state is first shaped from: the
/// origin of the pool's earliest run.
const ArrestmentSystem& earliest_origin(const BatchPool& pool) {
  PROPANE_REQUIRE(pool.origin != nullptr);
  PROPANE_REQUIRE_MSG(!pool.specs.empty(),
                      "batch needs at least one injection");
  PROPANE_REQUIRE(pool.specs.front().spec != nullptr);
  return pool.origin(fi::injection_fire_ms(pool.specs.front().spec->when));
}

}  // namespace

BatchedArrestmentSystem::BatchedArrestmentSystem(const BatchPool& pool,
                                                 std::size_t lanes,
                                                 std::size_t max_slots,
                                                 sim::SimTime duration)
    : BatchedArrestmentSystem(pool, lanes, max_slots, duration,
                              earliest_origin(pool)) {}

BatchedArrestmentSystem::BatchedArrestmentSystem(
    const ArrestmentSystem& origin, std::span<const BatchLaneSpec> specs,
    sim::SimTime duration, std::size_t slots)
    : BatchedArrestmentSystem(
          BatchPool{specs,
                    [&origin](std::uint64_t) -> const ArrestmentSystem& {
                      return origin;
                    }},
          (slots == 0 ? specs.size() : slots) + 1,
          slots == 0 ? specs.size() : slots, duration, origin) {
  open_segment(origin, max_slots_, ~std::uint64_t{0});
}

BatchedArrestmentSystem::BatchedArrestmentSystem(
    const BatchPool& pool, std::size_t lanes, std::size_t max_slots,
    sim::SimTime duration, const ArrestmentSystem& prototype)
    : lanes_(lanes),
      max_slots_(max_slots),
      signals_(prototype.bus().signal_count()),
      map_(prototype.map()),
      duration_ms_(sim::to_milliseconds(duration)),
      names_(fi::intern_signal_names(prototype.bus().names())),
      bus_(prototype.bus(), lanes_),
      env_(prototype.environment(), prototype.now(), map_, lanes_),
      clock_(map_),
      dist_s_(map_, prototype.dist_s(), lanes_),
      pres_s_(map_),
      pres_a_(map_),
      v_reg_(map_, prototype.v_reg(), lanes_),
      calc_(map_, prototype.calc(), lanes_),
      origin_(pool.origin) {
  PROPANE_REQUIRE_MSG(lanes_ <= kMaxLanes, "a batch sweeps at most 64 lanes");
  PROPANE_REQUIRE_MSG(max_slots_ > 0 && max_slots_ < lanes_,
                      "a batch needs a slot and a golden lane");
  PROPANE_REQUIRE_MSG(signals_ <= kMaxSignals,
                      "a batch screens at most 64 signals");
  PROPANE_REQUIRE_MSG(!pool.specs.empty(),
                      "batch needs at least one injection");

  for (const BatchLaneSpec& lane_spec : pool.specs) {
    PROPANE_REQUIRE(lane_spec.spec != nullptr);
    PROPANE_REQUIRE(lane_spec.spec->model.apply != nullptr);
    PROPANE_REQUIRE_MSG(lane_spec.spec->target < signals_,
                        "injection targets unknown signal");
    const std::uint64_t fire = fi::injection_fire_ms(lane_spec.spec->when);
    PROPANE_REQUIRE_MSG(fire_ms_.empty() || fire >= fire_ms_.back(),
                        "a pool's runs must be in fire-tick order");
    queue_.push_back(static_cast<std::uint32_t>(specs_.size()));
    specs_.push_back(lane_spec);
    fire_ms_.push_back(fire);
  }
  results_.resize(specs_.size());
  run_lane_.assign(specs_.size(), kNone);

  free_ = lanes_ == 64 ? ~std::uint64_t{0} : lane_bit(lanes_) - 1;
  lane_seg_.assign(lanes_, kNone);
  lane_run_.assign(lanes_, kNone);
  fire_tick_.assign(lanes_, 0);
  joined_tick_.assign(lanes_, 0);
  reports_.resize(lanes_);
  pending_.assign(signals_, 0);
  for (std::size_t l = 0; l < kMaxLanes; ++l) {
    golden_idx_[l] = static_cast<std::uint16_t>(l);
  }
  for (const fi::BusSignalId sig : {map_.tcnt, map_.mscnt, map_.ms_slot_nbr}) {
    static_closed_[sig] = ~std::uint64_t{0};
  }
}

BatchedArrestmentSystem::~BatchedArrestmentSystem() = default;

void BatchedArrestmentSystem::enable_recording(const fi::TraceSet* prefix) {
  PROPANE_REQUIRE_MSG(ticks_ == 0, "enable_recording must precede run()");
  PROPANE_REQUIRE_MSG(segments_.size() == 1 && queue_.empty(),
                      "recording needs the fixed form, one slot per run");
  recording_ = true;
  traces_.resize(lanes_);
  // Only the rows before the origin tick seed the traces: the prefix may
  // be exactly that long, or a full golden trace.
  const std::size_t prefix_rows = segment_ms(segments_.front());
  if (prefix != nullptr) {
    PROPANE_REQUIRE_MSG(prefix->signal_count() == signals_,
                        "prefix signals must match the bus");
    PROPANE_REQUIRE(prefix->sample_count() >= prefix_rows);
  }
  for (std::uint64_t lanes = segments_.front().lanes; lanes != 0;
       lanes &= lanes - 1) {
    fi::TraceSet& trace = traces_[lowest_lane(lanes)];
    trace = fi::TraceSet(names_);
    trace.reserve(duration_ms_);
    if (prefix != nullptr) {
      trace.append_rows({prefix->data(), prefix_rows * signals_});
    }
  }
  row_scratch_.resize(signals_);
}

std::vector<fi::DivergenceReport> BatchedArrestmentSystem::run() {
  for (;;) {
    if (!recording_ && (schedule_due_ || ticks_ >= wake_tick_)) schedule();
    if (open_.empty()) break;
    slot_ticks_ += lanes_ - open_.size();
    live_slot_ticks_ += in_flight();
    tick();
  }
  PROPANE_CHECK(queue_.empty());
  return std::move(results_);
}

std::vector<BatchedArrestmentSystem::SegmentOrigin>
BatchedArrestmentSystem::segment_origins() const {
  std::vector<SegmentOrigin> origins;
  for (const Segment& segment : segments_) {
    origins.push_back(
        {static_cast<std::uint64_t>(
             static_cast<std::int64_t>(segment.opened_tick) + segment.offset),
         segment.opened_tick});
  }
  return origins;
}

fi::TraceSet BatchedArrestmentSystem::take_lane_trace(std::size_t i) {
  PROPANE_REQUIRE_MSG(recording_, "recording mode only");
  PROPANE_REQUIRE(i < specs_.size());
  return std::move(traces_[run_lane_[i]]);
}

fi::TraceSet BatchedArrestmentSystem::take_golden_trace() {
  PROPANE_REQUIRE_MSG(recording_, "recording mode only");
  return std::move(traces_[segments_.front().golden]);
}

void BatchedArrestmentSystem::schedule() {
  // Queued runs first join segments already open; segments left without a
  // run then close, their golden lanes coming free; and while lanes are
  // free, the earliest queued run no open segment can take opens a new
  // segment from its origin.
  refill();
  bool closed = false;
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (segments_[open_[i]].runs == 0) {
      close(open_[i]);
      closed = true;
    }
  }
  if (closed) refill();
  while (!queue_.empty() && in_flight() < max_slots_) {
    const auto free = static_cast<std::size_t>(__builtin_popcountll(free_));
    if (free < 2 ||
        (free < kOpenLanes && !open_.empty() && free <= queue_.size())) {
      break;
    }
    const std::uint64_t first = fire_ms_[queue_.front()];
    open_segment(origin_(first), std::min(free - 1, max_slots_ - in_flight()),
                 first + kJoinWindowMs);
  }
  // With lanes still free, wake when a segment's clock brings its next
  // queued run into the join window.
  wake_tick_ = ~std::uint64_t{0};
  if (free_ != 0 && in_flight() < max_slots_) {
    for (const std::uint32_t seg : open_) {
      const std::size_t pos = next_queued(segments_[seg]);
      if (pos < queue_.size()) {
        const std::uint64_t gap =
            fire_ms_[queue_[pos]] - segment_ms(segments_[seg]);
        wake_tick_ = std::min(
            wake_tick_, ticks_ + (gap > kJoinWindowMs ? gap - kJoinWindowMs : 0));
      }
    }
  }
  schedule_due_ = false;
}

std::size_t BatchedArrestmentSystem::next_queued(const Segment& segment) const {
  return static_cast<std::size_t>(
      std::lower_bound(queue_.begin(), queue_.end(), segment_ms(segment),
                       [this](std::uint32_t run, std::uint64_t ms) {
                         return fire_ms_[run] < ms;
                       }) -
      queue_.begin());
}

void BatchedArrestmentSystem::refill() {
  while (free_ != 0 && in_flight() < max_slots_) {
    // The queued run firing soonest after some open segment's clock, within
    // the join window.
    std::uint64_t best_gap = kJoinWindowMs + 1;
    std::uint32_t best_seg = kNone;
    std::size_t best_pos = 0;
    for (const std::uint32_t seg : open_) {
      const std::size_t pos = next_queued(segments_[seg]);
      if (pos == queue_.size()) continue;
      const std::uint64_t gap =
          fire_ms_[queue_[pos]] - segment_ms(segments_[seg]);
      if (gap < best_gap) {
        best_gap = gap;
        best_seg = seg;
        best_pos = pos;
      }
    }
    if (best_seg == kNone) return;
    load(lowest_lane(free_), best_seg, queue_[best_pos]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(best_pos));
    ++refills_;
  }
}

void BatchedArrestmentSystem::open_segment(const ArrestmentSystem& origin,
                                           std::size_t slots,
                                           std::uint64_t last_fire_ms) {
  PROPANE_REQUIRE(free_ != 0);
  PROPANE_REQUIRE_MSG(origin.current_ms() < duration_ms_,
                      "batch origin must precede the horizon");
  PROPANE_REQUIRE_MSG(origin.bus().signal_count() == signals_,
                      "batch segments must share the bus layout");
  const auto seg = static_cast<std::uint32_t>(segments_.size());
  const std::size_t golden = lowest_lane(free_);
  Segment& segment = segments_.emplace_back();
  segment.golden = static_cast<std::uint32_t>(golden);
  segment.offset = static_cast<std::int64_t>(origin.current_ms()) -
                   static_cast<std::int64_t>(ticks_);
  segment.opened_tick = ticks_;
  segment.end_tick = ticks_ + (duration_ms_ - origin.current_ms());
  segment.lanes = lane_bit(golden);
  next_end_tick_ = std::min(next_end_tick_, segment.end_tick);
  open_.push_back(seg);
  free_ &= ~lane_bit(golden);
  lane_seg_[golden] = seg;
  bus_.load_lane(golden, origin.bus().values());
  env_.load_lane(golden, origin.environment(), origin.now());
  dist_s_.load_lane(golden, origin.dist_s());
  v_reg_.load_lane(golden, origin.v_reg());
  calc_.load_lane(golden, origin.calc());

  std::size_t taken = 0;
  for (; taken < queue_.size() && taken < slots && free_ != 0 &&
         fire_ms_[queue_[taken]] <= last_fire_ms;
       ++taken) {
    PROPANE_REQUIRE_MSG(fire_ms_[queue_[taken]] >= origin.current_ms(),
                        "a segment's runs must not fire before its origin");
    load(lowest_lane(free_), seg, queue_[taken]);
  }
  queue_.erase(queue_.begin(),
               queue_.begin() + static_cast<std::ptrdiff_t>(taken));
}

void BatchedArrestmentSystem::load(std::size_t lane, std::uint32_t seg,
                                   std::uint32_t run) {
  // Between ticks the golden lane holds the golden run's state at the
  // start of its segment's next tick -- exactly the state of every run
  // that has not fired yet.
  Segment& segment = segments_[seg];
  const std::size_t golden = segment.golden;
  bus_.copy_lane(lane, golden);
  env_.copy_lane(lane, golden);
  dist_s_.copy_lane(lane, golden);
  v_reg_.copy_lane(lane, golden);
  calc_.copy_lane(lane, golden);

  const std::uint64_t bit = lane_bit(lane);
  free_ &= ~bit;
  runs_ |= bit;
  segment.lanes |= bit;
  ++segment.runs;
  lane_seg_[lane] = seg;
  lane_run_[lane] = run;
  run_lane_[run] = static_cast<std::uint32_t>(lane);
  golden_idx_[lane] = static_cast<std::uint16_t>(golden);
  joined_tick_[lane] = ticks_;
  const auto fire = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(fire_ms_[run]) - segment.offset);
  fire_tick_[lane] = fire;
  next_fire_tick_ = armed_ == 0 ? fire : std::min(next_fire_tick_, fire);
  armed_ |= bit;
  reports_[lane] = fi::DivergenceReport(signals_);
  for (std::uint64_t& pend : pending_) pend |= bit;
}

void BatchedArrestmentSystem::release(std::size_t lane) {
  const std::uint64_t bit = lane_bit(lane);
  Segment& segment = segments_[lane_seg_[lane]];
  segment.lanes &= ~bit;
  if (lane_run_[lane] != kNone) --segment.runs;
  free_ |= bit;
  runs_ &= ~bit;
  armed_ &= ~bit;
  for (std::uint64_t& pend : pending_) pend &= ~bit;
  lane_seg_[lane] = kNone;
  lane_run_[lane] = kNone;
  golden_idx_[lane] = static_cast<std::uint16_t>(lane);
  schedule_due_ = true;
}

void BatchedArrestmentSystem::close(std::uint32_t seg) {
  // Runs still in a lane keep their reports: signals that never diverged
  // have no entry, same as compare_to_golden on equal-length traces.
  for (std::uint64_t lanes = segments_[seg].lanes; lanes != 0;
       lanes &= lanes - 1) {
    const std::size_t lane = lowest_lane(lanes);
    if (lane_run_[lane] != kNone) {
      results_[lane_run_[lane]] = std::move(reports_[lane]);
    }
    release(lane);
  }
  open_.erase(std::find(open_.begin(), open_.end(), seg));
}

void BatchedArrestmentSystem::tick() {
  // ArrestmentSystem::tick, step for step. Modules that dispatch on the
  // slot number (PRES_S) read each lane's *bus value* of ms_slot_nbr, so a
  // corrupted slot number shifts that lane's schedule exactly as in the
  // scalar system. A sampled tick also times each step (step_cycles()).
  StepLaps laps(step_sampled(ticks_));
  fire_injections(fi::InjectionPhase::kTickStart);
  laps.lap(kStepFire);
  env_.step_lanes(bus_);
  laps.lap(kStepEnv);
  clock_.step_lanes(bus_);
  laps.lap(kStepClock);
  dist_s_.step_lanes(bus_);
  laps.lap(kStepDistS);
  pres_s_.step_lanes(bus_);
  laps.lap(kStepPresS);
  pres_a_.step_lanes(bus_);
  laps.lap(kStepPresA);
  v_reg_.step_lanes(bus_);
  laps.lap(kStepVReg);
  fire_injections(fi::InjectionPhase::kPreBackground);
  laps.lap(kStepFire);
  calc_.step_lanes(bus_);
  laps.lap(kStepCalc);
  // Observation runs last, like the scalar recorder: a segment's row for
  // millisecond t is the bus state after its whole tick t.
  if (recording_) record_rows();
  check_divergence();
  laps.lap(kStepScreen);
  if (!recording_ && runs_ != 0 &&
      (ticks_ + 1) % kConvergenceCheckPeriod == 0) {
    check_convergence();
  }
  laps.lap(kStepConverge);
  laps.commit(step_cycles_, step_sampled_ticks_);
  ++ticks_;
  if (ticks_ < next_end_tick_) return;
  next_end_tick_ = ~std::uint64_t{0};
  for (std::size_t i = open_.size(); i-- > 0;) {
    const std::uint64_t end = segments_[open_[i]].end_tick;
    if (ticks_ >= end) {
      close(open_[i]);
    } else {
      next_end_tick_ = std::min(next_end_tick_, end);
    }
  }
}

void BatchedArrestmentSystem::fire_injections(fi::InjectionPhase phase) {
  if (armed_ == 0 || ticks_ < next_fire_tick_) return;
  std::uint64_t next = ~std::uint64_t{0};
  for (std::uint64_t lanes = armed_; lanes != 0; lanes &= lanes - 1) {
    const std::size_t lane = lowest_lane(lanes);
    const BatchLaneSpec& run = specs_[lane_run_[lane]];
    const fi::InjectionSpec& spec = *run.spec;
    if (spec.phase != phase || ticks_ < fire_tick_[lane]) {
      next = std::min(next, fire_tick_[lane]);
      continue;
    }
    // Replicates InjectionDriver byte for byte: the run's RNG stream is
    // fork(0) of the seeded generator (the scalar path forks stream 0 for
    // the primary injection), and the error model transforms the stored
    // value in place.
    Rng seeder(run.rng_seed);
    Rng rng = seeder.fork(0);
    const std::uint16_t before = bus_.read(spec.target, lane);
    const std::uint16_t after = spec.model.apply(before, rng);
    bus_.poke(spec.target, lane, after);
    armed_ &= ~lane_bit(lane);
  }
  next_fire_tick_ = next;
}

std::uint64_t BatchedArrestmentSystem::golden_diff(std::size_t sig) const {
  const std::span<const std::uint16_t> row =
      bus_.lane_values(static_cast<fi::BusSignalId>(sig));
#if defined(__AVX512BW__) && defined(__BMI2__)
  // Golden-gather compare: one permute maps every bus lane to its
  // segment's golden value, and one masked compare per 32-lane row yields
  // all the bits at once (golden and free lanes compare equal to
  // themselves) -- the cost is independent of how many segments are open.
  const __mmask32 m0 = lanes_ >= 32
                           ? ~__mmask32{0}
                           : static_cast<__mmask32>((1u << lanes_) - 1);
  const __mmask32 m1 =
      lanes_ <= 32 ? __mmask32{0}
                   : (lanes_ >= 64 ? ~__mmask32{0}
                                   : static_cast<__mmask32>(
                                         (1u << (lanes_ - 32)) - 1));
  const __m512i r0 = _mm512_maskz_loadu_epi16(m0, row.data());
  const __m512i r1 = m1 != 0 ? _mm512_maskz_loadu_epi16(m1, row.data() + 32)
                             : _mm512_setzero_si512();
  const __m512i g0 = _mm512_permutex2var_epi16(
      r0, _mm512_loadu_si512(golden_idx_.data()), r1);
  std::uint64_t ne = _mm512_mask_cmpneq_epu16_mask(m0, r0, g0);
  if (m1 != 0) {
    const __m512i g1 = _mm512_permutex2var_epi16(
        r0, _mm512_loadu_si512(golden_idx_.data() + 32), r1);
    ne |= static_cast<std::uint64_t>(
              _mm512_mask_cmpneq_epu16_mask(m1, r1, g1))
          << 32;
  }
  return ne;
#else
  // Portable screen: each lane's verdict against its golden lane's value
  // as one 0/1 byte, packed into the mask eight lanes at a time.
  std::uint8_t diverged[kMaxLanes] = {};
  for (std::size_t l = 0; l < lanes_; ++l) {
    diverged[l] = row[l] != row[golden_idx_[l]];
  }
  return pack_lane_bytes(diverged);
#endif
}

void BatchedArrestmentSystem::check_divergence() {
  // Screen phase: compute, for every signal, the lanes diverging from their
  // segment's golden lane on this very tick, intersected with the pending
  // set. A signal every run has already diverged on is settled for the
  // rest of its run and skips its compares entirely (long post-divergence
  // tails make this the common case for reactive signals). On the
  // overwhelmingly common tick the accumulated mask is zero and the
  // function is done.
  std::uint64_t newly[kMaxSignals];
  std::uint64_t any = 0;
  for (std::size_t sig = 0; sig < signals_; ++sig) {
    const std::uint64_t pend = pending_[sig];
    newly[sig] = pend != 0 ? golden_diff(sig) & pend : 0;
    any |= newly[sig];
  }
  if (any == 0) return;
  for (std::size_t sig = 0; sig < signals_; ++sig) {
    if (newly[sig] != 0) {
      pending_[sig] &= ~newly[sig];
      note_divergences(sig, newly[sig]);
    }
  }
  // Retire only once every signal of the tick is noted: a closed signal
  // diverging on the tick a run's last open signal does belongs in its
  // report. A run outside `any` cannot have just lost its last open
  // signal.
  if (recording_) return;
  for (std::uint64_t done = any & ~open_lanes(static_closed_);
       done != 0; done &= done - 1) {
    retire(lowest_lane(done), true);
  }
}

void BatchedArrestmentSystem::note_divergences(std::size_t sig,
                                               std::uint64_t newly) {
  const std::span<const std::uint16_t> row =
      bus_.lane_values(static_cast<fi::BusSignalId>(sig));
  while (newly != 0) {
    const std::size_t lane = lowest_lane(newly);
    newly &= newly - 1;
    reports_[lane].note(sig, segment_ms(segments_[lane_seg_[lane]]),
                        row[golden_idx_[lane]], row[lane]);
  }
}

std::uint64_t BatchedArrestmentSystem::open_lanes(
    const std::array<std::uint64_t, kMaxSignals>& closed) const {
  std::uint64_t open = 0;
  for (std::size_t sig = 0; sig < signals_; ++sig) {
    open |= pending_[sig] & ~closed[sig];
  }
  return open;
}

std::uint64_t BatchedArrestmentSystem::with_golden(std::uint64_t lanes) const {
  // One bit test per open segment rather than a pass over the row: a
  // per-lane shift through golden_idx_ cannot vectorize into bytes, and
  // packing bytes stored one at a time stalls on store forwarding.
  std::uint64_t with = 0;
  for (const std::uint32_t seg : open_) {
    const Segment& segment = segments_[seg];
    if ((lanes >> segment.golden & 1u) != 0) with |= segment.lanes;
  }
  return lanes & with;
}

void BatchedArrestmentSystem::check_convergence() {
  // Only a run whose injection has fired may retire as converged: before
  // the fire, its state trivially equals its golden lane's. Candidates
  // are the fired runs whose whole bus row equals their golden lane's;
  // most runs carry a persistent bus error and drop out on some signal.
  std::uint64_t candidates = runs_ & ~armed_;
  for (std::size_t sig = 0; sig < signals_ && candidates != 0; ++sig) {
    candidates &= ~golden_diff(sig);
  }
  for (; candidates != 0; candidates &= candidates - 1) {
    const std::size_t lane = lowest_lane(candidates);
    const std::size_t golden = golden_idx_[lane];
    // Complete state (bus + module-internal + bus-feeding environment)
    // equal to the segment's golden lane: every future sample coincides,
    // so the report is final.
    if (dist_s_.lane_equals(lane, golden) && v_reg_.lane_equals(lane, golden) &&
        calc_.lane_equals(lane, golden) && env_.lane_equals(lane, golden)) {
      retire(lane, false);
    }
  }

  // Standstill exhaustion: with the lane and its golden lane at rest, the
  // standstill signals join the static closed set wherever their
  // predicates hold for both lanes (see the header comment).
  const std::uint64_t rest =
      with_golden(env_.at_rest_lanes() & dist_s_.idle_lanes(bus_));
  const std::uint64_t touched = runs_ & ~armed_ & rest;
  if (touched == 0) return;
  std::array<std::uint64_t, kMaxSignals> closed = static_closed_;
  closed[map_.pacnt] = closed[map_.tic1] = closed[map_.pulscnt] = rest;
  closed[map_.slow_speed] =
      rest & with_golden(dist_s_.slow_latched_lanes());
  closed[map_.stopped] = closed[map_.set_value] =
      rest & with_golden(dist_s_.stopped_latched_lanes());
  closed[map_.checkpoint_i] = rest & with_golden(calc_.settled_lanes(bus_));
  for (std::uint64_t done = touched & ~open_lanes(closed); done != 0;
       done &= done - 1) {
    retire(lowest_lane(done), true);
  }
}

void BatchedArrestmentSystem::retire(std::size_t lane, bool exhausted) {
  retirement_ticks_.push_back(ticks_ - joined_tick_[lane]);
  ++(exhausted ? exhausted_ : converged_);
  results_[lane_run_[lane]] = std::move(reports_[lane]);
  release(lane);
}

void BatchedArrestmentSystem::record_rows() {
  for (const std::uint32_t seg : open_) {
    for (std::uint64_t lanes = segments_[seg].lanes; lanes != 0;
         lanes &= lanes - 1) {
      const std::size_t lane = lowest_lane(lanes);
      bus_.extract_lane(lane, row_scratch_);
      traces_[lane].append(row_scratch_);
    }
  }
}

}  // namespace propane::arr

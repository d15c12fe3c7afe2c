#include "arrestment/batch_system.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "arrestment/constants.hpp"
#include "common/contracts.hpp"
#include "common/rng.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace propane::arr {
namespace {

/// Convergence is checked once per this many ticks: often enough that a
/// transient error retires its lane quickly, rarely enough that the check
/// (a full state compare per candidate lane) stays off the hot path.
constexpr std::uint64_t kConvergenceCheckPeriod = 16;

#if !(defined(__AVX512BW__) && defined(__BMI2__))
/// Bit `l` of the result is set iff `row[l] != golden`, for `l` in
/// [0, n); n <= 64. The screen path without the golden gather: each batch
/// segment screens its own lane sub-row against its own broadcast golden
/// value.
std::uint64_t diff_bits(const std::uint16_t* row, std::uint16_t golden,
                        std::size_t n) {
  std::uint64_t bits = 0;
  std::size_t l = 0;
#if defined(__AVX2__) && defined(__BMI2__)
  const __m256i g = _mm256_set1_epi16(static_cast<short>(golden));
  for (; l + 16 <= n; l += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + l));
    const auto eq = static_cast<std::uint32_t>(
        _mm256_movemask_epi8(_mm256_cmpeq_epi16(v, g)));
    // movemask yields two bits per 16-bit lane; compact to one.
    const std::uint64_t ne = _pext_u32(~eq, 0x55555555u);
    bits |= ne << l;
  }
#endif
  for (; l < n; ++l) {
    bits |= static_cast<std::uint64_t>(row[l] != golden) << l;
  }
  return bits;
}
#endif

const ArrestmentSystem& primary_origin(
    std::span<const BatchSegment> segments) {
  PROPANE_REQUIRE_MSG(!segments.empty(), "batch needs at least one segment");
  PROPANE_REQUIRE(segments.front().origin != nullptr);
  return *segments.front().origin;
}

std::size_t slots_of(const BatchSegment& segment) {
  return segment.slots == 0 ? segment.specs.size() : segment.slots;
}

std::size_t total_lanes(std::span<const BatchSegment> segments) {
  std::size_t lanes = segments.size();  // one golden lane per segment
  for (const BatchSegment& segment : segments) {
    lanes += slots_of(segment);
  }
  PROPANE_REQUIRE_MSG(lanes <= BatchedArrestmentSystem::kMaxLanes,
                      "a batch sweeps at most 64 lanes");
  return lanes;
}

}  // namespace

BatchedArrestmentSystem::BatchedArrestmentSystem(
    const ArrestmentSystem& origin, std::span<const BatchLaneSpec> specs,
    sim::SimTime duration, std::size_t slots)
    : BatchedArrestmentSystem(
          std::vector<BatchSegment>{BatchSegment{&origin, specs, slots}},
          duration) {}

BatchedArrestmentSystem::BatchedArrestmentSystem(
    std::span<const BatchSegment> segments, sim::SimTime duration)
    : lanes_(total_lanes(segments)),
      signals_(primary_origin(segments).bus().signal_count()),
      map_(primary_origin(segments).map()),
      duration_(duration),
      duration_ms_(sim::to_milliseconds(duration)),
      names_(fi::intern_signal_names(primary_origin(segments).bus().names())),
      bus_(primary_origin(segments).bus(), lanes_),
      scheduler_(kSlotCount),
      env_(primary_origin(segments).environment(), map_, lanes_),
      clock_(map_),
      dist_s_(map_, primary_origin(segments).dist_s(), lanes_),
      pres_s_(map_),
      pres_a_(map_),
      v_reg_(map_, primary_origin(segments).v_reg(), lanes_),
      calc_(map_, primary_origin(segments).calc(), lanes_) {
  const ArrestmentSystem& origin0 = primary_origin(segments);
  PROPANE_REQUIRE_MSG(origin0.now() < duration,
                      "batch origin must precede the horizon");
  PROPANE_REQUIRE_MSG(signals_ <= kMaxSignals,
                      "a batch screens at most 64 signals");

  // Lane geometry, cross-segment spec and slot tables, and per-segment
  // state seeding. The broadcast member constructors above replicated
  // segment 0's origin across *every* lane; the other segments' lanes
  // (golden included) are overwritten here with their own origin's state.
  std::size_t lane = 0;
  segments_.reserve(segments.size());
  for (const BatchSegment& segment : segments) {
    PROPANE_REQUIRE(segment.origin != nullptr);
    const ArrestmentSystem& origin = *segment.origin;
    PROPANE_REQUIRE_MSG(origin.now() == origin0.now(),
                        "batch segments must share the origin tick");
    PROPANE_REQUIRE_MSG(origin.bus().signal_count() == signals_,
                        "batch segments must share the bus layout");
    SegmentInfo info;
    info.golden_lane = lane;
    info.first_lane = lane + 1;
    info.first_slot = slot_lane_.size();
    info.slots = slots_of(segment);
    info.next_spec = specs_.size();
    info.end_spec = specs_.size() + segment.specs.size();
    if (&origin != &origin0) {
      for (std::size_t l = info.golden_lane;
           l <= info.golden_lane + info.slots; ++l) {
        bus_.load_lane(l, origin.bus().values());
        env_.load_lane(l, origin.environment());
        dist_s_.load_lane(l, origin.dist_s());
        v_reg_.load_lane(l, origin.v_reg());
        calc_.load_lane(l, origin.calc());
      }
    }
    specs_.insert(specs_.end(), segment.specs.begin(), segment.specs.end());
    for (std::size_t k = 0; k < info.slots; ++k) {
      slot_lane_.push_back(static_cast<std::uint32_t>(info.first_lane + k));
      slot_golden_.push_back(static_cast<std::uint32_t>(info.golden_lane));
      slot_segment_.push_back(static_cast<std::uint32_t>(segments_.size()));
    }
    segments_.push_back(info);
    lane += info.slots + 1;
  }
  PROPANE_REQUIRE_MSG(!specs_.empty(), "batch needs at least one injection");

  // Golden-gather tables for the vectorised screen.
  for (const SegmentInfo& seg : segments_) {
    golden_idx_[seg.golden_lane] = static_cast<std::uint16_t>(seg.golden_lane);
    for (std::size_t k = 0; k < seg.slots; ++k) {
      golden_idx_[seg.first_lane + k] =
          static_cast<std::uint16_t>(seg.golden_lane);
      slot_lane_mask_ |= std::uint64_t{1} << (seg.first_lane + k);
    }
  }
  for (const BatchLaneSpec& lane_spec : specs_) {
    PROPANE_REQUIRE(lane_spec.spec != nullptr);
    PROPANE_REQUIRE(lane_spec.spec->model.apply != nullptr);
    PROPANE_REQUIRE_MSG(lane_spec.spec->target < signals_,
                        "injection targets unknown signal");
  }

  const std::size_t slots = slot_lane_.size();
  results_.resize(specs_.size());
  slot_run_.assign(slots, kNoRun);
  armed_.assign(slots, 0);
  joined_ms_.assign(slots, 0);
  reports_.resize(slots);
  undiverged_.assign(slots, 0);
  conv_hint_.assign(slots, 0);
  active_ = sim::LaneMask(slots);
  pending_.assign(signals_, 0);

  // Every slot takes its segment's first run whose fire tick has not
  // passed.
  fill_free_slots(sim::to_milliseconds(origin0.now()));

  // Resume simulated time where the origin stopped: slot position is
  // now/1ms modulo the cycle, exactly where a scalar run from t=0 would be.
  scheduler_.seek(origin0.now(),
                  origin0.current_ms() % scheduler_.slot_count());

  // One tick == one scheduler slot. Registration order reproduces
  // ArrestmentSystem::tick step for step; batch tasks that dispatch on the
  // slot number (PRES_S) read each lane's *bus value* of ms_slot_nbr, so a
  // corrupted slot number shifts that lane's schedule exactly as in the
  // scalar system.
  scheduler_.add_every_slot_batch_task(
      "inject@tick-start",
      [this](sim::SimTime now, const sim::LaneMask&) {
        fire_injections(now, fi::InjectionPhase::kTickStart);
      });
  scheduler_.add_every_slot_batch_task(
      "environment", [this](sim::SimTime now, const sim::LaneMask&) {
        step_environment(now);
      });
  scheduler_.add_every_slot_batch_task(
      "clock", [this](sim::SimTime, const sim::LaneMask&) {
        clock_.step_lanes(bus_);
      });
  scheduler_.add_every_slot_batch_task(
      "dist_s", [this](sim::SimTime, const sim::LaneMask&) {
        dist_s_.step_lanes(bus_);
      });
  scheduler_.add_every_slot_batch_task(
      "pres_s", [this](sim::SimTime, const sim::LaneMask&) {
        pres_s_.step_lanes(bus_);
      });
  scheduler_.add_every_slot_batch_task(
      "pres_a", [this](sim::SimTime, const sim::LaneMask&) {
        pres_a_.step_lanes(bus_);
      });
  scheduler_.add_every_slot_batch_task(
      "v_reg", [this](sim::SimTime, const sim::LaneMask&) {
        v_reg_.step_lanes(bus_);
      });
  scheduler_.add_every_slot_batch_task(
      "inject@pre-background",
      [this](sim::SimTime now, const sim::LaneMask&) {
        fire_injections(now, fi::InjectionPhase::kPreBackground);
      });
  scheduler_.add_background_batch_task(
      "calc", [this](sim::SimTime, const sim::LaneMask&) {
        calc_.step_lanes(bus_);
      });
  // Observation runs last, like the scalar recorder: the row for
  // millisecond t is the bus state after the whole tick at time t.
  scheduler_.add_background_batch_task(
      "observe", [this](sim::SimTime now, const sim::LaneMask&) {
        if (recording_) record_rows();
        check_divergence(now);
        ++ticks_;
        if (!recording_ && active_count_ > 0 &&
            ticks_ % kConvergenceCheckPeriod == 0) {
          check_convergence(now);
        }
      });
}

BatchedArrestmentSystem::~BatchedArrestmentSystem() = default;

void BatchedArrestmentSystem::enable_recording(const fi::TraceSet* prefix) {
  PROPANE_REQUIRE_MSG(segments_.size() == 1,
                      "multi-segment batches take one prefix per segment");
  const fi::TraceSet* prefixes[] = {prefix};
  enable_recording(std::span<const fi::TraceSet* const>(prefixes, 1));
}

void BatchedArrestmentSystem::enable_recording(
    std::span<const fi::TraceSet* const> prefixes) {
  PROPANE_REQUIRE_MSG(ticks_ == 0, "enable_recording must precede run()");
  PROPANE_REQUIRE_MSG(prefixes.size() == segments_.size(),
                      "one prefix per segment");
  PROPANE_REQUIRE_MSG(slot_lane_.size() == specs_.size() && deferred_.empty(),
                      "recording needs one slot per run");
  recording_ = true;
  traces_.reserve(lanes_);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const fi::TraceSet* prefix = prefixes[s];
    // Only the rows before the origin tick seed the traces: the prefix may
    // be exactly that long, or a full golden trace.
    const std::size_t prefix_rows = sim::to_milliseconds(scheduler_.now());
    if (prefix != nullptr) {
      PROPANE_REQUIRE_MSG(prefix->signal_count() == signals_,
                          "prefix signals must match the bus");
      PROPANE_REQUIRE(prefix->sample_count() >= prefix_rows);
    }
    // This segment's golden lane plus its injection lanes, in lane order
    // (segments are laid out lane-contiguously, so traces_ indexes by bus
    // lane).
    for (std::size_t l = 0; l <= segments_[s].slots; ++l) {
      fi::TraceSet trace(names_);
      trace.reserve(duration_ms_);
      if (prefix != nullptr) {
        trace.append_rows({prefix->data(), prefix_rows * signals_});
      }
      traces_.push_back(std::move(trace));
    }
  }
  row_scratch_.resize(signals_);
}

std::vector<fi::DivergenceReport> BatchedArrestmentSystem::run() {
  while (scheduler_.now() < duration_) {
    if (!recording_) {
      // Between ticks: reseed slots freed by the previous tick's
      // retirements.
      if (refill_due_) {
        refills_ += fill_free_slots(sim::to_milliseconds(scheduler_.now()));
      }
      if (active_count_ == 0) break;
    }
    live_slot_ticks_ += active_count_;
    scheduler_.run_slot(active_);
  }
  // Runs still in a slot at the horizon keep their reports: signals that
  // never diverged stay {diverged=false}, same as compare_to_golden on
  // equal-length traces. Queued runs no slot reached are deferred.
  for (std::size_t k = 0; k < slot_run_.size(); ++k) {
    if (slot_run_[k] != kNoRun) {
      results_[slot_run_[k]] = std::move(reports_[k]);
      slot_run_[k] = kNoRun;
    }
  }
  for (SegmentInfo& seg : segments_) {
    for (; seg.next_spec < seg.end_spec; ++seg.next_spec) {
      deferred_.push_back(seg.next_spec);
    }
  }
  std::sort(deferred_.begin(), deferred_.end());
  return std::move(results_);
}

fi::TraceSet BatchedArrestmentSystem::take_lane_trace(std::size_t i) {
  PROPANE_REQUIRE_MSG(recording_, "recording mode only");
  PROPANE_REQUIRE(i < specs_.size());
  return std::move(traces_[slot_lane_[i]]);
}

fi::TraceSet BatchedArrestmentSystem::take_golden_trace(std::size_t segment) {
  PROPANE_REQUIRE_MSG(recording_, "recording mode only");
  PROPANE_REQUIRE(segment < segments_.size());
  return std::move(traces_[segments_[segment].golden_lane]);
}

std::size_t BatchedArrestmentSystem::fill_free_slots(std::uint64_t now_ms) {
  refill_due_ = false;
  std::size_t loaded = 0;
  for (std::size_t k = 0; k < slot_run_.size(); ++k) {
    if (slot_run_[k] != kNoRun) continue;
    SegmentInfo& seg = segments_[slot_segment_[k]];
    // The queue is in fire-tick order: runs whose tick has passed are left
    // for a later pass, the next one joins now.
    while (seg.next_spec < seg.end_spec &&
           fi::injection_fire_ms(specs_[seg.next_spec].spec->when) < now_ms) {
      deferred_.push_back(seg.next_spec++);
    }
    if (seg.next_spec < seg.end_spec) {
      load(k, seg.next_spec++, now_ms);
      ++loaded;
    }
  }
  return loaded;
}

void BatchedArrestmentSystem::load(std::size_t slot, std::size_t spec,
                                   std::uint64_t now_ms) {
  // Between ticks the golden lane holds the golden run's state at the
  // start of tick now_ms -- exactly the state of every run that has not
  // fired yet.
  const std::size_t lane = slot_lane_[slot];
  const std::size_t golden = slot_golden_[slot];
  bus_.copy_lane(lane, golden);
  env_.copy_lane(lane, golden);
  dist_s_.copy_lane(lane, golden);
  v_reg_.copy_lane(lane, golden);
  calc_.copy_lane(lane, golden);

  slot_run_[slot] = static_cast<std::uint32_t>(spec);
  joined_ms_[slot] = now_ms;
  const sim::SimTime when = specs_[spec].spec->when;
  next_fire_ = armed_count_ == 0 ? when : std::min(next_fire_, when);
  armed_[slot] = 1;
  ++armed_count_;
  reports_[slot].per_signal.assign(signals_, fi::Divergence{});
  for (std::uint64_t& pend : pending_) pend |= std::uint64_t{1} << slot;
  undiverged_[slot] = static_cast<std::uint32_t>(signals_);
  conv_hint_[slot] = 0;
  active_.set(slot);
  ++active_count_;
}

void BatchedArrestmentSystem::fire_injections(sim::SimTime now,
                                              fi::InjectionPhase phase) {
  if (armed_count_ == 0 || now < next_fire_) return;
  sim::SimTime next = ~sim::SimTime{0};
  for (std::size_t k = 0; k < slot_run_.size(); ++k) {
    if (!armed_[k]) continue;
    const BatchLaneSpec& run = specs_[slot_run_[k]];
    const fi::InjectionSpec& spec = *run.spec;
    if (spec.phase != phase || now < spec.when) {
      next = std::min(next, spec.when);
      continue;
    }
    // Replicates InjectionDriver byte for byte: the run's RNG stream is
    // fork(0) of the seeded generator (the scalar path forks stream 0 for
    // the primary injection), and the error model transforms the stored
    // value in place. Runs firing after they joined their slot activate
    // here too: until this scan fires them they evolve bit-identically to
    // their segment's golden lane.
    const std::size_t lane = slot_lane_[k];
    Rng seeder(run.rng_seed);
    Rng rng = seeder.fork(0);
    const std::uint16_t before = bus_.read(spec.target, lane);
    const std::uint16_t after = spec.model.apply(before, rng);
    bus_.poke(spec.target, lane, after);
    armed_[k] = 0;
    --armed_count_;
  }
  next_fire_ = next;
}

void BatchedArrestmentSystem::step_environment(sim::SimTime now) {
  env_.step_lanes(bus_, now);
}

const char* BatchedArrestmentSystem::screen_isa() {
#if defined(__AVX512BW__) && defined(__BMI2__)
  return "avx512bw+bmi2";
#elif defined(__AVX2__) && defined(__BMI2__)
  return "avx2+bmi2";
#else
  return "scalar";
#endif
}

void BatchedArrestmentSystem::check_divergence(sim::SimTime now) {
  // Screen phase: compute, for every signal, the slots diverging from
  // their segment's golden lane on this very tick, intersected with the
  // pending set. A signal every slot has already diverged on is settled for
  // the rest of the run and skips its compares entirely (long
  // post-divergence tails make this the common case for reactive signals).
  // The loop reads but never writes heap state, so the compiler keeps it
  // tight; on the overwhelmingly common tick the accumulated mask is zero
  // and the function is done.
  std::uint64_t newly[kMaxSignals];
  std::uint64_t any = 0;
#if defined(__AVX512BW__) && defined(__BMI2__)
  // Golden-gather screen: one permute maps every bus lane to its segment's
  // golden value, one masked compare per 32-lane row yields all divergence
  // bits at once, and a pext compacts the slot-lane bits into cross-segment
  // slot order (golden lanes compare equal to themselves and drop out) --
  // the per-signal cost is independent of how many test cases the batch
  // packs.
  const __mmask32 m0 = lanes_ >= 32
                           ? ~__mmask32{0}
                           : static_cast<__mmask32>((1u << lanes_) - 1);
  const __mmask32 m1 =
      lanes_ <= 32 ? __mmask32{0}
                   : (lanes_ >= 64 ? ~__mmask32{0}
                                   : static_cast<__mmask32>(
                                         (1u << (lanes_ - 32)) - 1));
  const __m512i idx0 = _mm512_loadu_si512(golden_idx_.data());
  const __m512i idx1 = _mm512_loadu_si512(golden_idx_.data() + 32);
  for (std::size_t sig = 0; sig < signals_; ++sig) {
    const std::uint64_t pend = pending_[sig];
    if (pend == 0) {
      newly[sig] = 0;
      continue;
    }
    const std::span<const std::uint16_t> row =
        bus_.lane_values(static_cast<fi::BusSignalId>(sig));
    const __m512i r0 = _mm512_maskz_loadu_epi16(m0, row.data());
    const __m512i r1 = m1 != 0 ? _mm512_maskz_loadu_epi16(m1, row.data() + 32)
                               : _mm512_setzero_si512();
    const __m512i g0 = _mm512_permutex2var_epi16(r0, idx0, r1);
    std::uint64_t ne = _mm512_mask_cmpneq_epu16_mask(m0, r0, g0);
    if (m1 != 0) {
      const __m512i g1 = _mm512_permutex2var_epi16(r0, idx1, r1);
      ne |= static_cast<std::uint64_t>(
                _mm512_mask_cmpneq_epu16_mask(m1, r1, g1))
            << 32;
    }
    newly[sig] = _pext_u64(ne, slot_lane_mask_) & pend;
    any |= newly[sig];
  }
#else
  for (std::size_t sig = 0; sig < signals_; ++sig) {
    const std::uint64_t pend = pending_[sig];
    if (pend == 0) {
      newly[sig] = 0;
      continue;
    }
    const std::span<const std::uint16_t> row =
        bus_.lane_values(static_cast<fi::BusSignalId>(sig));
    std::uint64_t bits = 0;
    for (const SegmentInfo& seg : segments_) {
      if (seg.slots == 0) continue;
      bits |= diff_bits(row.data() + seg.first_lane, row[seg.golden_lane],
                        seg.slots)
              << seg.first_slot;
    }
    newly[sig] = bits & pend;
    any |= newly[sig];
  }
#endif
  if (any == 0) return;
  const std::uint64_t ms = sim::to_milliseconds(now);
  for (std::size_t sig = 0; sig < signals_; ++sig) {
    if (newly[sig] != 0) {
      pending_[sig] &= ~newly[sig];
      note_divergences(sig, newly[sig], ms);
    }
  }
}

void BatchedArrestmentSystem::note_divergences(std::size_t sig,
                                               std::uint64_t newly,
                                               std::uint64_t ms) {
  const std::span<const std::uint16_t> row =
      bus_.lane_values(static_cast<fi::BusSignalId>(sig));
  while (newly != 0) {
    const auto j = static_cast<std::size_t>(__builtin_ctzll(newly));
    newly &= newly - 1;
    fi::Divergence& d =
        reports_[j].per_signal[static_cast<fi::BusSignalId>(sig)];
    d.diverged = true;
    d.first_ms = ms;
    d.golden_value = row[slot_golden_[j]];
    d.observed_value = row[slot_lane_[j]];
    if (--undiverged_[j] == 0 && !recording_ && active_.test(j)) {
      retire(j, ms);
    }
  }
}

void BatchedArrestmentSystem::check_convergence(sim::SimTime now) {
  const std::uint64_t ms = sim::to_milliseconds(now);
  active_.for_each([&](std::size_t j) {
    // Only a lane whose injection has fired may retire as converged: before
    // the fire, lane state trivially equals its golden lane's.
    if (armed_[j]) return;
    const std::size_t lane = slot_lane_[j];
    const std::size_t golden = slot_golden_[j];
    // A lane carrying a persistent error keeps mismatching on the same
    // signal check after check; probing that signal first turns the
    // common no-convergence outcome into a single compare.
    const auto hinted = static_cast<fi::BusSignalId>(conv_hint_[j]);
    if (bus_.read(hinted, lane) != bus_.read(hinted, golden)) return;
    for (std::size_t sig = 0; sig < signals_; ++sig) {
      const auto id = static_cast<fi::BusSignalId>(sig);
      if (bus_.read(id, lane) != bus_.read(id, golden)) {
        conv_hint_[j] = static_cast<std::uint16_t>(sig);
        return;
      }
    }
    if (!dist_s_.lane_equals(lane, golden)) return;
    if (!v_reg_.lane_equals(lane, golden)) return;
    if (!calc_.lane_equals(lane, golden)) return;
    if (!env_.lane_equals(lane, golden)) return;
    // Complete state (bus + module-internal + bus-feeding environment)
    // equals the segment's golden lane: every future sample coincides, so
    // the report is final.
    for (std::uint64_t& pend : pending_) pend &= ~(std::uint64_t{1} << j);
    undiverged_[j] = 0;
    retire(j, ms);
  });
}

void BatchedArrestmentSystem::retire(std::size_t slot, std::uint64_t now_ms) {
  active_.reset(slot);
  --active_count_;
  retirement_ticks_.push_back(now_ms - joined_ms_[slot]);
  results_[slot_run_[slot]] = std::move(reports_[slot]);
  slot_run_[slot] = kNoRun;
  const SegmentInfo& seg = segments_[slot_segment_[slot]];
  refill_due_ = refill_due_ || seg.next_spec < seg.end_spec;
}

void BatchedArrestmentSystem::record_rows() {
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    bus_.extract_lane(lane, row_scratch_);
    traces_[lane].append(row_scratch_);
  }
}

}  // namespace propane::arr

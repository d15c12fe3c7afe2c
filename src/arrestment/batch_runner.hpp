// Lockstep batched campaign runner: the arrestment-side binding of the
// campaign executor's batch requests (fi::BatchRunFunction) to the SoA
// batched kernel (BatchedArrestmentSystem).
//
// A request is whatever run set the planner handed over -- runs may mix
// test cases (each distinct test case becomes a kernel segment with its
// own golden lane) and fire ticks, and may outnumber the kernel width
// (fi::kernel_width of the campaign config the runner is built with). The
// runner multiplexes them onto the kernel's slots in successive passes:
// each pass starts at the earliest pending fire tick, restoring every
// segment from its test case's warm-start checkpoint at that tick when one
// exists (composing batching with prefix reuse: each shared golden prefix
// is simulated zero times, not N times) or from fresh t=0 origins
// otherwise, and refills retired slots with the next run of their test
// case whose fire tick has not passed; runs whose tick passed wait for a
// later pass. Never-firing lanes -- the injection time is at/after the
// horizon, so the run *is* the golden run -- are answered with all-clear
// reports without simulating them at all.
//
// Row geometry: a pass with k segments gets 64 - k slots, or 32 - k when
// all of its runs fit in one 32-lane row beside the k golden lanes, so
// under the default width every pass sweeps exactly one or two whole
// vector rows. An explicit width caps the slots further.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "arrestment/warm_start.hpp"

namespace propane::obs {
struct Telemetry;
}  // namespace propane::obs

namespace propane::arr {

/// The production runner: golden runs execute through a WarmStartEngine
/// (capturing its checkpoints), and every injection run executes in the
/// SoA kernel, on the slots of the requests fi::run_campaign plans.
/// Results, records and journal CSVs are bit-identical to the cold scalar
/// reference (campaign_runner) for every batch size -- enforced by
/// tests/fi/batch_equivalence_test.cpp.
///
/// `telemetry` (optional, non-owning) turns on the runner's counters:
///   batch.group.lanes      -- histogram, lanes per batch request;
///   batch.kernel.batches   -- counter, kernel passes;
///   batch.kernel.lanes     -- counter, runs the passes simulated;
///   batch.kernel.ticks     -- counter, scheduler slots executed;
///   batch.kernel.slot_ticks, batch.kernel.live_slot_ticks
///                          -- counters, slot-ticks swept and slot-ticks
///                             that held a run;
///   batch.kernel.lane_ticks -- counter, lane-ticks swept (slots, golden
///                             lanes and padding);
///   batch.refill.lanes     -- counter, runs loaded into a freed slot;
///   batch.never_fire.lanes -- counter, lanes answered without simulation
///                             (the injection fires at/after the horizon);
///   batch.retire.ticks     -- histogram, ticks from a run joining its slot
///                             to its retirement (early-exit latency).
/// Handles resolve once here; each pass then costs a few relaxed atomic
/// adds *after* its kernel run -- the tick loop itself carries no
/// instrumentation, so null telemetry is exactly the uninstrumented path.
fi::CampaignRunner batched_campaign_runner(
    std::vector<TestCase> test_cases, const fi::CampaignConfig& config,
    sim::SimTime duration = kRunDuration,
    const obs::Telemetry* telemetry = nullptr);

/// The former positional form, whose two middle arguments were statistics
/// sinks; both must be null. Kept so existing callers compile unchanged.
inline fi::CampaignRunner batched_campaign_runner(
    std::vector<TestCase> test_cases, const fi::CampaignConfig& config,
    sim::SimTime duration, std::nullptr_t, std::nullptr_t,
    const obs::Telemetry* telemetry) {
  return batched_campaign_runner(std::move(test_cases), config, duration,
                                 telemetry);
}

}  // namespace propane::arr

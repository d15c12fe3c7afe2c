// Lockstep batched campaign runner: the arrestment-side binding of the
// campaign executor's batch requests (fi::BatchRunFunction) to the SoA
// batched kernel (BatchedArrestmentSystem).
//
// A request holds the runs of one test case -- the campaign planner
// (fi::plan_requests) never mixes two, and the runner rejects a request
// that does -- in any fire-tick order, and may outnumber the kernel width
// (fi::kernel_width of the campaign config the runner is built with). The
// runner streams all of them through one kernel, in fire-tick order: the
// kernel opens segments from the test case's warm-start checkpoint at the
// earliest pending fire tick (composing batching with prefix reuse: each
// shared golden prefix is simulated zero times, not N times) or from a
// fresh t=0 origin when there is none, joining later runs to open segments
// as lanes come free (batch_system.hpp, "Rolling segments"). Never-firing
// lanes -- the injection time is at/after the horizon, so the run *is* the
// golden run -- are answered with all-clear reports without simulating
// them at all.
//
// Row geometry: a kernel sweeps 32 lanes when its runs (at most the width)
// fit beside a golden lane in one vector row, else 64, and holds at most
// `width` runs at a time (one lane stays a golden lane).
#pragma once

#include <cstddef>
#include <string>
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
///   batch.kernel.batches   -- counter, kernels (one per request with a
///                             live run);
///   batch.kernel.lanes     -- counter, runs the kernels simulated;
///   batch.kernel.segments  -- counter, segments the kernels opened;
///   batch.kernel.ticks     -- counter, kernel ticks executed;
///   batch.kernel.slot_ticks, batch.kernel.live_slot_ticks
///                          -- counters, lane-ticks outside golden lanes
///                             and lane-ticks that held a run;
///   batch.kernel.lane_ticks -- counter, lane-ticks swept (golden and free
///                             lanes included);
///   batch.refill.lanes     -- counter, runs that joined an open segment;
///   batch.never_fire.lanes -- counter, lanes answered without simulation
///                             (the injection fires at/after the horizon);
///   batch.retire.ticks     -- histogram, ticks from a run joining its lane
///                             to its retirement (early-exit latency);
///   batch.retire.converged, batch.retire.exhausted
///                          -- counters, early retirements by cause;
///   batch.kernel.step.<step>_cycles
///                          -- counters, per tick step (fire, env, clock,
///                             dist_s, pres_s, pres_a, v_reg, calc, screen,
///                             converge), its timer units over the kernel's
///                             sampled ticks (BatchedArrestmentSystem::
///                             step_cycles);
///   batch.kernel.step.sampled_ticks
///                          -- counter, the sampled ticks those units were
///                             taken over (step_sampled_ticks), so a step's
///                             units over this are its cost per tick.
/// Handles resolve once here; each kernel then costs a few relaxed atomic
/// adds *after* it ran. The tick loop's only instrumentation is the
/// step split's timer reads on one tick in 64, which every kernel takes
/// whether telemetry is on or off, so null telemetry is exactly the
/// uninstrumented path.
fi::CampaignRunner batched_campaign_runner(
    std::vector<TestCase> test_cases, const fi::CampaignConfig& config,
    sim::SimTime duration = kRunDuration,
    const obs::Telemetry* telemetry = nullptr);

/// The name of the counter holding tick step `step`'s timer units
/// ("batch.kernel.step.<name>_cycles", BatchedArrestmentSystem::kStepNames).
std::string step_cycles_counter(std::size_t step);

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

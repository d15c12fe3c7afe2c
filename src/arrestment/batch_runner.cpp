#include "arrestment/batch_runner.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <utility>

#include "arrestment/batch_system.hpp"
#include "arrestment/signals.hpp"
#include "common/contracts.hpp"
#include "obs/telemetry.hpp"

namespace propane::arr {
namespace {

/// Pre-resolved metric handles for the batch hot path (see the header
/// comment on batched_campaign_runner). All null when telemetry is off.
struct BatchInstruments {
  obs::Histogram* group_lanes = nullptr;
  obs::Histogram* retire_ticks = nullptr;
  obs::Counter* kernel_batches = nullptr;
  obs::Counter* kernel_lanes = nullptr;
  obs::Counter* kernel_segments = nullptr;
  obs::Counter* kernel_ticks = nullptr;
  obs::Counter* slot_ticks = nullptr;
  obs::Counter* live_slot_ticks = nullptr;
  obs::Counter* lane_ticks = nullptr;
  obs::Counter* refill_lanes = nullptr;
  obs::Counter* retire_converged = nullptr;
  obs::Counter* retire_exhausted = nullptr;
  obs::Counter* never_fire_lanes = nullptr;
  std::array<obs::Counter*, BatchedArrestmentSystem::kStepCount>
      step_cycles{};
  obs::Counter* step_sampled_ticks = nullptr;

  explicit BatchInstruments(const obs::Telemetry* telemetry) {
    group_lanes = obs::find_histogram(
        telemetry, "batch.group.lanes",
        {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    retire_ticks = obs::find_histogram(
        telemetry, "batch.retire.ticks",
        {16, 64, 256, 1024, 4096, 16384, 65536});
    kernel_batches = obs::find_counter(telemetry, "batch.kernel.batches");
    kernel_lanes = obs::find_counter(telemetry, "batch.kernel.lanes");
    kernel_segments = obs::find_counter(telemetry, "batch.kernel.segments");
    kernel_ticks = obs::find_counter(telemetry, "batch.kernel.ticks");
    slot_ticks = obs::find_counter(telemetry, "batch.kernel.slot_ticks");
    live_slot_ticks =
        obs::find_counter(telemetry, "batch.kernel.live_slot_ticks");
    lane_ticks = obs::find_counter(telemetry, "batch.kernel.lane_ticks");
    refill_lanes = obs::find_counter(telemetry, "batch.refill.lanes");
    retire_converged =
        obs::find_counter(telemetry, "batch.retire.converged");
    retire_exhausted =
        obs::find_counter(telemetry, "batch.retire.exhausted");
    never_fire_lanes = obs::find_counter(telemetry, "batch.never_fire.lanes");
    for (std::size_t step = 0; step < step_cycles.size(); ++step) {
      step_cycles[step] =
          obs::find_counter(telemetry, step_cycles_counter(step));
    }
    step_sampled_ticks =
        obs::find_counter(telemetry, "batch.kernel.step.sampled_ticks");
  }

  /// Folds one finished kernel in. Derived *after* the kernel ran, from
  /// counts and step timings it already kept.
  void observe(const BatchedArrestmentSystem& batch, std::size_t runs) const {
    const auto add = [](obs::Counter* counter, std::uint64_t n) {
      if (counter != nullptr) counter->add(n);
    };
    if (retire_ticks != nullptr) {
      for (const std::uint64_t tick : batch.retirement_ticks()) {
        retire_ticks->observe(static_cast<double>(tick));
      }
    }
    add(kernel_batches, 1);
    add(kernel_lanes, runs);
    add(kernel_segments, batch.segment_count());
    add(kernel_ticks, batch.ticks_simulated());
    add(slot_ticks, batch.slot_ticks());
    add(live_slot_ticks, batch.live_slot_ticks());
    add(lane_ticks, batch.ticks_simulated() * batch.lane_count());
    add(refill_lanes, batch.refills());
    add(retire_converged, batch.converged_retirements());
    add(retire_exhausted, batch.exhausted_retirements());
    for (std::size_t step = 0; step < step_cycles.size(); ++step) {
      add(step_cycles[step], batch.step_cycles()[step]);
    }
    add(step_sampled_ticks, batch.step_sampled_ticks());
  }
};

/// Lanes in one vector row of the kernel's uint16 lane sweeps. A kernel
/// sweeps one row or two (BatchedArrestmentSystem::kMaxLanes), never a
/// partial one: the compiled sweeps run whole rows and then a per-lane
/// remainder loop, so a 33rd lane adds 15-20% to a tick, while
/// padding a thin kernel out to its row costs next to nothing.
constexpr std::size_t kRowLanes = 32;

/// Streams `request` -- the runs of one test case -- through one kernel of
/// at most `width` slots (see the header comment).
std::vector<fi::DivergenceReport> run_batch(
    const WarmStartEngine& engine, std::size_t width,
    const fi::BatchRunRequest& request, const BatchInstruments& instruments) {
  PROPANE_REQUIRE(!request.lanes.empty());
  const std::uint32_t test_case = request.lanes.front().test_case;
  PROPANE_REQUIRE(test_case < engine.cases().size());
  if (instruments.group_lanes != nullptr) {
    instruments.group_lanes->observe(
        static_cast<double>(request.lanes.size()));
  }
  const auto fire_ms = [&request](std::size_t i) {
    return fi::injection_fire_ms(request.lanes[i].spec->when);
  };

  std::vector<fi::DivergenceReport> reports(request.lanes.size());

  // Peel lanes whose injection fires at/after the horizon: those runs
  // *are* the golden run, every signal matches, and no simulation is
  // needed. The rest ("live" lanes) run in fire-tick order (request order
  // among equal ticks).
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < request.lanes.size(); ++i) {
    PROPANE_REQUIRE_MSG(request.lanes[i].test_case == test_case,
                        "a batch request holds the runs of one test case");
    if (fire_ms(i) >= engine.duration_ms()) {
      reports[i] = fi::DivergenceReport(kAllSignals.size());
    } else {
      live.push_back(i);
    }
  }
  if (instruments.never_fire_lanes != nullptr) {
    instruments.never_fire_lanes->add(request.lanes.size() - live.size());
  }
  if (live.empty()) return reports;
  std::stable_sort(live.begin(), live.end(), [&](std::size_t a, std::size_t b) {
    return fire_ms(a) < fire_ms(b);
  });
  std::vector<BatchLaneSpec> specs;
  specs.reserve(live.size());
  for (const std::size_t i : live) {
    specs.push_back({request.lanes[i].spec, request.lanes[i].rng_seed});
  }

  // Segments open from the test case's warm-start checkpoint at their
  // first run's fire tick (the engine checkpoints every test case at every
  // distinct plan fire tick), or from a fresh t=0 system when there is
  // none: fire tick 0 has no prefix, and a golden that has not run yet
  // has published no checkpoints.
  std::vector<std::shared_ptr<const WarmStartEngine::Checkpoint>> held;
  std::deque<ArrestmentSystem> cold_origins;  // stable addresses
  const BatchPool pool{
      specs, [&](std::uint64_t ms) -> const ArrestmentSystem& {
        if (auto checkpoint = engine.lookup(test_case, ms)) {
          return *held.emplace_back(std::move(checkpoint))->system;
        }
        return cold_origins.emplace_back(engine.cases()[test_case]);
      }};

  // At most `width` runs in flight (and one lane for at least one golden
  // lane), in one whole row when they fit beside a golden lane, else in
  // two.
  const std::size_t runs = std::min(width, live.size());
  const std::size_t lanes = runs + 1 <= kRowLanes
                                ? kRowLanes
                                : BatchedArrestmentSystem::kMaxLanes;
  BatchedArrestmentSystem batch(pool, lanes, std::min(width, lanes - 1),
                                engine.duration());
  std::vector<fi::DivergenceReport> results = batch.run();
  // Kernel run order is fire-tick order.
  for (std::size_t r = 0; r < live.size(); ++r) {
    reports[live[r]] = std::move(results[r]);
  }
  instruments.observe(batch, live.size());
  return reports;
}

}  // namespace

std::string step_cycles_counter(std::size_t step) {
  PROPANE_REQUIRE(step < BatchedArrestmentSystem::kStepCount);
  return std::string("batch.kernel.step.") +
         BatchedArrestmentSystem::kStepNames[step] + "_cycles";
}

fi::CampaignRunner batched_campaign_runner(std::vector<TestCase> test_cases,
                                           const fi::CampaignConfig& config,
                                           sim::SimTime duration,
                                           const obs::Telemetry* telemetry) {
  PROPANE_REQUIRE(!test_cases.empty());
  auto engine = std::make_shared<WarmStartEngine>(std::move(test_cases),
                                                  config, duration);
  return fi::CampaignRunner(
      [engine](const fi::RunRequest& request) {
        return engine->golden_run(request);
      },
      [engine, width = fi::kernel_width(config),
       instruments = BatchInstruments(telemetry)](
          const fi::BatchRunRequest& request) {
        return run_batch(*engine, width, request, instruments);
      });
}

}  // namespace propane::arr

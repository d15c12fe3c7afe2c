#include "arrestment/batch_runner.hpp"

#include <algorithm>
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
  obs::Counter* kernel_ticks = nullptr;
  obs::Counter* never_fire_lanes = nullptr;

  explicit BatchInstruments(const obs::Telemetry* telemetry) {
    group_lanes = obs::find_histogram(
        telemetry, "batch.group.lanes",
        {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
    retire_ticks = obs::find_histogram(
        telemetry, "batch.retire.ticks",
        {16, 64, 256, 1024, 4096, 16384, 65536});
    kernel_batches = obs::find_counter(telemetry, "batch.kernel.batches");
    kernel_lanes = obs::find_counter(telemetry, "batch.kernel.lanes");
    kernel_ticks = obs::find_counter(telemetry, "batch.kernel.ticks");
    never_fire_lanes = obs::find_counter(telemetry, "batch.never_fire.lanes");
  }

  /// Folds one finished kernel run in. Derived *after* the kernel ran, from
  /// counts the batch already kept -- the tick loop stays untouched.
  void observe(const BatchedArrestmentSystem& batch,
               std::size_t live_lanes) const {
    if (retire_ticks != nullptr) {
      for (const std::uint64_t tick : batch.retirement_ticks()) {
        retire_ticks->observe(static_cast<double>(tick));
      }
    }
    if (kernel_batches != nullptr) kernel_batches->add(1);
    if (kernel_lanes != nullptr) kernel_lanes->add(live_lanes);
    if (kernel_ticks != nullptr) kernel_ticks->add(batch.ticks_simulated());
  }
};

std::vector<fi::DivergenceReport> run_batch(
    const WarmStartEngine& engine, const fi::BatchRunRequest& request,
    const BatchInstruments& instruments) {
  PROPANE_REQUIRE(!request.lanes.empty());
  if (instruments.group_lanes != nullptr) {
    instruments.group_lanes->observe(
        static_cast<double>(request.lanes.size()));
  }

  std::vector<fi::DivergenceReport> reports(request.lanes.size());

  // Peel lanes whose injection fires at/after the horizon: those runs
  // *are* the golden run, every signal matches, and no simulation is
  // needed. The rest ("live" lanes) go to the kernel; the batch starts at
  // the earliest live fire tick, and later-firing lanes simply track their
  // golden lane bit-identically until their tick arrives.
  std::vector<std::size_t> live;  // request indices, request order
  live.reserve(request.lanes.size());
  std::uint64_t start_ms = ~std::uint64_t{0};
  for (std::size_t i = 0; i < request.lanes.size(); ++i) {
    const fi::BatchLaneRequest& lane = request.lanes[i];
    PROPANE_REQUIRE(lane.test_case < engine.cases().size());
    const std::uint64_t fire_ms = fi::injection_fire_ms(lane.spec->when);
    if (fire_ms >= engine.duration_ms()) {
      reports[i].per_signal.resize(kAllSignals.size());
    } else {
      live.push_back(i);
      start_ms = std::min(start_ms, fire_ms);
    }
  }
  if (instruments.never_fire_lanes != nullptr) {
    instruments.never_fire_lanes->add(request.lanes.size() - live.size());
  }
  if (live.empty()) return reports;

  // One segment per distinct test case, in first-appearance order; a
  // segment's lanes keep request order (the planner's fire-tick order, so
  // staggered lanes cluster late in the segment).
  std::vector<std::uint32_t> seg_case;
  std::vector<std::vector<BatchLaneSpec>> seg_specs;
  std::vector<std::vector<std::size_t>> seg_request;
  for (const std::size_t i : live) {
    const fi::BatchLaneRequest& lane = request.lanes[i];
    const auto it = std::find(seg_case.begin(), seg_case.end(),
                              lane.test_case);
    std::size_t s = static_cast<std::size_t>(it - seg_case.begin());
    if (it == seg_case.end()) {
      seg_case.push_back(lane.test_case);
      seg_specs.emplace_back();
      seg_request.emplace_back();
    }
    seg_specs[s].push_back({lane.spec, lane.rng_seed});
    seg_request[s].push_back(i);
  }

  // Warm path: every segment restores its test case's golden checkpoint at
  // the shared start tick (the warm-start engine checkpoints every test
  // case at every distinct plan fire tick, so a packed batch warm-starts
  // whenever any single-group batch would). Fire tick 0 has no prefix, and
  // a missing checkpoint for *any* segment (its golden has not run yet)
  // sends the whole batch cold -- all origins must sit at the same tick.
  std::vector<std::shared_ptr<const WarmStartEngine::Checkpoint>> checkpoints;
  bool warm = start_ms > 0;
  if (warm) {
    checkpoints.reserve(seg_case.size());
    for (const std::uint32_t tc : seg_case) {
      std::shared_ptr<const WarmStartEngine::Checkpoint> checkpoint =
          engine.lookup(tc, start_ms);
      if (checkpoint == nullptr) {
        warm = false;
        checkpoints.clear();
        break;
      }
      checkpoints.push_back(std::move(checkpoint));
    }
  }

  std::deque<ArrestmentSystem> cold_origins;  // stable addresses
  std::vector<BatchSegment> segments;
  segments.reserve(seg_case.size());
  for (std::size_t s = 0; s < seg_case.size(); ++s) {
    const ArrestmentSystem* origin = nullptr;
    if (warm) {
      origin = checkpoints[s]->system.get();
    } else {
      origin = &cold_origins.emplace_back(engine.cases()[seg_case[s]]);
    }
    segments.push_back({origin, seg_specs[s]});
  }

  BatchedArrestmentSystem batch(segments, engine.duration());
  std::vector<fi::DivergenceReport> live_reports = batch.run();
  // Kernel reports come back in cross-segment spec order; scatter them to
  // the request's lane slots.
  std::size_t j = 0;
  for (std::size_t s = 0; s < seg_request.size(); ++s) {
    for (const std::size_t i : seg_request[s]) {
      reports[i] = std::move(live_reports[j++]);
    }
  }
  instruments.observe(batch, live.size());
  return reports;
}

}  // namespace

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
      [engine, instruments = BatchInstruments(telemetry)](
          const fi::BatchRunRequest& request) {
        return run_batch(*engine, request, instruments);
      });
}

}  // namespace propane::arr

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
  obs::Counter* slot_ticks = nullptr;
  obs::Counter* live_slot_ticks = nullptr;
  obs::Counter* lane_ticks = nullptr;
  obs::Counter* refill_lanes = nullptr;
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
    slot_ticks = obs::find_counter(telemetry, "batch.kernel.slot_ticks");
    live_slot_ticks =
        obs::find_counter(telemetry, "batch.kernel.live_slot_ticks");
    lane_ticks = obs::find_counter(telemetry, "batch.kernel.lane_ticks");
    refill_lanes = obs::find_counter(telemetry, "batch.refill.lanes");
    never_fire_lanes = obs::find_counter(telemetry, "batch.never_fire.lanes");
  }

  /// Folds one finished kernel pass in. Derived *after* the kernel ran,
  /// from counts the batch already kept -- the tick loop stays untouched.
  void observe(const BatchedArrestmentSystem& batch,
               std::size_t lanes) const {
    const auto add = [](obs::Counter* counter, std::uint64_t n) {
      if (counter != nullptr) counter->add(n);
    };
    if (retire_ticks != nullptr) {
      for (const std::uint64_t tick : batch.retirement_ticks()) {
        retire_ticks->observe(static_cast<double>(tick));
      }
    }
    add(kernel_batches, 1);
    add(kernel_lanes, lanes);
    add(kernel_ticks, batch.ticks_simulated());
    add(slot_ticks, batch.ticks_simulated() * batch.slot_count());
    add(live_slot_ticks, batch.live_slot_ticks());
    add(lane_ticks, batch.ticks_simulated() * batch.lane_count());
    add(refill_lanes, batch.refills());
  }
};

/// Lanes in one vector row of the kernel's uint16 lane sweeps. A pass
/// sweeps one row or two (BatchedArrestmentSystem::kMaxLanes), never a
/// partial one: the compiled sweeps run whole rows and then a per-lane
/// remainder loop, so a 33rd lane adds 15-20% to a tick, while
/// padding a thin pass out to its row costs next to nothing.
constexpr std::size_t kRowLanes = 32;

/// One test case's pending runs: request lane indices in fire-tick order.
struct Pool {
  std::uint32_t test_case = 0;
  std::vector<std::size_t> pending;
};

/// Runs `request` in passes of at most `width` slots (see the header
/// comment).
std::vector<fi::DivergenceReport> run_batch(
    const WarmStartEngine& engine, std::size_t width,
    const fi::BatchRunRequest& request, const BatchInstruments& instruments) {
  PROPANE_REQUIRE(!request.lanes.empty());
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
  // needed. The rest ("live" lanes) form one pool per distinct test case,
  // in first-appearance order, each in fire-tick order (request order
  // among equal ticks) -- the order refill takes them in.
  std::vector<Pool> pools;
  std::size_t live = 0;
  for (std::size_t i = 0; i < request.lanes.size(); ++i) {
    const fi::BatchLaneRequest& lane = request.lanes[i];
    PROPANE_REQUIRE(lane.test_case < engine.cases().size());
    if (fire_ms(i) >= engine.duration_ms()) {
      reports[i].per_signal.resize(kAllSignals.size());
      continue;
    }
    auto it = std::find_if(pools.begin(), pools.end(), [&](const Pool& p) {
      return p.test_case == lane.test_case;
    });
    if (it == pools.end()) it = pools.insert(pools.end(), {lane.test_case, {}});
    it->pending.push_back(i);
    ++live;
  }
  if (instruments.never_fire_lanes != nullptr) {
    instruments.never_fire_lanes->add(request.lanes.size() - live);
  }
  for (Pool& pool : pools) {
    std::stable_sort(pool.pending.begin(), pool.pending.end(),
                     [&](std::size_t a, std::size_t b) {
                       return fire_ms(a) < fire_ms(b);
                     });
  }

  // Passes: each starts at the earliest pending fire tick with every slot
  // filled (fewer only when fewer runs are pending), refills retired slots
  // as it goes, and hands back the runs whose fire tick passed before a
  // slot came free. Every pass takes at least its first runs, so the loop
  // ends.
  while (live > 0) {
    // A pass with k segments sweeps 64 lanes: 64 - k slots (fewer when
    // `width` asks for fewer), which go round-robin to the pools that
    // still have runs. At most 32 pools take part, so each keeps a slot.
    // When every pending run has a slot, the spare slots stay empty in the
    // first segment and pad the pass out to a whole row: 32 lanes when
    // the runs and golden lanes fit in one, else 64.
    const auto waiting = static_cast<std::size_t>(
        std::count_if(pools.begin(), pools.end(), [](const Pool& pool) {
          return !pool.pending.empty();
        }));
    const std::size_t fill = std::min(
        {width, BatchedArrestmentSystem::kMaxLanes -
                    std::min(waiting, kRowLanes),
         live});
    std::vector<std::size_t> slots(pools.size(), 0);
    std::size_t goldens = 0;  // one per pool given a slot
    for (std::size_t left = fill; left > 0;) {
      for (std::size_t p = 0; p < pools.size() && left > 0; ++p) {
        if (slots[p] < pools[p].pending.size()) {
          if (slots[p] == 0) ++goldens;
          ++slots[p];
          --left;
        }
      }
    }
    if (fill == live) {
      const std::size_t lanes = fill + goldens <= kRowLanes
                                    ? kRowLanes
                                    : BatchedArrestmentSystem::kMaxLanes;
      *std::find_if(slots.begin(), slots.end(),
                    [](std::size_t n) { return n > 0; }) +=
          lanes - goldens - fill;
    }
    std::uint64_t start_ms = ~std::uint64_t{0};
    std::size_t queued = 0;
    for (std::size_t p = 0; p < pools.size(); ++p) {
      if (slots[p] == 0) continue;
      start_ms = std::min(start_ms, fire_ms(pools[p].pending.front()));
      queued += pools[p].pending.size();
    }

    // Warm path: every segment restores its test case's golden checkpoint
    // at the pass's start tick (the warm-start engine checkpoints every
    // test case at every distinct plan fire tick). Fire tick 0 has no
    // prefix, and a missing checkpoint for *any* segment (its golden has
    // not run yet) sends the whole pass cold -- all origins must sit at
    // the same tick.
    std::vector<std::shared_ptr<const WarmStartEngine::Checkpoint>>
        checkpoints;
    bool warm = start_ms > 0;
    for (std::size_t p = 0; p < pools.size() && warm; ++p) {
      if (slots[p] == 0) continue;
      checkpoints.push_back(engine.lookup(pools[p].test_case, start_ms));
      warm = checkpoints.back() != nullptr;
    }

    std::vector<BatchLaneSpec> specs;
    std::vector<std::size_t> spec_lane;  // spec index -> request lane
    std::vector<std::size_t> spec_pool;  // spec index -> pool
    specs.reserve(queued);
    std::deque<ArrestmentSystem> cold_origins;  // stable addresses
    std::vector<BatchSegment> segments;
    for (std::size_t p = 0, c = 0; p < pools.size(); ++p) {
      if (slots[p] == 0) continue;
      const std::size_t first = specs.size();
      for (const std::size_t i : pools[p].pending) {
        specs.push_back({request.lanes[i].spec, request.lanes[i].rng_seed});
        spec_lane.push_back(i);
        spec_pool.push_back(p);
      }
      pools[p].pending.clear();
      const ArrestmentSystem* origin =
          warm ? checkpoints[c++]->system.get()
               : &cold_origins.emplace_back(
                     engine.cases()[pools[p].test_case]);
      segments.push_back({origin,
                          std::span<const BatchLaneSpec>(specs).subspan(
                              first, specs.size() - first),
                          slots[p]});
    }

    BatchedArrestmentSystem batch(segments, engine.duration());
    std::vector<fi::DivergenceReport> results = batch.run();
    // Taken runs' reports go to their request lanes; deferred runs return
    // to their pools, still in fire-tick order.
    const std::vector<std::size_t>& deferred = batch.deferred();
    for (std::size_t j = 0, d = 0; j < specs.size(); ++j) {
      if (d < deferred.size() && deferred[d] == j) {
        pools[spec_pool[j]].pending.push_back(spec_lane[j]);
        ++d;
      } else {
        reports[spec_lane[j]] = std::move(results[j]);
      }
    }
    const std::size_t taken = queued - deferred.size();
    live -= taken;
    instruments.observe(batch, taken);
  }
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
      [engine, width = fi::kernel_width(config),
       instruments = BatchInstruments(telemetry)](
          const fi::BatchRunRequest& request) {
        return run_batch(*engine, width, request, instruments);
      });
}

}  // namespace propane::arr

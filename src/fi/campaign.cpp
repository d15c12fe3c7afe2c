#include "fi/campaign.hpp"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/clock.hpp"
#include "obs/telemetry.hpp"

namespace propane::fi {

std::optional<BusSignalId> CampaignResult::find_signal(
    std::string_view name) const {
  const auto it = std::find(signal_names.begin(), signal_names.end(), name);
  if (it == signal_names.end()) return std::nullopt;
  return static_cast<BusSignalId>(it - signal_names.begin());
}

namespace {

std::uint64_t derive_seed(const CampaignConfig& config, std::uint64_t kind,
                          std::uint64_t index) {
  std::uint64_t s = config.seed ^ (kind * 0xD1B54A32D192ED03ULL) ^
                    (index * 0x9E3779B97F4A7C15ULL);
  return splitmix64(s);
}

std::uint64_t fire_ms_of(const BatchLaneRequest& lane) {
  return injection_fire_ms(lane.spec->when);
}

/// Most runs one request holds: a request's reports stay in memory until
/// its kernel ends, and a crash loses the whole request.
constexpr std::size_t kMaxRequestRuns = 1024;

/// Chunks each pool of more than one kernel width is split into: the
/// fewest that give `threads` workers an (almost) equal number of requests
/// each.
std::size_t chunks_per_pool(std::size_t pools, std::size_t threads) {
  constexpr double kMinBalance = 0.99;
  std::size_t chunks = 1;
  for (; pools > 0 && chunks < 4 * threads; ++chunks) {
    const std::size_t requests = pools * chunks;
    const std::size_t rounds = (requests + threads - 1) / threads;
    if (static_cast<double>(requests) >=
        kMinBalance * static_cast<double>(rounds * threads)) {
      break;
    }
  }
  return chunks;
}

/// Plans the runs to execute, already split into per-test-case pools, into
/// batch requests; a request never holds runs of two test cases. Each pool
/// is sorted by fire tick and dealt round-robin, one kernel width of
/// consecutive runs at a time, into chunks, one request each: a chunk
/// keeps the pool's fire-tick spread, so the kernel's refill always finds
/// a next run, while it opens full of a single fire tick. A pool of at
/// most one width is one request. Requests are ordered largest first, so
/// the smallest ones even out the threads at the end.
std::vector<BatchRunRequest> plan_requests(
    std::vector<std::vector<BatchLaneRequest>> pools, std::size_t width,
    std::size_t max_lanes, std::size_t threads) {
  const std::size_t live = static_cast<std::size_t>(
      std::count_if(pools.begin(), pools.end(),
                    [](const std::vector<BatchLaneRequest>& pool) {
                      return !pool.empty();
                    }));
  const std::size_t chunks = chunks_per_pool(live, threads);
  const std::size_t max_runs = max_lanes > 0 ? max_lanes : kMaxRequestRuns;
  const std::size_t max_blocks = std::max<std::size_t>(1, max_runs / width);

  std::vector<BatchRunRequest> requests;
  for (std::vector<BatchLaneRequest>& pool : pools) {
    if (pool.empty()) continue;
    std::stable_sort(pool.begin(), pool.end(),
                     [](const BatchLaneRequest& a, const BatchLaneRequest& b) {
                       return fire_ms_of(a) < fire_ms_of(b);
                     });
    const std::size_t blocks = (pool.size() + width - 1) / width;
    const std::size_t pool_chunks = std::min(
        blocks, std::max(chunks, (blocks + max_blocks - 1) / max_blocks));
    for (std::size_t c = 0; c < pool_chunks; ++c) {
      BatchRunRequest& request = requests.emplace_back();
      for (std::size_t b = c * width; b < pool.size();
           b += pool_chunks * width) {
        request.lanes.insert(
            request.lanes.end(), pool.begin() + static_cast<std::ptrdiff_t>(b),
            pool.begin() + static_cast<std::ptrdiff_t>(
                               std::min(pool.size(), b + width)));
      }
    }
  }
  std::stable_sort(requests.begin(), requests.end(),
                   [](const BatchRunRequest& a, const BatchRunRequest& b) {
                     return a.lanes.size() > b.lanes.size();
                   });
  return requests;
}

/// Telemetry handles, resolved once per campaign; all null when telemetry
/// is off, so the per-run overhead collapses to a few predictable
/// branches. Durations are taken only for the event log: golden.done per
/// golden run and campaign.batch.done per request.
struct Instruments {
  explicit Instruments(const obs::Telemetry* telemetry)
      : golden_runs(obs::find_counter(telemetry, "campaign.runs.golden")),
        injection_runs(
            obs::find_counter(telemetry, "campaign.runs.injection")),
        skipped_runs(obs::find_counter(telemetry, "campaign.runs.skipped")),
        diverged_runs(obs::find_counter(telemetry, "campaign.runs.diverged")),
        diverged_signals(
            obs::find_counter(telemetry, "campaign.divergence.signals")),
        timed(telemetry != nullptr && telemetry->events != nullptr) {}

  obs::Counter* golden_runs;
  obs::Counter* injection_runs;
  obs::Counter* skipped_runs;
  obs::Counter* diverged_runs;
  obs::Counter* diverged_signals;
  bool timed;
};

InjectionRecord make_record_identity(const CampaignConfig& config,
                                     std::size_t flat) {
  const std::size_t inj = flat / config.test_case_count;
  const std::size_t tc = flat % config.test_case_count;
  InjectionRecord record;
  record.injection_index = static_cast<std::uint32_t>(inj);
  record.test_case = static_cast<std::uint32_t>(tc);
  record.target = config.injections[inj].target;
  record.when = config.injections[inj].when;
  return record;
}

/// Executes every test case's golden run (every injection run's comparison
/// baseline) over the pool into result.goldens, then captures the signal
/// names.
void run_goldens(const CampaignRunner& runner, const CampaignConfig& config,
                 const obs::Telemetry* telemetry,
                 const Instruments& instruments, ThreadPool& pool,
                 CampaignResult& result) {
  const bool timed = instruments.timed;
  {
    obs::Span golden_phase(telemetry, "campaign.golden_phase");
    pool.parallel_for(0, config.test_case_count, [&](std::size_t tc) {
      const std::uint64_t start_us = timed ? obs::steady_now_us() : 0;
      RunRequest request;
      request.test_case = static_cast<std::uint32_t>(tc);
      request.rng_seed =
          golden_run_seed(config, static_cast<std::uint32_t>(tc));
      result.goldens[tc] = runner.run(request);
      const std::uint64_t dur_us =
          timed ? obs::steady_now_us() - start_us : 0;
      if (instruments.golden_runs != nullptr) {
        instruments.golden_runs->add(1);
      }
      obs::emit_event(
          telemetry, "golden.done",
          {{"test_case", obs::Value(tc)},
           {"samples", obs::Value(result.goldens[tc].sample_count())},
           {"dur_us", obs::Value(dur_us)}});
    });
  }
  obs::render_progress(telemetry);

  for (const TraceSet& golden : result.goldens) {
    PROPANE_CHECK_MSG(golden.sample_count() > 0,
                      "golden run produced an empty trace");
  }
  // All runs cover the same signal set; capture the names once.
  result.signal_names.reserve(result.goldens.front().signal_count());
  for (BusSignalId s = 0; s < result.goldens.front().signal_count(); ++s) {
    result.signal_names.push_back(result.goldens.front().signal_name(s));
  }
}

/// Plans the injection runs hooks.should_run keeps into batch requests and
/// executes them over the pool against `goldens`, handing every record to
/// hooks.on_record.
void run_injections(const CampaignRunner& runner,
                    const CampaignConfig& config, const CampaignHooks& hooks,
                    const Instruments& instruments, ThreadPool& pool,
                    const std::vector<TraceSet>& goldens) {
  const obs::Telemetry* telemetry = hooks.telemetry;
  const bool timed = instruments.timed;
  const std::size_t total =
      static_cast<std::size_t>(config.test_case_count) *
      config.injections.size();
  std::size_t width = kernel_width(config);
  if (runner.max_lanes > 0) width = std::min(width, runner.max_lanes);

  // --- Plan. Walk the plan in flat order, filter through should_run
  // (skipped runs never reach a request) and collect the survivors into
  // one pool per test case, in fire-tick order.
  std::vector<std::vector<BatchLaneRequest>> pools(config.test_case_count);
  for (std::size_t flat = 0; flat < total; ++flat) {
    const std::size_t inj = flat / config.test_case_count;
    const std::size_t tc = flat % config.test_case_count;
    const bool execute = !hooks.should_run ||
                         hooks.should_run(static_cast<std::uint32_t>(inj),
                                          static_cast<std::uint32_t>(tc));
    if (!execute) {
      if (instruments.skipped_runs != nullptr) {
        instruments.skipped_runs->add(1);
      }
      continue;
    }
    BatchLaneRequest lane;
    lane.flat = flat;
    lane.injection_index = static_cast<std::uint32_t>(inj);
    lane.test_case = static_cast<std::uint32_t>(tc);
    lane.rng_seed = injection_run_seed(config, flat);
    lane.spec = &config.injections[inj];
    pools[tc].push_back(lane);
  }
  std::vector<BatchRunRequest> batches = plan_requests(
      std::move(pools), width, runner.max_lanes, pool.thread_count());

  // --- Execute. One pool task per request; per-lane records keep their flat
  // identity, seed and report content, so journals and the CSVs derived
  // from them stay bit-identical.
  obs::Span injection_phase(telemetry, "campaign.injection_phase");
  pool.parallel_for(0, batches.size(), [&](std::size_t b) {
    BatchRunRequest& batch = batches[b];
    batch.goldens = &goldens;
    const std::uint64_t start_us = timed ? obs::steady_now_us() : 0;
    std::vector<DivergenceReport> reports = runner.batch(batch);
    PROPANE_CHECK_MSG(reports.size() == batch.lanes.size(),
                      "batch runner must return one report per lane");
    const std::uint64_t dur_us = timed ? obs::steady_now_us() - start_us : 0;
    // Request shape for profiling: earliest fire tick (the tick the
    // kernel's first segment starts from) and lane count -- occupancy is
    // lanes / kernel width.
    if (telemetry != nullptr && telemetry->events != nullptr) {
      std::uint64_t start_fire_ms = ~std::uint64_t{0};
      for (const BatchLaneRequest& lane : batch.lanes) {
        start_fire_ms =
            std::min(start_fire_ms, injection_fire_ms(lane.spec->when));
      }
      obs::emit_event(telemetry, "campaign.batch.done",
                      {{"fire_ms", obs::Value(start_fire_ms)},
                       {"lanes", obs::Value(batch.lanes.size())},
                       {"dur_us", obs::Value(dur_us)}});
    }

    for (std::size_t i = 0; i < batch.lanes.size(); ++i) {
      const BatchLaneRequest& lane = batch.lanes[i];
      InjectionRecord record = make_record_identity(config, lane.flat);
      record.report = std::move(reports[i]);
      const std::size_t divergences = record.report.divergence_count();
      if (instruments.injection_runs != nullptr) {
        instruments.injection_runs->add(1);
      }
      if (divergences > 0) {
        if (instruments.diverged_runs != nullptr) {
          instruments.diverged_runs->add(1);
        }
        if (instruments.diverged_signals != nullptr) {
          instruments.diverged_signals->add(divergences);
        }
      }
      if (hooks.on_record) hooks.on_record(std::move(record));
    }
    obs::render_progress(telemetry);
  });
}

}  // namespace

std::uint64_t golden_run_seed(const CampaignConfig& config,
                              std::uint32_t test_case) {
  return derive_seed(config, 0, test_case);
}

std::uint64_t injection_run_seed(const CampaignConfig& config,
                                 std::size_t flat) {
  return derive_seed(config, 1, flat);
}

CampaignRunner CampaignRunner::from_scalar(RunFunction scalar_run) {
  PROPANE_REQUIRE(scalar_run != nullptr);
  CampaignRunner runner(
      scalar_run, [scalar_run](const BatchRunRequest& request) {
        PROPANE_REQUIRE_MSG(request.goldens != nullptr,
                            "a scalar runner compares against the goldens");
        std::vector<DivergenceReport> reports;
        reports.reserve(request.lanes.size());
        for (const BatchLaneRequest& lane : request.lanes) {
          RunRequest run;
          run.test_case = lane.test_case;
          run.injection = *lane.spec;
          run.rng_seed = lane.rng_seed;
          reports.push_back(compare_to_golden(
              request.goldens->at(lane.test_case), scalar_run(run)));
        }
        return reports;
      });
  runner.max_lanes = 1;
  return runner;
}

CampaignResult run_campaign(const CampaignRunner& runner,
                            const CampaignConfig& config) {
  // Every run executes and lands in its flat slot; each worker writes
  // only the slots of its own request's lanes.
  std::vector<InjectionRecord> records(
      static_cast<std::size_t>(config.test_case_count) *
      config.injections.size());
  CampaignHooks hooks;
  hooks.on_record = [&](InjectionRecord&& record) {
    const std::size_t flat = campaign_flat_index(
        config, record.injection_index, record.test_case);
    records[flat] = std::move(record);
  };
  CampaignResult result = run_campaign(runner, config, hooks);
  result.records = std::move(records);
  return result;
}

CampaignResult run_campaign(const CampaignRunner& runner,
                            const CampaignConfig& config,
                            const CampaignHooks& hooks) {
  PROPANE_REQUIRE(runner.run != nullptr && runner.batch != nullptr);
  PROPANE_REQUIRE(config.test_case_count > 0);
  CampaignResult result;
  result.goldens.resize(config.test_case_count);
  // One model-name string per planned injection; records refer to it by
  // index instead of each carrying a copy.
  result.injection_model_names.reserve(config.injections.size());
  for (const InjectionSpec& spec : config.injections) {
    result.injection_model_names.push_back(spec.model.name);
  }
  const Instruments instruments(hooks.telemetry);
  // Declaration order is lifetime order: the campaign span opens before
  // the pool spawns and closes after it drains.
  const obs::Span campaign_span(hooks.telemetry, "campaign");
  ThreadPool pool(config.threads, hooks.telemetry);
  run_goldens(runner, config, hooks.telemetry, instruments, pool, result);
  run_injections(runner, config, hooks, instruments, pool, result.goldens);
  return result;
}

}  // namespace propane::fi

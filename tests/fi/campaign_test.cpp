#include "fi/campaign.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <numeric>
#include <string>
#include <string_view>

#include "common/contracts.hpp"

namespace propane::fi {
namespace {

/// A miniature deterministic system: signal "src" is freshly produced
/// every tick (so an injected error is visible for exactly one tick),
/// "dst" mirrors src with the low nibble masked off (so bit-flips in bits
/// 0-3 never propagate). Each test case uses a different src offset. The
/// injection point sits between producer and consumer, like a trap on the
/// consumer's read.
TraceSet toy_run(const RunRequest& request) {
  SignalBus bus;
  const BusSignalId src = bus.add_signal("src");
  const BusSignalId dst = bus.add_signal("dst");

  std::optional<InjectionDriver> injector;
  if (request.injection) {
    injector.emplace(bus, *request.injection, Rng(request.rng_seed));
  }
  TraceRecorder recorder(bus);
  for (std::uint64_t ms = 0; ms < 10; ++ms) {
    bus.write(src, static_cast<std::uint16_t>(request.test_case * 100 + ms));
    if (injector) injector->maybe_fire(ms * sim::kMillisecond);
    bus.write(dst, static_cast<std::uint16_t>(bus.read(src) & 0xFFF0));
    recorder.sample();
  }
  return recorder.take();
}

CampaignConfig toy_config() {
  CampaignConfig config;
  config.test_case_count = 3;
  config.injections = {
      InjectionSpec{0, 2 * sim::kMillisecond, bit_flip(0)},   // masked
      InjectionSpec{0, 2 * sim::kMillisecond, bit_flip(8)},   // propagates
      InjectionSpec{0, 50 * sim::kMillisecond, bit_flip(8)},  // never fires
  };
  config.threads = 2;
  return config;
}

TEST(Campaign, RunsGoldensAndAllInjections) {
  const CampaignResult result = run_campaign(toy_run, toy_config());
  EXPECT_EQ(result.goldens.size(), 3u);
  EXPECT_EQ(result.records.size(), 9u);
  EXPECT_EQ(result.run_count(), 12u);
  ASSERT_EQ(result.signal_names.size(), 2u);
  EXPECT_EQ(result.signal_names[0], "src");
  EXPECT_EQ(result.find_signal("dst"), 1u);
  EXPECT_FALSE(result.find_signal("nope").has_value());
}

TEST(Campaign, RecordsCarryInjectionIdentity) {
  const CampaignResult result = run_campaign(toy_run, toy_config());
  ASSERT_EQ(result.injection_model_names.size(), 3u);
  for (const InjectionRecord& record : result.records) {
    EXPECT_EQ(record.target, 0u);
    EXPECT_LT(record.injection_index, 3u);
    EXPECT_LT(record.test_case, 3u);
    const std::string_view model = result.model_name_of(record);
    EXPECT_TRUE(model == "bitflip(0)" || model == "bitflip(8)");
  }
  // Injection-major layout: record[inj * cases + tc].
  EXPECT_EQ(result.records[0].injection_index, 0u);
  EXPECT_EQ(result.records[0].test_case, 0u);
  EXPECT_EQ(result.records[4].injection_index, 1u);
  EXPECT_EQ(result.records[4].test_case, 1u);
}

TEST(Campaign, MaskedBitNeverReachesDst) {
  const CampaignResult result = run_campaign(toy_run, toy_config());
  for (const InjectionRecord& record : result.records) {
    if (result.model_name_of(record) != "bitflip(0)") continue;
    EXPECT_TRUE(record.report.per_signal[0].diverged);   // src corrupted
    EXPECT_EQ(record.report.per_signal[0].first_ms, 2u);
    EXPECT_FALSE(record.report.per_signal[1].diverged);  // dst masked
  }
}

TEST(Campaign, HighBitPropagatesImmediately) {
  const CampaignResult result = run_campaign(toy_run, toy_config());
  for (const InjectionRecord& record : result.records) {
    if (record.injection_index != 1) continue;
    EXPECT_TRUE(record.report.per_signal[0].diverged);
    EXPECT_TRUE(record.report.per_signal[1].diverged);
    EXPECT_EQ(record.report.per_signal[1].first_ms, 2u);
  }
}

TEST(Campaign, InjectionAfterRunEndHasNoEffect) {
  const CampaignResult result = run_campaign(toy_run, toy_config());
  for (const InjectionRecord& record : result.records) {
    if (record.injection_index != 2) continue;
    EXPECT_FALSE(record.report.any_divergence());
  }
}

TEST(Campaign, HooksOverloadStreamsRecordsToTheSink) {
  const CampaignConfig config = toy_config();
  const CampaignResult in_memory = run_campaign(toy_run, config);

  // Skip test case 1: the sink sees only the executed runs, and the result
  // holds no record at all.
  std::mutex mutex;
  std::vector<InjectionRecord> streamed;
  CampaignHooks hooks;
  hooks.should_run = [](std::uint32_t, std::uint32_t test_case) {
    return test_case != 1;
  };
  hooks.on_record = [&](InjectionRecord&& record) {
    const std::lock_guard<std::mutex> lock(mutex);
    streamed.push_back(std::move(record));
  };
  const CampaignResult result = run_campaign(toy_run, config, hooks);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.goldens.size(), 3u);
  ASSERT_EQ(streamed.size(), 6u);
  for (const InjectionRecord& record : streamed) {
    EXPECT_NE(record.test_case, 1u);
    const InjectionRecord& expected = in_memory.records[campaign_flat_index(
        config, record.injection_index, record.test_case)];
    EXPECT_EQ(record.report.per_signal.size(), 2u);
    EXPECT_TRUE(std::ranges::equal(record.report.diverged(),
                                   expected.report.diverged()));
  }
}

TEST(Campaign, DeterministicAcrossThreadCounts) {
  CampaignConfig one = toy_config();
  one.threads = 1;
  CampaignConfig four = toy_config();
  four.threads = 4;
  const CampaignResult a = run_campaign(toy_run, one);
  const CampaignResult b = run_campaign(toy_run, four);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const auto& ra = a.records[i].report.per_signal;
    const auto& rb = b.records[i].report.per_signal;
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t s = 0; s < ra.size(); ++s) {
      EXPECT_EQ(ra[s].diverged, rb[s].diverged);
      EXPECT_EQ(ra[s].first_ms, rb[s].first_ms);
    }
  }
}

TEST(Campaign, StochasticModelsGetIndependentSeeds) {
  CampaignConfig config;
  config.test_case_count = 1;
  config.injections = {
      InjectionSpec{0, 2 * sim::kMillisecond, random_replacement()},
      InjectionSpec{0, 2 * sim::kMillisecond, random_replacement()},
  };
  // Capture the injected values via the observed_value in the report.
  const CampaignResult result = run_campaign(toy_run, config);
  ASSERT_EQ(result.records.size(), 2u);
  const auto& d0 = result.records[0].report.per_signal[0];
  const auto& d1 = result.records[1].report.per_signal[0];
  ASSERT_TRUE(d0.diverged);
  ASSERT_TRUE(d1.diverged);
  EXPECT_NE(d0.observed_value, d1.observed_value);
}

TEST(Campaign, ContractsOnBadConfig) {
  CampaignConfig config;
  config.test_case_count = 0;
  EXPECT_THROW(run_campaign(toy_run, config), ContractViolation);
  EXPECT_THROW(run_campaign(nullptr, toy_config()), ContractViolation);
}

TEST(Campaign, GoldenRunsReceiveNoInjection) {
  std::atomic<int> golden_with_injection{0};
  const RunFunction probe = [&](const RunRequest& request) {
    if (!request.injection.has_value()) {
      // golden
    } else if (request.injection->when == 0) {
      golden_with_injection.fetch_add(1);
    }
    return toy_run(request);
  };
  run_campaign(probe, toy_config());
  EXPECT_EQ(golden_with_injection.load(), 0);
}

TEST(Campaign, ScalarRunnerIsAWidthOneBatchAdaptor) {
  const CampaignRunner runner = toy_run;
  EXPECT_EQ(runner.max_lanes, 1u);

  // Each lane is one scalar run, compared against its test case's golden.
  const CampaignConfig config = toy_config();
  std::vector<TraceSet> goldens;
  for (std::uint32_t tc = 0; tc < config.test_case_count; ++tc) {
    goldens.push_back(toy_run(RunRequest{tc, std::nullopt, 0}));
  }
  BatchRunRequest request;
  request.lanes = {{0, 1, 2, 7, &config.injections[1]},
                   {0, 0, 2, 8, &config.injections[0]}};
  request.goldens = &goldens;
  const std::vector<DivergenceReport> reports = runner.batch(request);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].divergence_count(),
            compare_to_golden(goldens[2],
                              toy_run(RunRequest{2, config.injections[1], 7}))
                .divergence_count());
  EXPECT_GT(reports[0].divergence_count(), 0u);
  EXPECT_EQ(reports[1].divergence_count(), 1u);  // src only; dst masks bit 0

  // Without goldens there is nothing to compare against.
  request.goldens = nullptr;
  EXPECT_THROW(runner.batch(request), ContractViolation);
}

/// A system that simulates nothing: its golden run is one row, and each
/// batch lane gets an empty report. It records the lane count of every
/// request the planner hands it, and counts the requests whose lanes do
/// not all share one test case.
struct PlanProbe {
  std::mutex mutex;
  std::vector<std::size_t> request_lanes;
  std::size_t mixed_requests = 0;

  CampaignRunner runner() {
    return CampaignRunner(
        [](const RunRequest&) {
          TraceSet trace(std::vector<std::string>{"s"});
          trace.append({0});
          return trace;
        },
        [this](const BatchRunRequest& request) {
          const std::lock_guard<std::mutex> lock(mutex);
          request_lanes.push_back(request.lanes.size());
          mixed_requests += std::any_of(
              request.lanes.begin(), request.lanes.end(),
              [&](const BatchLaneRequest& lane) {
                return lane.test_case != request.lanes.front().test_case;
              });
          return std::vector<DivergenceReport>(request.lanes.size());
        });
  }
};

/// `test_cases` x (every model x instant on each of `targets` targets).
CampaignConfig plan_shape(std::uint32_t test_cases, std::size_t targets,
                          const std::vector<ErrorModel>& models,
                          const std::vector<sim::SimTime>& instants) {
  CampaignConfig config;
  config.test_case_count = test_cases;
  for (std::size_t t = 0; t < targets; ++t) {
    const std::vector<InjectionSpec> plan = cross_product_plan(
        static_cast<BusSignalId>(t), models, instants);
    config.injections.insert(config.injections.end(), plan.begin(),
                             plan.end());
  }
  return config;
}

// The planner packs S runs into N requests of kernel width W, and every
// request holds the runs of one test case. Each test case's pool is dealt
// into whole widths, so at most one of its requests is short. With T =
// min(test cases, S) short requests, N <= T + (S - T) / W at any thread
// count. A planner that issues one request per (test case, fire tick)
// group breaks the bound on every shape below except the full paper plan,
// and one that packs thin pools across test cases fails the one-test-case
// check on the thin slice.
TEST(Campaign, PlannerPacksRequestsToTheKernelWidth) {
  const std::vector<ErrorModel> one_bit = {bit_flip(3)};
  std::vector<sim::SimTime> sparse_instants;
  for (sim::SimTime i = 0; i < 128; ++i) {
    sparse_instants.push_back((50 + 100 * i) * sim::kMillisecond);
  }
  struct Shape {
    const char* name;
    CampaignConfig config;
    std::function<bool(std::uint32_t, std::uint32_t)> should_run;
    std::size_t runs;
  };
  const std::vector<Shape> shapes = {
      // 2x2 test cases, two targets, 16 flips x the 10 paper instants.
      {"default", plan_shape(4, 2, all_bit_flips(), paper_injection_instants()),
       nullptr, 1280},
      // One flip at 128 instants: every (test case, fire tick) group holds
      // a single run.
      {"sparse", plan_shape(4, 1, one_bit, sparse_instants), nullptr, 512},
      // A delta that invalidated one consumer keeps a thin slice: here 4
      // flips x 10 instants of the last target (160 injections per
      // target), 40 runs per test case, below the width, so every pool is
      // one short request.
      {"thin slice",
       plan_shape(25, 13, all_bit_flips(), paper_injection_instants()),
       [](std::uint32_t injection, std::uint32_t) {
         return injection / 160 == 12 && injection % 160 < 40;
       },
       1000},
      // The paper's 25 x 13 x 16 x 10 campaign.
      {"paper", plan_shape(25, 13, all_bit_flips(), paper_injection_instants()),
       nullptr, 52000},
  };
  for (const Shape& shape : shapes) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      PlanProbe probe;
      CampaignConfig config = shape.config;
      config.threads = threads;
      CampaignHooks hooks;
      hooks.should_run = shape.should_run;
      run_campaign(probe.runner(), config, hooks);

      const std::size_t requests = probe.request_lanes.size();
      const std::size_t runs =
          std::accumulate(probe.request_lanes.begin(),
                          probe.request_lanes.end(), std::size_t{0});
      const std::size_t width = kDefaultBatchSize;
      const std::size_t tails =
          std::min<std::size_t>(config.test_case_count, runs);
      EXPECT_EQ(runs, shape.runs) << shape.name << ", threads " << threads;
      EXPECT_EQ(probe.mixed_requests, 0u)
          << shape.name << ", threads " << threads;
      EXPECT_LE(requests, tails + (runs - tails) / width)
          << shape.name << ", threads " << threads << ": " << runs
          << " run(s) in " << requests << " request(s)";
      if (std::string_view(shape.name) == "paper") {
        // 2,080 runs per test case: 34 widths, dealt into at least three
        // requests of at most 1,024 runs, and into four at 4 threads so
        // that 100 requests split evenly.
        EXPECT_EQ(requests, threads == 4 ? 100u : 75u)
            << "threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace propane::fi

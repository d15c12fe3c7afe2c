#include "arrestment/warm_start.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "arrestment/batch_runner.hpp"
#include "arrestment/testcase.hpp"

namespace propane::arr {
namespace {

constexpr sim::SimTime kShortRun = 400 * sim::kMillisecond;

fi::BusSignalId bus_id(std::string_view name) {
  fi::SignalBus bus;
  build_bus(bus);
  const auto id = bus.find(name);
  EXPECT_TRUE(id.has_value());
  return *id;
}

fi::CampaignConfig short_config() {
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0xC0FFEE;
  const fi::BusSignalId pulscnt = bus_id("pulscnt");
  const fi::BusSignalId set_value = bus_id("SetValue");
  config.injections = {
      // Non-tick-aligned instant: fires in the *next* tick (ceil).
      fi::InjectionSpec{pulscnt, 100 * sim::kMillisecond + 500, fi::bit_flip(3)},
      fi::InjectionSpec{set_value, 250 * sim::kMillisecond, fi::bit_flip(9)},
      fi::InjectionSpec{pulscnt, 250 * sim::kMillisecond,
                        fi::random_replacement()},
  };
  return config;
}

::testing::AssertionResult traces_identical(const fi::TraceSet& a,
                                            const fi::TraceSet& b) {
  if (a.signal_count() != b.signal_count() ||
      a.sample_count() != b.sample_count()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  const std::size_t values = a.signal_count() * a.sample_count();
  if (values != 0 && std::memcmp(a.data(), b.data(),
                                 values * sizeof(std::uint16_t)) != 0) {
    return ::testing::AssertionFailure() << "values differ";
  }
  return ::testing::AssertionSuccess();
}

/// `suffix` equals `full` from row `from` on.
::testing::AssertionResult suffix_identical(const fi::TraceSet& full,
                                            const fi::TraceSet& suffix,
                                            std::size_t from) {
  if (full.sample_count() != from + suffix.sample_count()) {
    return ::testing::AssertionFailure()
           << "suffix has " << suffix.sample_count() << " rows, expected "
           << full.sample_count() - from;
  }
  for (std::size_t ms = 0; ms < suffix.sample_count(); ++ms) {
    const auto a = full.row(from + ms);
    const auto b = suffix.row(ms);
    if (!std::equal(a.begin(), a.end(), b.begin(), b.end())) {
      return ::testing::AssertionFailure() << "row " << from + ms << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult reports_identical(const fi::DivergenceReport& a,
                                             const fi::DivergenceReport& b) {
  if (a.per_signal.size() != b.per_signal.size()) {
    return ::testing::AssertionFailure() << "signal count mismatch";
  }
  for (std::size_t s = 0; s < a.per_signal.size(); ++s) {
    const fi::Divergence& x = a.per_signal[s];
    const fi::Divergence& y = b.per_signal[s];
    if (x.diverged != y.diverged || x.first_ms != y.first_ms ||
        x.golden_value != y.golden_value ||
        x.observed_value != y.observed_value) {
      return ::testing::AssertionFailure() << "signal " << s << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(WarmStart, FireTickRoundsUpToNextMillisecond) {
  EXPECT_EQ(fi::injection_fire_ms(0), 0u);
  EXPECT_EQ(fi::injection_fire_ms(1), 1u);
  EXPECT_EQ(fi::injection_fire_ms(sim::kMillisecond), 1u);
  EXPECT_EQ(fi::injection_fire_ms(sim::kMillisecond + 1), 2u);
  EXPECT_EQ(fi::injection_fire_ms(2500 * sim::kMillisecond), 2500u);
}

TEST(WarmStart, WarmRunsBitIdenticalToCold) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  const fi::CampaignConfig config = short_config();
  WarmStartEngine engine(cases, config, kShortRun);
  const fi::RunFunction cold = campaign_runner(cases, kShortRun);

  // Goldens first (they capture the checkpoints), as run_campaign does.
  for (std::uint32_t tc = 0; tc < config.test_case_count; ++tc) {
    fi::RunRequest request;
    request.test_case = tc;
    request.rng_seed = 17 + tc;
    EXPECT_TRUE(traces_identical(engine.golden_run(request), cold(request)));
  }
  // Every injection resumes from its fire tick's checkpoint and reproduces
  // the cold run's trace from that tick on.
  for (std::size_t inj = 0; inj < config.injections.size(); ++inj) {
    const fi::InjectionSpec& spec = config.injections[inj];
    for (std::uint32_t tc = 0; tc < config.test_case_count; ++tc) {
      const auto checkpoint =
          engine.lookup(tc, fi::injection_fire_ms(spec.when));
      ASSERT_NE(checkpoint, nullptr);
      RunOptions options;
      options.duration = kShortRun;
      options.injection = spec;
      options.rng_seed = 1000 * inj + tc;
      ArrestmentSystem system(*checkpoint->system);
      fi::TraceRecorder recorder(system.bus());
      while (system.now() < kShortRun) {
        system.tick(options);
        recorder.sample();
      }
      fi::RunRequest request;
      request.test_case = tc;
      request.injection = spec;
      request.rng_seed = options.rng_seed;
      EXPECT_TRUE(suffix_identical(cold(request), recorder.take(),
                                   checkpoint->ms))
          << "injection " << inj << " test case " << tc;
    }
  }
}

TEST(WarmStart, InjectionBeforeGoldenFallsBackCold) {
  const std::vector<TestCase> cases = grid_test_cases(1, 1);
  fi::CampaignConfig config = short_config();
  config.test_case_count = 1;
  const fi::CampaignRunner runner =
      batched_campaign_runner(cases, config, kShortRun);

  // No golden ran yet, so no checkpoint exists: the batch starts cold.
  fi::BatchRunRequest request;
  request.lanes.push_back({0, 0, 0, 5, &config.injections[0]});
  const std::vector<fi::DivergenceReport> reports = runner.batch(request);
  ASSERT_EQ(reports.size(), 1u);

  RunOptions options;
  options.duration = kShortRun;
  const fi::TraceSet golden = run_arrestment(cases[0], options).trace;
  options.injection = config.injections[0];
  options.rng_seed = 5;
  EXPECT_TRUE(reports_identical(
      reports[0],
      fi::compare_to_golden(golden, run_arrestment(cases[0], options).trace)));
}

TEST(WarmStart, FullCampaignMatchesColdRunnerExactly) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  const fi::CampaignConfig config = short_config();
  const fi::CampaignResult warm = fi::run_campaign(
      batched_campaign_runner(cases, config, kShortRun), config);
  const fi::CampaignResult cold =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);

  ASSERT_EQ(warm.goldens.size(), cold.goldens.size());
  for (std::size_t tc = 0; tc < warm.goldens.size(); ++tc) {
    EXPECT_TRUE(traces_identical(warm.goldens[tc], cold.goldens[tc]));
  }
  ASSERT_EQ(warm.records.size(), cold.records.size());
  for (std::size_t r = 0; r < warm.records.size(); ++r) {
    EXPECT_TRUE(reports_identical(warm.records[r].report,
                                  cold.records[r].report))
        << "record " << r;
  }
}

TEST(ArrestmentSystem, SnapshotCopyResumesIdentically) {
  const TestCase test_case = grid_test_cases(1, 1)[0];
  RunOptions options;
  options.duration = 50 * sim::kMillisecond;
  options.rng_seed = 11;

  ArrestmentSystem reference(test_case);
  std::unique_ptr<ArrestmentSystem> copy;
  while (reference.now() < options.duration) {
    if (copy == nullptr && reference.current_ms() == 20) {
      copy = std::make_unique<ArrestmentSystem>(reference);
    }
    reference.tick(options);
  }
  ASSERT_NE(copy, nullptr);
  while (copy->now() < options.duration) copy->tick(options);

  EXPECT_EQ(copy->bus().snapshot(), reference.bus().snapshot());
  EXPECT_EQ(copy->environment().position_m(),
            reference.environment().position_m());
}

}  // namespace
}  // namespace propane::arr

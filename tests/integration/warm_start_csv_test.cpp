// Warm-started campaigns must be invisible in the results: the
// permeability CSV streamed from a journal produced by the batch kernel,
// whose batches start from golden-run checkpoints, must be byte-identical
// to one produced by the cold scalar reference's from-t=0 runs --
// including when the campaign is killed partway and resumed in a fresh
// process (whose runner starts with no checkpoints).
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "arrestment/batch_runner.hpp"
#include "arrestment/model.hpp"
#include "arrestment/testcase.hpp"
#include "obs/telemetry.hpp"
#include "store/result_cache.hpp"
#include "store/resume.hpp"

namespace propane::store {
namespace {

namespace fs = std::filesystem;

constexpr sim::SimTime kShortRun = 300 * sim::kMillisecond;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;  // the campaign creates it
}

fi::CampaignConfig short_config() {
  fi::SignalBus bus;
  arr::build_bus(bus);
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0x5EED;
  config.threads = 2;
  for (const std::string_view target : {"pulscnt", "SetValue", "PACNT"}) {
    const auto id = bus.find(target);
    EXPECT_TRUE(id.has_value());
    config.injections.push_back(
        fi::InjectionSpec{*id, 50 * sim::kMillisecond, fi::bit_flip(2)});
    config.injections.push_back(
        fi::InjectionSpec{*id, 150 * sim::kMillisecond, fi::bit_flip(11)});
  }
  return config;
}

/// A plain journaled run: the one journaled entry point with an empty
/// baseline, exactly as `campaign run` executes it.
DeltaJournalSummary run_journaled(const fi::CampaignRunner& runner,
                                  const fi::CampaignConfig& config,
                                  const fs::path& dir,
                                  const JournalRunOptions& options = {}) {
  const core::SystemModel model = arr::make_arrestment_model();
  DeltaRunOptions delta;
  delta.base = options;
  return run_delta_journaled_campaign(runner, config, model,
                                      arr::make_arrestment_binding(model),
                                      dir, ResultCache{}, delta);
}

std::string journal_csv(const fs::path& dir) {
  const core::SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);
  std::ostringstream out;
  write_permeability_csv_from_journal(out, dir, model, binding);
  return out.str();
}

/// The cold scalar reference's CSV for `config`.
std::string cold_csv(const std::vector<arr::TestCase>& cases,
                     const fi::CampaignConfig& config,
                     const std::string& name) {
  const fs::path dir = fresh_dir(name);
  run_journaled(arr::campaign_runner(cases, kShortRun), config, dir);
  return journal_csv(dir);
}

TEST(WarmStartCsv, WarmJournalStreamsByteIdenticalCsvToCold) {
  const std::vector<arr::TestCase> cases = arr::grid_test_cases(1, 2);
  const fi::CampaignConfig config = short_config();
  const std::string cold = cold_csv(cases, config, "warm_csv_cold");
  ASSERT_FALSE(cold.empty());

  const fs::path warm_dir = fresh_dir("warm_csv_warm");
  obs::MetricsRegistry metrics;
  const obs::Telemetry telemetry{&metrics, nullptr, nullptr};
  run_journaled(
      arr::batched_campaign_runner(cases, config, kShortRun, &telemetry),
      config, warm_dir);
  // The kernel actually ran (every fire tick is past 0, so warm-started).
  EXPECT_GT(metrics.counter("batch.kernel.batches").value(), 0u);
  EXPECT_EQ(journal_csv(warm_dir), cold);
}

TEST(WarmStartCsv, KilledAndResumedWarmCampaignMatchesColdCsv) {
  const std::vector<arr::TestCase> cases = arr::grid_test_cases(1, 2);
  const fi::CampaignConfig config = short_config();
  const fs::path dir = fresh_dir("warm_csv_resume");

  // "Kill" partway: a process-split session that owns only half the flat
  // run indices, exactly the journal state a crash leaves behind.
  {
    JournalRunOptions options;
    options.process_count = 2;
    options.process_index = 0;
    const DeltaJournalSummary partial = run_journaled(
        arr::batched_campaign_runner(cases, config, kShortRun), config, dir,
        options);
    ASSERT_GT(partial.executed, 0u);
    ASSERT_GT(partial.skipped_foreign, 0u);
  }

  // Resume in a "new process": a fresh runner with empty checkpoint slots
  // re-runs the goldens, rebuilds its checkpoints and finishes the rest.
  const DeltaJournalSummary resumed = run_journaled(
      arr::batched_campaign_runner(cases, config, kShortRun), config, dir);
  EXPECT_GT(resumed.executed, 0u);
  EXPECT_GT(resumed.skipped_completed, 0u);

  EXPECT_EQ(journal_csv(dir), cold_csv(cases, config, "warm_csv_resume_cold"));
}

}  // namespace
}  // namespace propane::store

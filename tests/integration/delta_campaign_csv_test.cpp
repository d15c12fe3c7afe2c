// The delta-campaign acceptance property on the real arrestment system:
// an incremental re-run against a full baseline, with one of the six
// modules invalidated, must stream a byte-identical permeability CSV while
// executing at most a third of the runs -- the rest replay from the
// content-addressed cache.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "arrestment/batch_runner.hpp"
#include "arrestment/model.hpp"
#include "arrestment/testcase.hpp"
#include "store/result_cache.hpp"
#include "store/resume.hpp"

namespace propane::store {
namespace {

namespace fs = std::filesystem;

constexpr sim::SimTime kShortRun = 300 * sim::kMillisecond;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

/// All 13 injectable signals x 2 models x 2 instants x 2 test cases = 104
/// runs, the paper's plan shape at smoke scale.
fi::CampaignConfig full_target_config() {
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0x5EED;
  config.threads = 2;
  const std::vector<fi::ErrorModel> models = {fi::bit_flip(2),
                                              fi::bit_flip(11)};
  const std::vector<sim::SimTime> instants = {50 * sim::kMillisecond,
                                              150 * sim::kMillisecond};
  for (const fi::BusSignalId target : arr::injection_target_bus_ids()) {
    const auto plan = fi::cross_product_plan(target, models, instants);
    config.injections.insert(config.injections.end(), plan.begin(),
                             plan.end());
  }
  return config;
}

std::string journal_csv(const fs::path& dir) {
  const core::SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);
  std::ostringstream out;
  write_permeability_csv_from_journal(out, dir, model, binding);
  return out.str();
}

TEST(DeltaCampaignCsv, OneInvalidatedModuleReplaysTheRestByteIdentically) {
  const std::vector<arr::TestCase> cases = arr::grid_test_cases(1, 2);
  const fi::CampaignConfig config = full_target_config();
  const core::SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);

  // Cold baseline through the delta path, so the journal is fingerprinted,
  // executed by the scalar reference; the delta below runs batched.
  const fs::path base_dir = fresh_dir("delta_csv_base");
  DeltaRunOptions options;
  options.module_versions = arr::module_version_tokens();
  const DeltaJournalSummary cold = run_delta_journaled_campaign(
      arr::campaign_runner(cases, kShortRun), config, model, binding,
      base_dir, ResultCache{}, options);
  EXPECT_EQ(cold.executed, cold.total_runs);
  const std::string cold_csv = journal_csv(base_dir);
  ASSERT_FALSE(cold_csv.empty());

  // Incremental re-run with V_REG "edited" (perturbed version token, same
  // behaviour). Only runs targeting V_REG's inputs may execute.
  const fs::path delta_dir = fresh_dir("delta_csv_incremental");
  options.module_versions =
      arr::module_version_tokens({{"V_REG", 0x5EED5EED5EED5EEDULL}});
  const DeltaJournalSummary delta = run_delta_journaled_campaign(
      arr::batched_campaign_runner(cases, config, kShortRun), config, model,
      binding, delta_dir, ResultCache::load(base_dir), options);

  EXPECT_EQ(delta.executed + delta.replayed, delta.total_runs);
  EXPECT_GT(delta.replayed, 0u);
  // The acceptance bound: at most a third of the runs execute.
  EXPECT_LE(delta.executed * 3, delta.total_runs);
  ASSERT_EQ(delta.invalidated_modules.size(), 1u);
  EXPECT_EQ(model.module_name(delta.invalidated_modules[0]), "V_REG");

  EXPECT_EQ(journal_csv(delta_dir), cold_csv);
}

}  // namespace
}  // namespace propane::store

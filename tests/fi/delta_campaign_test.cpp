#include "fi/delta_campaign.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fi/estimator.hpp"

namespace propane::fi {
namespace {

/// Two-module chain: src -> M1 -> mid -> M2 -> dst.
core::SystemModel chain_model() {
  core::SystemModelBuilder builder;
  builder.add_module("M1", {"src"}, {"mid"});
  builder.add_module("M2", {"mid"}, {"dst"});
  builder.add_system_input("src");
  builder.connect_system_input("src", "M1", "src");
  builder.connect("M1", "mid", "M2", "mid");
  builder.add_system_output("dst", "M2", "dst");
  return std::move(builder).build();
}

SignalBinding chain_binding(const core::SystemModel& model) {
  return SignalBinding::by_name(model, {"src", "mid", "dst"});
}

/// 4 injections per target (2 models x 2 instants) x 2 test cases = 16
/// runs; flats 0..7 target src (consumer M1), flats 8..15 target mid
/// (consumer M2).
CampaignConfig chain_config() {
  CampaignConfig config;
  config.test_case_count = 2;
  const std::vector<ErrorModel> models = {bit_flip(2), bit_flip(10)};
  const std::vector<sim::SimTime> instants = {2 * sim::kMillisecond,
                                              5 * sim::kMillisecond};
  for (const BusSignalId target : {BusSignalId{0}, BusSignalId{1}}) {
    const auto plan = cross_product_plan(target, models, instants);
    config.injections.insert(config.injections.end(), plan.begin(),
                             plan.end());
  }
  config.seed = 0xABCD;
  config.threads = 2;
  return config;
}

ModuleVersionMap v1_tokens() { return {{"M1", 1}, {"M2", 1}}; }

bool src_targeted(const CampaignConfig& config, std::size_t flat) {
  return config.injections[flat / config.test_case_count].target == 0;
}

TEST(DeltaCampaign, ConsumersByBusFollowsModelWiring) {
  const core::SystemModel model = chain_model();
  const auto consumers = consumers_by_bus(model, chain_binding(model), 4);
  ASSERT_EQ(consumers.size(), 4u);
  EXPECT_EQ(consumers[0], (std::vector<core::ModuleId>{0}));  // src -> M1
  EXPECT_EQ(consumers[1], (std::vector<core::ModuleId>{1}));  // mid -> M2
  EXPECT_TRUE(consumers[2].empty());                          // dst -> nobody
  EXPECT_TRUE(consumers[3].empty());                          // unbound bus id
}

TEST(DeltaCampaign, FingerprintsAreDeterministicAndNonZero) {
  const core::SystemModel model = chain_model();
  const SignalBinding binding = chain_binding(model);
  const CampaignConfig config = chain_config();
  const auto a = run_fingerprints(config, model, binding, v1_tokens());
  const auto b = run_fingerprints(config, model, binding, v1_tokens());
  ASSERT_EQ(a.size(), 16u);
  EXPECT_EQ(a, b);
  for (const std::uint64_t fp : a) EXPECT_NE(fp, 0u);
}

TEST(DeltaCampaign, MasterSeedInvalidatesEveryRun) {
  const core::SystemModel model = chain_model();
  const SignalBinding binding = chain_binding(model);
  CampaignConfig config = chain_config();
  const auto before = run_fingerprints(config, model, binding, v1_tokens());
  config.seed ^= 1;
  const auto after = run_fingerprints(config, model, binding, v1_tokens());
  for (std::size_t flat = 0; flat < before.size(); ++flat) {
    EXPECT_NE(before[flat], after[flat]) << "flat " << flat;
  }
}

TEST(DeltaCampaign, ModuleTokenInvalidatesOnlyItsInputTargets) {
  const core::SystemModel model = chain_model();
  const SignalBinding binding = chain_binding(model);
  const CampaignConfig config = chain_config();
  const auto before = run_fingerprints(config, model, binding, v1_tokens());
  const auto after =
      run_fingerprints(config, model, binding, {{"M1", 1}, {"M2", 2}});
  for (std::size_t flat = 0; flat < before.size(); ++flat) {
    if (src_targeted(config, flat)) {
      EXPECT_EQ(before[flat], after[flat]) << "flat " << flat;
    } else {
      EXPECT_NE(before[flat], after[flat]) << "flat " << flat;
    }
  }
}

TEST(DeltaCampaign, PlanDetailsChangeTheFingerprint) {
  const core::SystemModel model = chain_model();
  const SignalBinding binding = chain_binding(model);
  const CampaignConfig config = chain_config();
  const auto base = run_fingerprints(config, model, binding, v1_tokens());

  CampaignConfig when = config;
  when.injections[0].when += sim::kMillisecond;
  EXPECT_NE(run_fingerprints(when, model, binding, v1_tokens())[0], base[0]);

  CampaignConfig target = config;
  target.injections[0].target = 1;
  EXPECT_NE(run_fingerprints(target, model, binding, v1_tokens())[0], base[0]);

  CampaignConfig m = config;
  m.injections[0].model = bit_flip(9);
  EXPECT_NE(run_fingerprints(m, model, binding, v1_tokens())[0], base[0]);

  CampaignConfig phase = config;
  phase.injections[0].phase = InjectionPhase::kPreBackground;
  EXPECT_NE(run_fingerprints(phase, model, binding, v1_tokens())[0], base[0]);
}

}  // namespace
}  // namespace propane::fi

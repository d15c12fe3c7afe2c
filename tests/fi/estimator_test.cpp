#include "fi/estimator.hpp"

#include <gtest/gtest.h>

#include "common/contracts.hpp"

namespace propane::fi {
namespace {

using core::SignalRef;
using core::SystemModel;
using core::SystemModelBuilder;

/// Model: system input "src" -> module M(in) -> output "dst" (system out).
SystemModel chain_model() {
  SystemModelBuilder builder;
  builder.add_module("M", {"in"}, {"dst"});
  builder.add_system_input("src");
  builder.connect_system_input("src", "M", "in");
  builder.add_system_output("out", "M", "dst");
  return std::move(builder).build();
}

/// Model with feedback and two inputs:
///   system input "x" -> A -> "a" -> B{in_a, in_fb} -> "b" (system out),
///   "b" also feeds back into B.in_fb.
SystemModel feedback_model() {
  SystemModelBuilder builder;
  builder.add_module("A", {"xin"}, {"a"});
  builder.add_module("B", {"in_a", "in_fb"}, {"b"});
  builder.add_system_input("x");
  builder.connect_system_input("x", "A", "xin");
  builder.connect("A", "a", "B", "in_a");
  builder.connect("B", "b", "B", "in_fb");
  builder.add_system_output("out", "B", "b");
  return std::move(builder).build();
}

SignalBinding bind_names(const SystemModel& model,
                         std::vector<std::string> names) {
  return SignalBinding::by_name(model, names);
}

/// Builds a campaign result by hand: each entry is (target_bus, per-signal
/// divergence times; SIZE_MAX = no divergence).
CampaignResult fake_campaign(
    std::vector<std::string> signal_names,
    const std::vector<std::pair<BusSignalId,
                                std::vector<std::size_t>>>& records) {
  CampaignResult result;
  result.signal_names = std::move(signal_names);
  for (const auto& [target, times] : records) {
    InjectionRecord record;
    record.target = target;
    record.injection_index =
        static_cast<std::uint32_t>(result.records.size());
    result.injection_model_names.emplace_back("fake");
    record.report = DivergenceReport(times.size());
    for (std::size_t s = 0; s < times.size(); ++s) {
      if (times[s] != SIZE_MAX) record.report.note(s, times[s], 0, 0);
    }
    result.records.push_back(std::move(record));
  }
  return result;
}

TEST(SignalBinding, ByNameResolvesEverySignal) {
  const SystemModel model = chain_model();
  const SignalBinding binding = bind_names(model, {"src", "dst"});
  EXPECT_EQ(binding.size(), 2u);
  EXPECT_EQ(binding.bus_for(SignalRef::from_system_input(0)), 0u);
  EXPECT_EQ(binding.bus_for(SignalRef::from_output({0, 0})), 1u);
  EXPECT_TRUE(binding.is_bound(SignalRef::from_system_input(0)));
}

TEST(SignalBinding, MissingNameViolatesContract) {
  const SystemModel model = chain_model();
  EXPECT_THROW(bind_names(model, {"src", "WRONG"}), ContractViolation);
}

TEST(SignalBinding, UnboundLookupViolatesContract) {
  SignalBinding binding;
  EXPECT_THROW(binding.bus_for(SignalRef::from_system_input(0)),
               ContractViolation);
  EXPECT_FALSE(binding.is_bound(SignalRef::from_system_input(0)));
}

TEST(Estimator, PermeabilityIsErrorsOverInjections) {
  const SystemModel model = chain_model();
  const SignalBinding binding = bind_names(model, {"src", "dst"});
  // 4 injections into src: dst diverges in 3.
  const CampaignResult campaign = fake_campaign(
      {"src", "dst"}, {{0, {2, 5}},
                       {0, {2, SIZE_MAX}},
                       {0, {3, 4}},
                       {0, {3, 9}}});
  const EstimationResult est =
      estimate_permeability(model, binding, campaign);
  const PairEstimate& pair = est.pair(0, 0, 0);
  EXPECT_EQ(pair.injections, 4u);
  EXPECT_EQ(pair.errors, 3u);
  EXPECT_DOUBLE_EQ(pair.permeability(), 0.75);
  EXPECT_DOUBLE_EQ(est.permeability.get(0, 0, 0), 0.75);
  EXPECT_EQ(pair.input_name, "src");
  EXPECT_EQ(pair.output_name, "dst");
}

TEST(Estimator, UninjectedPairsStayZeroWithNoInjections) {
  const SystemModel model = chain_model();
  const SignalBinding binding = bind_names(model, {"src", "dst"});
  const CampaignResult campaign = fake_campaign({"src", "dst"}, {});
  const EstimationResult est =
      estimate_permeability(model, binding, campaign);
  EXPECT_EQ(est.pair(0, 0, 0).injections, 0u);
  EXPECT_DOUBLE_EQ(est.permeability.get(0, 0, 0), 0.0);
  // CI degenerates to [0, 1] when nothing was injected.
  EXPECT_DOUBLE_EQ(est.pair(0, 0, 0).confidence().lo, 0.0);
  EXPECT_DOUBLE_EQ(est.pair(0, 0, 0).confidence().hi, 1.0);
}

TEST(Estimator, DirectRuleExcludesEarlierOtherInputDivergence) {
  const SystemModel model = feedback_model();
  // Bus: x=0, a=1, b=2.
  const SignalBinding binding = bind_names(model, {"x", "a", "b"});
  // Inject x. B's output b diverges at 7, but B's input in_a ("a")
  // diverged at 5 < 7: for pair (B, in_fb, b) this is irrelevant (in_fb is
  // driven by b itself -- self-feedback). For pair (B, in_a, b) the
  // injected signal is "a"? No: the injection target is x, whose consumer
  // is A.xin. So only A's pair (xin -> a) is estimated from this record.
  const CampaignResult c1 =
      fake_campaign({"x", "a", "b"}, {{0, {1, 5, 7}}});
  const EstimationResult e1 = estimate_permeability(model, binding, c1);
  EXPECT_EQ(e1.pair(0, 0, 0).injections, 1u);  // A: xin -> a
  EXPECT_EQ(e1.pair(0, 0, 0).errors, 1u);
  EXPECT_EQ(e1.pair(1, 0, 0).injections, 0u);  // B not injected

  // Inject a (B.in_a): b diverges at 7; the *other* input in_fb is driven
  // by b itself, which diverged at 7 too (cotimed self-feedback) -> still
  // direct.
  const CampaignResult c2 =
      fake_campaign({"x", "a", "b"}, {{1, {SIZE_MAX, 2, 7}}});
  const EstimationResult e2 = estimate_permeability(model, binding, c2);
  EXPECT_EQ(e2.pair(1, 0, 0).injections, 1u);
  EXPECT_EQ(e2.pair(1, 0, 0).errors, 1u);
  EXPECT_EQ(e2.pair(1, 0, 0).indirect_errors, 0u);
}

TEST(Estimator, DirectRuleSelfFeedbackEarlierDivergenceExcludes) {
  const SystemModel model = feedback_model();
  const SignalBinding binding = bind_names(model, {"x", "a", "b"});
  // Inject a: b first diverges at 3 (recorded), but suppose the campaign
  // reports b's divergence at 3 and we look at... craft a case where the
  // feedback genuinely re-enters: b diverged at 3; a second divergence of
  // the *output* b cannot be later than its first. Instead check pair
  // (B, in_fb, b) when injecting b directly: the injected signal is b, the
  // other input in_a ("a") diverged at 5 while b diverged at 3 -> direct.
  const CampaignResult c =
      fake_campaign({"x", "a", "b"}, {{2, {SIZE_MAX, 5, 3}}});
  const EstimationResult est = estimate_permeability(model, binding, c);
  EXPECT_EQ(est.pair(1, 1, 0).injections, 1u);  // B: in_fb -> b
  EXPECT_EQ(est.pair(1, 1, 0).errors, 1u);

  // And if in_a had diverged *before* b (say at 1 < 3), the b divergence
  // is attributed to re-entry: indirect.
  const CampaignResult c_indirect =
      fake_campaign({"x", "a", "b"}, {{2, {SIZE_MAX, 1, 3}}});
  const EstimationResult est2 =
      estimate_permeability(model, binding, c_indirect);
  EXPECT_EQ(est2.pair(1, 1, 0).errors, 0u);
  EXPECT_EQ(est2.pair(1, 1, 0).indirect_errors, 1u);
}

TEST(Estimator, CotimedOtherProducerDivergenceIsIndirect) {
  const SystemModel model = feedback_model();
  const SignalBinding binding = bind_names(model, {"x", "a", "b"});
  // Inject b (feedback input of B): other input in_a ("a", produced by A)
  // diverges at the same ms as output b -> indirect under the cotimed
  // rule for non-self-feedback inputs... but b first diverges at the
  // injection, which precedes. Use distinct times: output b diverges at 4,
  // in_a also at 4.
  const CampaignResult c =
      fake_campaign({"x", "a", "b"}, {{2, {SIZE_MAX, 4, 4}}});
  const EstimationResult est = estimate_permeability(model, binding, c);
  EXPECT_EQ(est.pair(1, 1, 0).errors, 0u);
  EXPECT_EQ(est.pair(1, 1, 0).indirect_errors, 1u);
}

TEST(Estimator, EveryDivergenceIsDirectOrIndirect) {
  // P counts direct errors only (Section 7.3); every observed output
  // divergence is errors + indirect_errors.
  const SystemModel model = feedback_model();
  const SignalBinding binding = bind_names(model, {"x", "a", "b"});
  const CampaignResult c = fake_campaign(
      {"x", "a", "b"}, {{2, {SIZE_MAX, 1, 3}}, {2, {SIZE_MAX, 5, 3}}});
  const EstimationResult est = estimate_permeability(model, binding, c);
  const PairEstimate& pair = est.pair(1, 1, 0);
  EXPECT_EQ(pair.injections, 2u);
  EXPECT_EQ(pair.errors, 1u);
  EXPECT_EQ(pair.indirect_errors, 1u);
  EXPECT_EQ(pair.errors + pair.indirect_errors, 2u);
  EXPECT_DOUBLE_EQ(pair.permeability(), 0.5);
}

TEST(Estimator, FanOutTargetCreditsEveryConsumer) {
  // One output feeding two modules: injections into it count for both.
  SystemModelBuilder builder;
  builder.add_module("SRC", {"s"}, {"sig"});
  builder.add_module("P", {"in"}, {"p"});
  builder.add_module("Q", {"in"}, {"q"});
  builder.add_system_input("x");
  builder.connect_system_input("x", "SRC", "s");
  builder.connect("SRC", "sig", "P", "in");
  builder.connect("SRC", "sig", "Q", "in");
  builder.add_system_output("op", "P", "p");
  builder.add_system_output("oq", "Q", "q");
  const SystemModel model = std::move(builder).build();
  const SignalBinding binding =
      SignalBinding::by_name(model, {"x", "sig", "p", "q"});
  // Inject sig(bus 1): p diverges, q does not.
  const CampaignResult c =
      fake_campaign({"x", "sig", "p", "q"}, {{1, {SIZE_MAX, 2, 4, SIZE_MAX}}});
  const EstimationResult est = estimate_permeability(model, binding, c);
  EXPECT_EQ(est.pair(1, 0, 0).injections, 1u);  // P
  EXPECT_EQ(est.pair(1, 0, 0).errors, 1u);
  EXPECT_EQ(est.pair(2, 0, 0).injections, 1u);  // Q
  EXPECT_EQ(est.pair(2, 0, 0).errors, 0u);
}

TEST(Estimator, LocationPropagationCountsSystemOutputReach) {
  const SystemModel model = chain_model();
  const SignalBinding binding = bind_names(model, {"src", "dst"});
  CampaignResult campaign = fake_campaign(
      {"src", "dst"},
      {{0, {2, 5}}, {0, {2, SIZE_MAX}}, {1, {SIZE_MAX, 3}}});
  campaign.injection_model_names = {"m1", "m1", "m2"};
  const auto stats = location_propagation_stats(model, binding, campaign);
  ASSERT_EQ(stats.size(), 2u);
  // (src, m1): 2 injections, 1 reached dst (the system output).
  const auto& src_m1 = stats[0].signal_name == "src" ? stats[0] : stats[1];
  EXPECT_EQ(src_m1.injections, 2u);
  EXPECT_EQ(src_m1.propagated, 1u);
  EXPECT_DOUBLE_EQ(src_m1.fraction(), 0.5);
}

TEST(Accumulator, StreamingFoldMatchesBatchInAnyOrder) {
  const SystemModel model = feedback_model();
  const SignalBinding binding = bind_names(model, {"x", "a", "b"});
  const CampaignResult campaign = fake_campaign(
      {"x", "a", "b"}, {{0, {2, 5, 9}},
                        {0, {2, SIZE_MAX, SIZE_MAX}},
                        {1, {SIZE_MAX, 3, 3}},
                        {1, {SIZE_MAX, 4, SIZE_MAX}},
                        {2, {SIZE_MAX, SIZE_MAX, 6}}});
  const EstimationResult batch =
      estimate_permeability(model, binding, campaign);

  // Fold the same records one at a time, in reverse -- journal shards
  // replay in arbitrary order, and the estimate must not care.
  PermeabilityAccumulator accumulator(model, binding, 3);
  for (auto it = campaign.records.rbegin(); it != campaign.records.rend();
       ++it) {
    accumulator.add(*it);
  }
  EXPECT_EQ(accumulator.record_count(), campaign.records.size());
  const EstimationResult streamed = accumulator.finish();

  ASSERT_EQ(streamed.pairs.size(), batch.pairs.size());
  for (std::size_t p = 0; p < batch.pairs.size(); ++p) {
    EXPECT_EQ(streamed.pairs[p].injections, batch.pairs[p].injections);
    EXPECT_EQ(streamed.pairs[p].errors, batch.pairs[p].errors);
    EXPECT_DOUBLE_EQ(streamed.pairs[p].permeability(),
                     batch.pairs[p].permeability());
    EXPECT_EQ(streamed.pairs[p].latency_sum_ms, batch.pairs[p].latency_sum_ms);
  }
}

TEST(Accumulator, ReportNarrowerThanTheBindingIsAContractError) {
  const SystemModel model = chain_model();
  const SignalBinding binding = bind_names(model, {"src", "dst"});
  PermeabilityAccumulator accumulator(model, binding, 2);
  InjectionRecord record;  // width 0 covers no bound signal
  EXPECT_THROW(accumulator.add(record), ContractViolation);
  record.report = DivergenceReport(1);  // covers src but not dst
  EXPECT_THROW(accumulator.add(record), ContractViolation);
  EXPECT_EQ(accumulator.record_count(), 0u);
  record.report = DivergenceReport(2);
  accumulator.add(record);
  EXPECT_EQ(accumulator.record_count(), 1u);
}

TEST(Estimator, PairLookupContractOnUnknownPair) {
  const SystemModel model = chain_model();
  const SignalBinding binding = bind_names(model, {"src", "dst"});
  const CampaignResult campaign = fake_campaign({"src", "dst"}, {});
  const EstimationResult est =
      estimate_permeability(model, binding, campaign);
  EXPECT_THROW(est.pair(5, 0, 0), ContractViolation);
}

}  // namespace
}  // namespace propane::fi

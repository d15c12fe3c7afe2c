#include "exp/paper_experiment.hpp"

#include "arrestment/batch_runner.hpp"
#include "common/env.hpp"
#include "common/strings.hpp"

namespace propane::exp {

ExperimentScale paper_scale() {
  ExperimentScale scale;
  scale.name = "paper";
  scale.mass_count = 5;
  scale.velocity_count = 5;
  scale.instants = fi::paper_injection_instants();
  scale.models = fi::all_bit_flips();
  return scale;
}

ExperimentScale default_scale() {
  ExperimentScale scale;
  scale.name = "default";
  scale.mass_count = 2;
  scale.velocity_count = 2;
  scale.instants = {1 * sim::kSecond, 2500 * sim::kMillisecond,
                    4 * sim::kSecond};
  scale.models = fi::all_bit_flips();
  return scale;
}

ExperimentScale smoke_scale() {
  ExperimentScale scale;
  scale.name = "smoke";
  scale.mass_count = 1;
  scale.velocity_count = 1;
  scale.instants = {1 * sim::kSecond, 3 * sim::kSecond};
  scale.models = {fi::bit_flip(0), fi::bit_flip(5), fi::bit_flip(10),
                  fi::bit_flip(15)};
  return scale;
}

ExperimentScale scale_from_env() {
  const auto value = env_string("PROPANE_SCALE");
  if (!value) return default_scale();
  if (*value == "full" || *value == "paper") return paper_scale();
  if (*value == "small" || *value == "smoke") return smoke_scale();
  return default_scale();
}

fi::CampaignConfig make_campaign_config(const ExperimentScale& scale) {
  fi::CampaignConfig config;
  config.test_case_count =
      static_cast<std::uint32_t>(scale.test_case_count());
  config.seed = scale.seed;
  config.threads = scale.threads;
  for (fi::BusSignalId target : arr::injection_target_bus_ids()) {
    const auto plan =
        fi::cross_product_plan(target, scale.models, scale.instants);
    config.injections.insert(config.injections.end(), plan.begin(),
                             plan.end());
  }
  return config;
}

PaperExperiment run_paper_experiment(const ExperimentScale& scale) {
  core::SystemModel model = arr::make_arrestment_model();
  fi::SignalBinding binding = arr::make_arrestment_binding(model);
  std::vector<arr::TestCase> cases =
      scale.custom_cases.empty()
          ? arr::grid_test_cases(scale.mass_count, scale.velocity_count)
          : scale.custom_cases;
  fi::CampaignConfig config = make_campaign_config(scale);

  fi::CampaignResult campaign = fi::run_campaign(
      arr::batched_campaign_runner(cases, config, scale.duration), config);
  fi::EstimationResult estimation =
      fi::estimate_permeability(model, binding, campaign);
  core::AnalysisReport report = core::analyze(model, estimation.permeability);

  return PaperExperiment{scale,
                         std::move(model),
                         std::move(binding),
                         std::move(cases),
                         std::move(config),
                         std::move(campaign),
                         std::move(estimation),
                         std::move(report)};
}

TextTable table1_permeability(const PaperExperiment& experiment) {
  return table1_permeability(experiment.model, experiment.estimation);
}

TextTable table1_permeability(const core::SystemModel& model,
                              const fi::EstimationResult& estimation) {
  TextTable table({"Module", "Input -> Output", "Name", "Value", "n_inj",
                   "n_err", "95% CI", "+/-"});
  table.set_align(1, Align::kLeft);
  table.set_align(2, Align::kLeft);
  for (const fi::PairEstimate& pair : estimation.pairs) {
    if (pair.injections == 0) continue;
    const auto& info = model.module(pair.pair.module);
    const std::string symbol =
        "P^" + info.name + "(" + std::to_string(pair.pair.input + 1) + "," +
        std::to_string(pair.pair.output + 1) + ")";
    const auto ci = pair.confidence();
    std::string interval = "[";
    interval += format_double(ci.lo, 3);
    interval += ",";
    interval += format_double(ci.hi, 3);
    interval += "]";
    table.add_row({info.name, pair.input_name + " -> " + pair.output_name,
                   symbol, format_double(pair.permeability(), 3),
                   std::to_string(pair.injections),
                   std::to_string(pair.errors), interval,
                   format_double(interval_half_width(ci), 3)});
  }
  return table;
}

std::string describe(const ExperimentScale& scale) {
  const std::size_t targets = arr::injection_target_bus_ids().size();
  return "scale '" + scale.name + "': " +
         std::to_string(scale.mass_count) + "x" +
         std::to_string(scale.velocity_count) + " test cases, " +
         std::to_string(scale.models.size()) + " error models, " +
         std::to_string(scale.instants.size()) + " instants, " +
         std::to_string(targets) + " target signals => " +
         std::to_string(scale.injections_per_target()) +
         " injections/signal, " +
         std::to_string(targets * scale.injections_per_target() +
                        scale.test_case_count()) +
         " total runs (PROPANE_SCALE=full|default|small)";
}

}  // namespace propane::exp

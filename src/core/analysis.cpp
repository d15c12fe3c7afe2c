#include "core/analysis.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace propane::core {

AnalysisReport analyze(const SystemModel& model,
                       const SystemPermeability& permeability) {
  PermeabilityGraph graph(model, permeability);
  auto backtrack = build_all_backtrack_trees(model, permeability);
  auto trace = build_all_trace_trees(model, permeability);

  AnalysisReport report{{},       {},    {}, {}, std::move(graph),
                        std::move(backtrack), std::move(trace)};

  for (ModuleId m = 0; m < model.module_count(); ++m) {
    ModuleMeasures measures;
    measures.module = m;
    measures.name = model.module_name(m);
    measures.relative_permeability = permeability.relative_permeability(m);
    measures.nonweighted_permeability =
        permeability.nonweighted_relative_permeability(m);
    measures.exposure = report.graph.error_exposure(m);
    measures.nonweighted_exposure =
        report.graph.nonweighted_error_exposure(m);
    measures.incoming_arcs = report.graph.incoming_arcs(m).size();
    report.modules.push_back(std::move(measures));
  }

  report.signal_exposures =
      signal_error_exposures(model, report.backtrack_trees);
  sort_exposures(report.signal_exposures);

  for (std::uint32_t t = 0; t < report.backtrack_trees.size(); ++t) {
    const PropagationTree& tree = report.backtrack_trees[t];
    for (const PropagationPath& path : backtrack_paths(tree)) {
      RankedPath ranked;
      ranked.tree = t;
      ranked.description = format_path(model, tree, path);
      ranked.weight = path.weight;
      ranked.ends_in_feedback = path.ends_in_feedback;
      report.paths.push_back(std::move(ranked));
    }
  }
  std::stable_sort(report.paths.begin(), report.paths.end(),
                   [](const RankedPath& a, const RankedPath& b) {
                     return a.weight > b.weight;
                   });

  report.placement =
      advise_placement(model, permeability, report.graph,
                       report.backtrack_trees, report.trace_trees);
  return report;
}

TextTable module_measures_table(const AnalysisReport& report) {
  TextTable table({"Module", "P (Eq.2)", "P~ (Eq.3)", "X (Eq.4)",
                   "X~ (Eq.5)"});
  for (const ModuleMeasures& m : report.modules) {
    table.add_row({m.name, format_double(m.relative_permeability, 3),
                   format_double(m.nonweighted_permeability, 3),
                   format_probability(m.exposure),
                   m.incoming_arcs == 0
                       ? "-"
                       : format_double(m.nonweighted_exposure, 3)});
  }
  return table;
}

TextTable signal_exposure_table(const AnalysisReport& report) {
  TextTable table({"Signal", "X^S (Eq.6)"});
  for (const SignalExposure& e : report.signal_exposures) {
    if (e.signal.kind == SourceKind::kSystemInput) continue;
    table.add_row({e.name, format_double(e.exposure, 3)});
  }
  return table;
}

TextTable path_table(const AnalysisReport& report, bool nonzero_only) {
  TextTable table({"#", "Propagation path", "Weight"});
  table.set_align(1, Align::kLeft);
  std::size_t rank = 0;
  for (const RankedPath& path : report.paths) {
    if (nonzero_only && path.weight <= 0.0) continue;
    ++rank;
    table.add_row({std::to_string(rank), path.description,
                   format_double(path.weight, 3)});
  }
  return table;
}

TextTable placement_table(const PlacementAdvice& advice) {
  TextTable table({"Mechanism", "Target", "Score", "Rationale"});
  table.set_align(1, Align::kLeft);
  table.set_align(3, Align::kLeft);
  auto add = [&table](const std::vector<Recommendation>& recs) {
    for (const Recommendation& rec : recs) {
      table.add_row({to_string(rec.mechanism), rec.target_name,
                     format_double(rec.score, 3),
                     to_string(rec.rationale)});
    }
  };
  add(advice.edm_modules);
  add(advice.edm_signals);
  add(advice.erm_modules);
  add(advice.cut_signals);
  add(advice.barrier_modules);
  add(advice.input_reach_signals);
  return table;
}

}  // namespace propane::core

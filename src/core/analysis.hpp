// One-call analysis facade: given a system model and its permeability
// values, computes everything Sections 4, 5 and 8 of the paper derive --
// module measures (Table 2), signal exposures (Table 3), ranked propagation
// paths (Table 4), the permeability graph, all trees, and placement advice.
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/backtrack_tree.hpp"
#include "core/exposure.hpp"
#include "core/permeability.hpp"
#include "core/permeability_graph.hpp"
#include "core/placement.hpp"
#include "core/propagation_path.hpp"
#include "core/trace_tree.hpp"

namespace propane::core {

/// Module-level measures: Eqs. 2-5 for one module (one row of Table 2).
struct ModuleMeasures {
  ModuleId module = 0;
  std::string name;
  double relative_permeability = 0.0;      ///< P^M   (Eq. 2)
  double nonweighted_permeability = 0.0;   ///< P̄^M  (Eq. 3)
  double exposure = 0.0;                   ///< X^M   (Eq. 4); NaN if no arcs
  double nonweighted_exposure = 0.0;       ///< X̄^M  (Eq. 5)
  std::size_t incoming_arcs = 0;
};

/// A ranked propagation path (one row of Table 4).
struct RankedPath {
  std::uint32_t tree = 0;  ///< index of the backtrack tree (system output)
  std::string description;
  double weight = 0.0;
  bool ends_in_feedback = false;
};

/// The full analysis result.
struct AnalysisReport {
  std::vector<ModuleMeasures> modules;          // Table 2
  std::vector<SignalExposure> signal_exposures; // Table 3 (sorted desc)
  std::vector<RankedPath> paths;                // Table 4 (sorted desc, all)
  PlacementAdvice placement;
  PermeabilityGraph graph;
  std::vector<PropagationTree> backtrack_trees;
  std::vector<PropagationTree> trace_trees;
};

/// Runs the complete pipeline.
AnalysisReport analyze(const SystemModel& model,
                       const SystemPermeability& permeability);

/// Table renderers used by benches / examples (headers match the paper).
TextTable module_measures_table(const AnalysisReport& report);
TextTable signal_exposure_table(const AnalysisReport& report);
TextTable path_table(const AnalysisReport& report, bool nonzero_only);
TextTable placement_table(const PlacementAdvice& advice);

}  // namespace propane::core

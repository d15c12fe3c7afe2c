#include "core/permeability_graph.hpp"

#include <limits>

#include "common/contracts.hpp"

namespace propane::core {

PermeabilityGraph::PermeabilityGraph(const SystemModel& model,
                                     const SystemPermeability& permeability) {
  PROPANE_REQUIRE(model.module_count() == permeability.module_count());
  incoming_.resize(model.module_count());
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    const ModuleInfo& info = model.module(m);
    for (PortIndex i = 0; i < info.input_count(); ++i) {
      const Source& tail = model.input_source(InputRef{m, i});
      for (PortIndex k = 0; k < info.output_count(); ++k) {
        const double weight = permeability.get(m, i, k);
        const auto arc_index = static_cast<std::uint32_t>(arcs_.size());
        arcs_.push_back(PermeabilityArc{ArcId{m, i, k}, tail, weight});
        if (tail.kind == SourceKind::kModuleOutput) {
          incoming_[m].push_back(arc_index);
        }
      }
    }
  }
}

std::span<const std::uint32_t> PermeabilityGraph::incoming_arcs(
    ModuleId module) const {
  PROPANE_REQUIRE(module < incoming_.size());
  return incoming_[module];
}

double PermeabilityGraph::error_exposure(ModuleId module) const {
  const auto arcs = incoming_arcs(module);
  if (arcs.empty()) return std::numeric_limits<double>::quiet_NaN();
  return nonweighted_error_exposure(module) /
         static_cast<double>(arcs.size());
}

double PermeabilityGraph::nonweighted_error_exposure(ModuleId module) const {
  double sum = 0.0;
  for (std::uint32_t index : incoming_arcs(module)) {
    sum += arcs_[index].weight;
  }
  return sum;
}

}  // namespace propane::core

#include "core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace propane::core {

namespace {

/// Signal is "independent" when no permeability arc feeds into it: errors
/// cannot propagate *into* the signal, only originate there (OB4, mscnt).
bool signal_is_independent(const SystemModel& model,
                           const SystemPermeability& permeability,
                           const SignalRef& signal) {
  if (signal.kind != SourceKind::kModuleOutput) return false;
  const OutputRef out = signal.output;
  const ModuleInfo& info = model.module(out.module);
  for (PortIndex i = 0; i < info.input_count(); ++i) {
    if (permeability.get(out.module, i, out.port) > 0.0) return false;
  }
  return true;
}

}  // namespace

PlacementAdvice advise_placement(const SystemModel& model,
                                 const SystemPermeability& permeability,
                                 const PermeabilityGraph& graph,
                                 std::span<const PropagationTree> backtrack,
                                 std::span<const PropagationTree> trace) {
  PlacementAdvice advice;

  // --- EDM: modules ranked by non-weighted exposure (Eq. 5), tie-broken by
  // weighted exposure (Eq. 4). Modules without incoming arcs are skipped
  // (OB1: their exposure depends on external error probabilities).
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    if (graph.incoming_arcs(m).empty()) continue;
    Recommendation rec;
    rec.mechanism = MechanismKind::kErrorDetection;
    rec.target_kind = TargetKind::kModule;
    rec.module = m;
    rec.target_name = model.module_name(m);
    rec.score = graph.nonweighted_error_exposure(m);
    rec.rationale = Rationale::kHighModuleExposure;
    rec.explanation = "non-weighted error exposure " +
                      format_double(rec.score, 3) + ", exposure " +
                      format_probability(graph.error_exposure(m));
    advice.edm_modules.push_back(std::move(rec));
  }
  std::stable_sort(advice.edm_modules.begin(), advice.edm_modules.end(),
                   [&](const Recommendation& a, const Recommendation& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return graph.error_exposure(a.module) >
                            graph.error_exposure(b.module);
                   });

  // --- EDM: signals ranked by signal error exposure (Eq. 6).
  auto exposures = signal_error_exposures(model, backtrack);
  sort_exposures(exposures);
  for (const SignalExposure& e : exposures) {
    if (e.signal.kind == SourceKind::kSystemInput) continue;
    Recommendation rec;
    rec.mechanism = MechanismKind::kErrorDetection;
    rec.target_kind = TargetKind::kSignal;
    rec.signal = e.signal;
    rec.target_name = e.name;
    rec.score = e.exposure;
    rec.rationale = Rationale::kHighSignalExposure;
    rec.explanation =
        "signal error exposure " + format_double(e.exposure, 3);
    advice.edm_signals.push_back(std::move(rec));
  }

  // --- ERM: modules ranked by non-weighted relative permeability (Eq. 3).
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    Recommendation rec;
    rec.mechanism = MechanismKind::kErrorRecovery;
    rec.target_kind = TargetKind::kModule;
    rec.module = m;
    rec.target_name = model.module_name(m);
    rec.score = permeability.nonweighted_relative_permeability(m);
    rec.rationale = Rationale::kHighPermeability;
    rec.explanation =
        "non-weighted relative permeability " + format_double(rec.score, 3) +
        ", relative permeability " +
        format_double(permeability.relative_permeability(m), 3);
    advice.erm_modules.push_back(std::move(rec));
  }
  std::stable_sort(advice.erm_modules.begin(), advice.erm_modules.end(),
                   [&](const Recommendation& a, const Recommendation& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return permeability.relative_permeability(a.module) >
                            permeability.relative_permeability(b.module);
                   });

  // --- Cut signals (OB5): signals on every non-zero backtrack path.
  {
    bool first_path = true;
    std::vector<SignalRef> intersection;
    double min_weight = 1.0;
    for (const PropagationTree& tree : backtrack) {
      auto paths = nonzero_paths(backtrack_paths(tree));
      for (const PropagationPath& path : paths) {
        min_weight = std::min(min_weight, path.weight);
        auto signals = path_signals(model, tree, path);
        // Drop system inputs and the root output: a mechanism there guards
        // the boundary, not an internal cut.
        std::erase_if(signals, [&](const SignalRef& s) {
          if (s.kind == SourceKind::kSystemInput) return true;
          return model.output_is_system_output(s.output);
        });
        if (first_path) {
          intersection = std::move(signals);
          first_path = false;
        } else {
          std::erase_if(intersection, [&](const SignalRef& s) {
            return std::find(signals.begin(), signals.end(), s) ==
                   signals.end();
          });
        }
      }
    }
    if (!first_path) {
      for (const SignalRef& s : intersection) {
        Recommendation rec;
        rec.mechanism = MechanismKind::kErrorRecovery;
        rec.target_kind = TargetKind::kSignal;
        rec.signal = s;
        rec.target_name = model.signal_name(s);
        rec.score = 1.0;
        rec.rationale = Rationale::kOnAllNonzeroPaths;
        rec.explanation =
            "appears on every non-zero propagation path to the system "
            "outputs; eliminating errors here shields the output";
        advice.cut_signals.push_back(std::move(rec));
      }
    }
  }

  // --- Barrier modules (OB6): all inputs are system inputs.
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    const ModuleInfo& info = model.module(m);
    if (info.input_count() == 0) continue;
    bool all_external = true;
    for (PortIndex i = 0; i < info.input_count(); ++i) {
      if (model.input_source(InputRef{m, i}).kind !=
          SourceKind::kSystemInput) {
        all_external = false;
        break;
      }
    }
    if (!all_external) continue;
    Recommendation rec;
    rec.mechanism = MechanismKind::kErrorRecovery;
    rec.target_kind = TargetKind::kModule;
    rec.module = m;
    rec.target_name = model.module_name(m);
    rec.score = permeability.nonweighted_relative_permeability(m);
    rec.rationale = Rationale::kInputBarrier;
    rec.explanation =
        "fed only by system inputs; a recovery mechanism here forms a "
        "barrier against errors from external data sources";
    advice.barrier_modules.push_back(std::move(rec));
  }

  // --- Input-reach signals (OB4): for every internal signal, the maximum
  // path-prefix weight with which a system-input error reaches it in the
  // trace trees.
  {
    std::map<std::pair<ModuleId, PortIndex>, double> reach;
    for (const PropagationTree& tree : trace) {
      for (TreeNodeIndex n = 0; n < tree.size(); ++n) {
        const TreeNode& node = tree.node(static_cast<TreeNodeIndex>(n));
        if (node.kind != TreeNode::Kind::kOutput) continue;
        if (model.output_is_system_output(node.output)) continue;
        const auto key = std::make_pair(node.output.module, node.output.port);
        const double w = tree.path_weight_to(static_cast<TreeNodeIndex>(n));
        auto [it, inserted] = reach.emplace(key, w);
        if (!inserted) it->second = std::max(it->second, w);
      }
    }
    for (const auto& [key, weight] : reach) {
      if (weight <= 0.0) continue;
      Recommendation rec;
      rec.mechanism = MechanismKind::kErrorDetection;
      rec.target_kind = TargetKind::kSignal;
      rec.signal = SignalRef::from_output(OutputRef{key.first, key.second});
      rec.target_name = model.signal_name(rec.signal);
      rec.score = weight;
      rec.rationale = Rationale::kMostReachedFromInputs;
      rec.explanation = "reached from a system input with probability " +
                        format_double(weight, 3) +
                        " along the likeliest trace path";
      advice.input_reach_signals.push_back(std::move(rec));
    }
    std::stable_sort(
        advice.input_reach_signals.begin(), advice.input_reach_signals.end(),
        [](const Recommendation& a, const Recommendation& b) {
          return a.score > b.score;
        });
  }

  // --- Exclusions (OB4): independent signals and system-output registers.
  for (const SignalRef& signal : model.all_signals()) {
    if (signal.kind == SourceKind::kSystemInput) continue;
    if (model.output_is_system_output(signal.output)) {
      advice.exclusions.push_back(Exclusion{
          signal, model.signal_name(signal),
          "system-output hardware register; errors observed here stem from "
          "the upstream signal, instrument that instead"});
    } else if (signal_is_independent(model, permeability, signal)) {
      advice.exclusions.push_back(Exclusion{
          signal, model.signal_name(signal),
          "independent signal: no errors propagate into it, they can only "
          "originate here"});
    }
  }
  return advice;
}

const char* to_string(MechanismKind kind) {
  switch (kind) {
    case MechanismKind::kErrorDetection:
      return "EDM";
    case MechanismKind::kErrorRecovery:
      return "ERM";
  }
  return "?";
}

const char* to_string(Rationale rationale) {
  switch (rationale) {
    case Rationale::kHighModuleExposure:
      return "high module error exposure";
    case Rationale::kHighSignalExposure:
      return "high signal error exposure";
    case Rationale::kOnAllNonzeroPaths:
      return "on all non-zero propagation paths";
    case Rationale::kHighPermeability:
      return "high module permeability";
    case Rationale::kInputBarrier:
      return "barrier against external errors";
    case Rationale::kMostReachedFromInputs:
      return "most reached from system inputs";
  }
  return "?";
}

}  // namespace propane::core

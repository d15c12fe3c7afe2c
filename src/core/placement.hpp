// EDM / ERM placement guidance (Section 5 and the observations OB1-OB6 of
// Section 8).
//
// The paper's rules of thumb:
//   * EDMs pay off in modules (and signals) with high *error exposure* --
//     places that propagating errors actually visit.
//   * ERMs pay off in modules with high *error permeability* -- places that
//     would otherwise pass errors on to their successors.
// plus the qualitative heuristics exercised in the case study:
//   * signals on every non-zero propagation path are prime EDM/ERM sites
//     (OB5: SetValue and OutValue);
//   * modules fed only by system inputs form barriers against external
//     errors (OB6: DIST_S);
//   * "independent" signals -- with zero exposure, like mscnt -- are poor
//     sites (OB4), as are system-output hardware registers (TOC2).
#pragma once

#include <string>
#include <vector>

#include "core/exposure.hpp"
#include "core/permeability.hpp"
#include "core/permeability_graph.hpp"
#include "core/propagation_path.hpp"
#include "core/propagation_tree.hpp"
#include "core/system_model.hpp"

namespace propane::core {

/// What a recommendation suggests installing.
enum class MechanismKind : std::uint8_t {
  kErrorDetection,  ///< EDM: executable assertion / check
  kErrorRecovery,   ///< ERM: correction / containment wrapper
};

/// Where a recommendation points.
enum class TargetKind : std::uint8_t { kModule, kSignal };

/// Why a recommendation was made (mirrors the paper's arguments).
enum class Rationale : std::uint8_t {
  kHighModuleExposure,     ///< OB1: high X̄ -> EDM site
  kHighSignalExposure,     ///< Table 3 ranking -> EDM site
  kOnAllNonzeroPaths,      ///< OB5: cut signal, eliminates all output errors
  kHighPermeability,       ///< rule of thumb: high P̄ -> ERM site
  kInputBarrier,           ///< OB6: module fed only by system inputs
  kMostReachedFromInputs,  ///< OB4: pulscnt-like, likeliest hit by input errors
};

/// One placement recommendation.
struct Recommendation {
  MechanismKind mechanism = MechanismKind::kErrorDetection;
  TargetKind target_kind = TargetKind::kModule;
  ModuleId module = 0;        ///< valid when target_kind == kModule
  SignalRef signal;           ///< valid when target_kind == kSignal
  std::string target_name;
  double score = 0.0;
  Rationale rationale = Rationale::kHighModuleExposure;
  std::string explanation;
};

/// Signals the advisor warns against instrumenting, with the reason
/// (OB4: independent signals, downstream hardware registers).
struct Exclusion {
  SignalRef signal;
  std::string name;
  std::string reason;
};

struct PlacementAdvice {
  /// EDM candidates: modules ranked by non-weighted exposure (Eq. 5),
  /// ties broken by weighted exposure (Eq. 4).
  std::vector<Recommendation> edm_modules;
  /// EDM candidates: signals ranked by signal exposure (Eq. 6).
  std::vector<Recommendation> edm_signals;
  /// ERM candidates: modules ranked by non-weighted relative permeability
  /// (Eq. 3), ties broken by relative permeability (Eq. 2).
  std::vector<Recommendation> erm_modules;
  /// Signals on *every* non-zero backtrack path (OB5).
  std::vector<Recommendation> cut_signals;
  /// Barrier modules fed exclusively by system inputs (OB6).
  std::vector<Recommendation> barrier_modules;
  /// Signal most likely reached by system-input errors (OB4, "pulscnt").
  std::vector<Recommendation> input_reach_signals;
  /// Signals the paper would not instrument, with reasons (OB4).
  std::vector<Exclusion> exclusions;
};

/// Runs the full Section-5 analysis. `backtrack` and `trace` are the trees
/// from build_all_backtrack_trees / build_all_trace_trees.
PlacementAdvice advise_placement(const SystemModel& model,
                                 const SystemPermeability& permeability,
                                 const PermeabilityGraph& graph,
                                 std::span<const PropagationTree> backtrack,
                                 std::span<const PropagationTree> trace);

const char* to_string(MechanismKind kind);
const char* to_string(Rationale rationale);

}  // namespace propane::core

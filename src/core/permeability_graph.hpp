// Permeability graph (Section 4.2, Figs. 3 and 9) and the module-level
// error-exposure measures derived from it (Section 5, Eqs. 4 and 5).
//
// Nodes are modules. For every input/output pair (i, k) of a module M there
// is one arc whose weight is P^M_{i,k}; the arc's tail is whatever drives
// input i (a module output or a system input). "There may be more arcs
// between two nodes than there are signals between the corresponding
// modules" -- each pair contributes its own arc. Zero-weight arcs stay in the
// graph: the paper omits them only from the drawing, and Eq. 4 divides by
// the number of incoming arcs.
//
// Error exposure only counts arcs originating from module outputs: modules
// fed exclusively by system inputs "have no error exposure values" (OB1);
// their exposure depends on the external error-occurrence probabilities,
// which the framework deliberately does not model.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/permeability.hpp"
#include "core/system_model.hpp"

namespace propane::core {

/// Identity of a permeability value: the (module, input, output) pair it
/// belongs to. Used to deduplicate arcs in Eq. 6 (signal error exposure).
struct ArcId {
  ModuleId module = 0;
  PortIndex input = 0;
  PortIndex output = 0;

  friend bool operator==(const ArcId&, const ArcId&) = default;
  friend auto operator<=>(const ArcId&, const ArcId&) = default;
};

/// One arc of the permeability graph.
struct PermeabilityArc {
  ArcId id;       ///< pair (i, k) of the target module
  Source tail;    ///< what drives input i
  double weight;  ///< P^M_{i,k}

  /// True when the arc originates from a module output (is internal to the
  /// system); only these count towards error exposure.
  bool internal() const { return tail.kind == SourceKind::kModuleOutput; }
  /// True when the arc is a self-loop (module feeds itself).
  bool self_loop() const {
    return internal() && tail.output.module == id.module;
  }
};

class PermeabilityGraph {
 public:
  PermeabilityGraph(const SystemModel& model,
                    const SystemPermeability& permeability);

  std::span<const PermeabilityArc> arcs() const { return arcs_; }

  /// Indices into arcs() of the internal arcs whose target is `module`.
  std::span<const std::uint32_t> incoming_arcs(ModuleId module) const;

  /// Eq. 4: mean weight of all incoming (internal) arcs of the module;
  /// NaN when the module has no incoming arcs (cf. OB1).
  double error_exposure(ModuleId module) const;

  /// Eq. 5: sum of weights of all incoming (internal) arcs of the module.
  double nonweighted_error_exposure(ModuleId module) const;

  std::size_t module_count() const { return incoming_.size(); }

 private:
  std::vector<PermeabilityArc> arcs_;
  std::vector<std::vector<std::uint32_t>> incoming_;  // per module
};

}  // namespace propane::core

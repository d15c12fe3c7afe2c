// Output Error Tracing (Section 4.2, steps A1-A4; Figs. 4 and 10).
//
// A backtrack tree is rooted at a system output and grown towards the
// system inputs: from an output node k of module M, one child is generated
// per input i of M with the permeability edge P^M_{i,k}; from an input node
// the tree follows the driving signal backwards (weight-1 edge) to the
// producing output, unless that input is a system input (leaf) or its driver
// is an output already on the path (broken feedback leaf, drawn with a
// double line in the paper).
#pragma once

#include <vector>

#include "core/permeability.hpp"
#include "core/propagation_tree.hpp"
#include "core/system_model.hpp"

namespace propane::core {

/// Builds the backtrack tree for system output `system_output` (step A1).
PropagationTree build_backtrack_tree(const SystemModel& model,
                                     const SystemPermeability& permeability,
                                     std::uint32_t system_output);

/// Builds one backtrack tree per system output (step A4).
std::vector<PropagationTree> build_all_backtrack_trees(
    const SystemModel& model, const SystemPermeability& permeability);

}  // namespace propane::core

// Input Error Tracing (Section 4.2, steps B1-B4; Figs. 5, 11 and 12).
//
// A trace tree is rooted at a system input and grown towards the system
// outputs: from an input node i of module M, one child is generated per
// output k of M with the permeability edge P^M_{i,k}; from an output node
// the tree follows the signal forwards (weight-1 edges) to every consuming
// input. An output feeding a system output is marked as such (a leaf in the
// paper's single-consumer systems). Feedback is followed once: an output
// endpoint already on the path is omitted from the children (step B3,
// Fig. 12).
#pragma once

#include <vector>

#include "core/permeability.hpp"
#include "core/propagation_tree.hpp"
#include "core/system_model.hpp"

namespace propane::core {

/// Builds the trace tree for system input `system_input` (step B1).
PropagationTree build_trace_tree(const SystemModel& model,
                                 const SystemPermeability& permeability,
                                 std::uint32_t system_input);

/// Builds one trace tree per system input (step B4).
std::vector<PropagationTree> build_all_trace_trees(
    const SystemModel& model, const SystemPermeability& permeability);

}  // namespace propane::core

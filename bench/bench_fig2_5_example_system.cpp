// Regenerates Figs. 2-5: the five-module example system of Section 4.2 --
// its wiring (Fig. 2), permeability graph (Fig. 3), the backtrack tree of
// O^E_1 (Fig. 4) and the trace tree of I^A_1 (Fig. 5), including the
// Section 4.2 worked path O^E1 <- I^E1 <- O^B2 <- I^B1 <- O^A1 <- I^A1
// with weight P^E_{1,1} * P^B_{1,2} * P^A_{1,1}.
#include <cstdio>

#include "core/analysis.hpp"
#include "core/ascii_tree.hpp"
#include "core/dot.hpp"
#include "core/example_system.hpp"

int main() {
  using namespace propane;
  std::puts("=== Figs. 2-5: the example system of Section 4.2 ===\n");
  const auto model = core::make_example_system();
  const auto permeability = core::make_example_permeability(model);
  const auto report = core::analyze(model, permeability);

  std::puts("Fig. 2 -- system wiring (DOT):");
  std::puts(core::to_dot(model).c_str());

  std::puts("Fig. 3 -- permeability graph (DOT):");
  std::puts(core::to_dot(model, report.graph).c_str());

  std::puts("Fig. 4 -- backtrack tree of the system output:");
  std::puts(core::render_ascii_tree(model, report.backtrack_trees[0],
                                    {.show_arcs = true})
                .c_str());

  std::puts("Fig. 5 -- trace tree of system input IA1:");
  std::puts(core::render_ascii_tree(model, report.trace_trees[0]).c_str());

  std::puts("Ranked backtrack paths (the Section 4.2 walk is #1):");
  std::puts(core::path_table(report, /*nonzero_only=*/false)
                .render()
                .c_str());

  std::puts("Module measures for the example:");
  std::puts(core::module_measures_table(report).render().c_str());

  std::puts("Placement advice for the example:");
  std::puts(core::placement_table(report.placement).render().c_str());
  return 0;
}

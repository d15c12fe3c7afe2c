// Regenerates Fig. 10: the backtrack tree of system output TOC2, with the
// measured permeability value on every permeability edge and the broken
// feedback leaves (ms_slot_nbr and i) marked.
#include <cstdio>

#include "bench_util.hpp"
#include "core/ascii_tree.hpp"
#include "core/dot.hpp"

int main() {
  using namespace propane;
  auto scale = exp::scale_from_env();
  bench::banner("Fig. 10: backtrack tree of system output TOC2", scale);
  const auto experiment = bench::timed_experiment(scale);
  const auto& tree = experiment.report.backtrack_trees[0];

  std::puts(core::render_ascii_tree(experiment.model, tree,
                                    {.show_arcs = true})
                .c_str());
  std::printf("nodes: %zu, leaves: %zu (22 root-to-leaf paths in the "
              "paper)\n\n",
              tree.size(), tree.leaves().size());

  std::puts("Graphviz DOT:");
  std::puts(core::to_dot(experiment.model, tree,
                         "Backtrack tree of system output TOC2 (Fig. 10)")
                .c_str());
  return 0;
}

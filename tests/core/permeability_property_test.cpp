// Property-based tests over randomly generated systems: structural and
// numeric invariants of the analysis framework that must hold for *any*
// model, not just the worked examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/analysis.hpp"
#include "core/backtrack_tree.hpp"
#include "core/example_system.hpp"
#include "core/trace_tree.hpp"

namespace propane::core {
namespace {

struct RandomSystem {
  SystemModel model;
  SystemPermeability permeability;
};

/// Generates a random layered system: modules in layers, inputs drawn from
/// earlier layers or system inputs, optional self-loop feedback, random
/// permeabilities. Guaranteed valid (all inputs driven, >=1 system output).
RandomSystem make_random_system(std::uint64_t seed) {
  Rng rng(seed);
  SystemModelBuilder builder;

  const std::size_t layers = 2 + rng.bounded(3);         // 2..4
  const std::size_t per_layer = 1 + rng.bounded(3);      // 1..3
  const std::size_t n_system_inputs = 1 + rng.bounded(3);

  for (std::size_t s = 0; s < n_system_inputs; ++s) {
    builder.add_system_input("sys_in" + std::to_string(s));
  }

  struct ModulePorts {
    std::string name;
    std::size_t outputs;
  };
  std::vector<std::vector<ModulePorts>> layout(layers);
  std::size_t counter = 0;
  for (std::size_t l = 0; l < layers; ++l) {
    const std::size_t modules_here = (l == layers - 1) ? 1 : per_layer;
    for (std::size_t j = 0; j < modules_here; ++j) {
      ModulePorts ports;
      ports.name = "M";
      ports.name += std::to_string(counter++);
      ports.outputs = 1 + rng.bounded(2);
      const std::size_t inputs = 1 + rng.bounded(3);
      std::vector<std::string> in_names;
      std::vector<std::string> out_names;
      for (std::size_t i = 0; i < inputs; ++i) {
        in_names.push_back(ports.name + "_in" + std::to_string(i));
      }
      for (std::size_t k = 0; k < ports.outputs; ++k) {
        out_names.push_back(ports.name + "_out" + std::to_string(k));
      }
      builder.add_module(ports.name, in_names, out_names);
      layout[l].push_back(ports);

      // Wire the inputs: layer 0 takes system inputs; later layers draw
      // from any earlier layer (or a system input, or a self loop).
      for (std::size_t i = 0; i < inputs; ++i) {
        const std::string in_name = ports.name + "_in" + std::to_string(i);
        const bool use_system = (l == 0) || rng.bernoulli(0.25);
        if (use_system) {
          const auto s = rng.bounded(n_system_inputs);
          builder.connect_system_input("sys_in" + std::to_string(s),
                                       ports.name, in_name);
        } else if (rng.bernoulli(0.2)) {
          // Self loop.
          const auto k = rng.bounded(ports.outputs);
          builder.connect(ports.name, ports.name + "_out" + std::to_string(k),
                          ports.name, in_name);
        } else {
          const auto src_layer = rng.bounded(l);
          const auto& candidates = layout[src_layer];
          const auto& src = candidates[rng.bounded(candidates.size())];
          const auto k = rng.bounded(src.outputs);
          builder.connect(src.name, src.name + "_out" + std::to_string(k),
                          ports.name, in_name);
        }
      }
    }
  }
  const auto& last = layout.back().front();
  builder.add_system_output("sys_out", last.name, last.name + "_out0");

  SystemModel model = std::move(builder).build();
  SystemPermeability permeability(model);
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    for (PortIndex i = 0; i < model.module(m).input_count(); ++i) {
      for (PortIndex k = 0; k < model.module(m).output_count(); ++k) {
        // Mix of zeros and positive values.
        const double p = rng.bernoulli(0.3) ? 0.0 : rng.uniform01();
        permeability.set(m, i, k, p);
      }
    }
  }
  return RandomSystem{std::move(model), std::move(permeability)};
}

class RandomSystemProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomSystemProperty, RelativePermeabilityIsMeanOfNonweighted) {
  const auto sys = make_random_system(GetParam());
  for (ModuleId m = 0; m < sys.model.module_count(); ++m) {
    const auto pairs = sys.model.module(m).input_count() *
                       sys.model.module(m).output_count();
    EXPECT_NEAR(sys.permeability.relative_permeability(m),
                sys.permeability.nonweighted_relative_permeability(m) /
                    static_cast<double>(pairs),
                1e-12);
    EXPECT_GE(sys.permeability.relative_permeability(m), 0.0);
    EXPECT_LE(sys.permeability.relative_permeability(m), 1.0);
    EXPECT_LE(sys.permeability.nonweighted_relative_permeability(m),
              static_cast<double>(pairs));
  }
}

TEST_P(RandomSystemProperty, ExposureBounds) {
  const auto sys = make_random_system(GetParam());
  const PermeabilityGraph graph(sys.model, sys.permeability);
  for (ModuleId m = 0; m < sys.model.module_count(); ++m) {
    const auto n = graph.incoming_arcs(m).size();
    const double x = graph.error_exposure(m);
    if (n == 0) {
      EXPECT_TRUE(std::isnan(x));
    } else {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 1.0);  // mean of probabilities
      EXPECT_LE(graph.nonweighted_error_exposure(m),
                static_cast<double>(n) + 1e-12);
    }
  }
}

TEST_P(RandomSystemProperty, BacktrackTreeLeavesAreBoundaries) {
  const auto sys = make_random_system(GetParam());
  const PropagationTree tree =
      build_backtrack_tree(sys.model, sys.permeability, 0);
  for (TreeNodeIndex leaf : tree.leaves()) {
    const TreeNode& n = tree.node(leaf);
    EXPECT_TRUE(n.is_system_input || n.feedback_break);
  }
}

TEST_P(RandomSystemProperty, PathWeightsAreProbabilities) {
  const auto sys = make_random_system(GetParam());
  const PropagationTree tree =
      build_backtrack_tree(sys.model, sys.permeability, 0);
  for (const PropagationPath& path : backtrack_paths(tree)) {
    EXPECT_GE(path.weight, 0.0);
    EXPECT_LE(path.weight, 1.0);
  }
}

TEST_P(RandomSystemProperty, NoOutputEndpointRepeatsOnAnyRootPath) {
  const auto sys = make_random_system(GetParam());
  for (const PropagationTree& tree :
       build_all_trace_trees(sys.model, sys.permeability)) {
    for (TreeNodeIndex i = 0; i < tree.size(); ++i) {
      const TreeNode& node = tree.node(i);
      if (node.kind != TreeNode::Kind::kOutput) continue;
      std::size_t count = 0;
      for (TreeNodeIndex at = i; at != kNoNode; at = tree.node(at).parent) {
        const TreeNode& anc = tree.node(at);
        if (anc.kind == TreeNode::Kind::kOutput &&
            anc.output == node.output) {
          ++count;
        }
      }
      ASSERT_EQ(count, 1u);
    }
  }
}

TEST_P(RandomSystemProperty, SignalExposureBoundedByProducerColumnSum) {
  // X^S sums a subset (deduped) of the permeabilities P^M_{., k} of the
  // producing output; it can never exceed the full column sum.
  const auto sys = make_random_system(GetParam());
  const auto trees = build_all_backtrack_trees(sys.model, sys.permeability);
  for (const SignalExposure& e :
       signal_error_exposures(sys.model, trees)) {
    if (e.signal.kind != SourceKind::kModuleOutput) continue;
    const OutputRef out = e.signal.output;
    double column_sum = 0.0;
    for (PortIndex i = 0; i < sys.model.module(out.module).input_count();
         ++i) {
      column_sum += sys.permeability.get(out.module, i, out.port);
    }
    EXPECT_LE(e.exposure, column_sum + 1e-12);
    EXPECT_GE(e.exposure, 0.0);
  }
}

TEST_P(RandomSystemProperty, AnalyzeRunsEndToEnd) {
  const auto sys = make_random_system(GetParam());
  const AnalysisReport report = analyze(sys.model, sys.permeability);
  EXPECT_EQ(report.modules.size(), sys.model.module_count());
  EXPECT_FALSE(report.paths.empty());
  // Rendering never throws.
  (void)module_measures_table(report);
  (void)signal_exposure_table(report);
  (void)path_table(report, true);
  (void)placement_table(report.placement);
}

TEST_P(RandomSystemProperty, PruningNeverChangesNonzeroPathWeights) {
  // Pruning the zero edges of a tree keeps exactly the paths whose every
  // edge is non-zero. Those must be the tree's non-zero paths, in the same
  // order and with the same weights, so keeping zero edges (as the paper
  // does) only adds zero paths.
  const auto sys = make_random_system(GetParam());
  const PropagationTree tree =
      build_backtrack_tree(sys.model, sys.permeability, 0);
  const auto paths = backtrack_paths(tree);
  std::vector<double> pruned_weights;
  for (const PropagationPath& path : paths) {
    double product = 1.0;
    bool all_nonzero = true;
    for (const TreeNodeIndex n : path.nodes) {
      product *= tree.node(n).edge_weight;
      all_nonzero = all_nonzero && tree.node(n).edge_weight != 0.0;
    }
    EXPECT_NEAR(path.weight, product, 1e-12);
    if (all_nonzero) pruned_weights.push_back(product);
  }
  const auto nonzero = nonzero_paths(paths);
  ASSERT_EQ(nonzero.size(), pruned_weights.size());
  for (std::size_t i = 0; i < nonzero.size(); ++i) {
    EXPECT_NEAR(nonzero[i].weight, pruned_weights[i], 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystemProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

}  // namespace
}  // namespace propane::core

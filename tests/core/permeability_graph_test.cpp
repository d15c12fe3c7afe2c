#include "core/permeability_graph.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/example_system.hpp"

namespace propane::core {
namespace {

class PermeabilityGraphTest : public ::testing::Test {
 protected:
  SystemModel model_ = make_example_system();
  SystemPermeability perm_ = make_example_permeability(model_);
};

TEST_F(PermeabilityGraphTest, OneArcPerIoPair) {
  const PermeabilityGraph graph(model_, perm_);
  EXPECT_EQ(graph.arcs().size(), model_.io_pair_count());
}

TEST_F(PermeabilityGraphTest, IncomingArcsOnlyCountInternalSources) {
  const PermeabilityGraph graph(model_, perm_);
  // A and C are fed only by system inputs: no incoming arcs (OB1).
  EXPECT_TRUE(graph.incoming_arcs(*model_.find_module("A")).empty());
  EXPECT_TRUE(graph.incoming_arcs(*model_.find_module("C")).empty());
  // B has 4 incoming arcs: both inputs internal, 2 outputs each.
  EXPECT_EQ(graph.incoming_arcs(*model_.find_module("B")).size(), 4u);
  // E has 2 incoming arcs: e1, e2 internal; e3 is a system input.
  EXPECT_EQ(graph.incoming_arcs(*model_.find_module("E")).size(), 2u);
}

TEST_F(PermeabilityGraphTest, ExposureEq4IsMeanOfIncomingWeights) {
  const PermeabilityGraph graph(model_, perm_);
  const ModuleId b = *model_.find_module("B");
  EXPECT_DOUBLE_EQ(graph.error_exposure(b), 0.5);  // (0.5+0.8+0.3+0.4)/4
  const ModuleId e = *model_.find_module("E");
  EXPECT_DOUBLE_EQ(graph.error_exposure(e), 0.625);  // (0.75+0.5)/2
  const ModuleId d = *model_.find_module("D");
  EXPECT_DOUBLE_EQ(graph.error_exposure(d), 0.4);  // (0.6+0.2)/2
}

TEST_F(PermeabilityGraphTest, NonweightedExposureEq5IsSum) {
  const PermeabilityGraph graph(model_, perm_);
  EXPECT_DOUBLE_EQ(
      graph.nonweighted_error_exposure(*model_.find_module("B")), 2.0);
  EXPECT_DOUBLE_EQ(
      graph.nonweighted_error_exposure(*model_.find_module("E")), 1.25);
  EXPECT_DOUBLE_EQ(
      graph.nonweighted_error_exposure(*model_.find_module("A")), 0.0);
}

TEST_F(PermeabilityGraphTest, ExposureOfExternallyFedModuleIsNaN) {
  const PermeabilityGraph graph(model_, perm_);
  EXPECT_TRUE(std::isnan(graph.error_exposure(*model_.find_module("A"))));
  EXPECT_TRUE(std::isnan(graph.error_exposure(*model_.find_module("C"))));
}

TEST_F(PermeabilityGraphTest, SelfLoopDetection) {
  const PermeabilityGraph graph(model_, perm_);
  const ModuleId b = *model_.find_module("B");
  std::size_t self_loops = 0;
  for (const PermeabilityArc& arc : graph.arcs()) {
    if (arc.self_loop()) {
      ++self_loops;
      EXPECT_EQ(arc.id.module, b);
      EXPECT_EQ(arc.id.input, 1u);  // b2, the feedback input
    }
  }
  EXPECT_EQ(self_loops, 2u);  // (b2 -> ob1), (b2 -> ob2)
}

TEST_F(PermeabilityGraphTest, ArcWeightsMatchPermeability) {
  const PermeabilityGraph graph(model_, perm_);
  for (const PermeabilityArc& arc : graph.arcs()) {
    EXPECT_DOUBLE_EQ(arc.weight,
                     perm_.get(arc.id.module, arc.id.input, arc.id.output));
  }
}

TEST_F(PermeabilityGraphTest, ArcTailMatchesModelWiring) {
  const PermeabilityGraph graph(model_, perm_);
  for (const PermeabilityArc& arc : graph.arcs()) {
    const Source& src =
        model_.input_source(InputRef{arc.id.module, arc.id.input});
    EXPECT_EQ(arc.tail, src);
  }
}

TEST_F(PermeabilityGraphTest, DroppingZeroArcsChangesMeanExposure) {
  // A module with permeabilities {0.8, 0.0} has mean exposure 0.4; had the
  // zero arc been dropped, it would read 0.8. Eq. 4's denominator is the
  // arc count, which is why the graph keeps zero arcs.
  SystemModelBuilder builder;
  builder.add_module("SRC", {}, {"s"});
  builder.add_module("M", {"i"}, {"o1", "o2"});
  builder.connect("SRC", "s", "M", "i");
  builder.add_system_output("o", "M", "o1");
  const SystemModel model = std::move(builder).build();
  SystemPermeability p(model);
  p.set(model, "M", "i", "o1", 0.8);

  const ModuleId m = *model.find_module("M");
  const PermeabilityGraph graph(model, p);
  ASSERT_EQ(graph.incoming_arcs(m).size(), 2u);
  std::size_t nonzero_arcs = 0;
  for (const std::uint32_t arc : graph.incoming_arcs(m)) {
    nonzero_arcs += graph.arcs()[arc].weight != 0.0;
  }
  EXPECT_EQ(nonzero_arcs, 1u);
  EXPECT_DOUBLE_EQ(graph.error_exposure(m), 0.4);
  EXPECT_DOUBLE_EQ(graph.nonweighted_error_exposure(m), 0.8);
  EXPECT_DOUBLE_EQ(graph.nonweighted_error_exposure(m) /
                       static_cast<double>(nonzero_arcs),
                   0.8);
}

}  // namespace
}  // namespace propane::core

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "common/strings.hpp"
#include "core/dot.hpp"
#include "core/permeability.hpp"
#include "core/permeability_graph.hpp"
#include "exp/report/bootstrap_report.hpp"

namespace propane::exp {

namespace {

/// White -> orange fill interpolated by p in [0,1]; deterministic hex.
std::string confidence_fill(double p) {
  p = std::clamp(p, 0.0, 1.0);
  const int r = 255;
  const int g = 255 - static_cast<int>(p * (255 - 165));
  const int b = 255 - static_cast<int>(p * 255);
  char buffer[8];
  std::snprintf(buffer, sizeof(buffer), "#%02X%02X%02X", r, g, b);
  return buffer;
}

std::string band_label(const fi::BootstrapBand& band) {
  return format_double(band.band.p50, 3) + " [" +
         format_double(band.band.p2_5, 3) + "," +
         format_double(band.band.p97_5, 3) + "]";
}

}  // namespace

std::string bootstrap_confidence_dot(const core::SystemModel& model,
                                     const fi::BootstrapResult& result) {
  // Rebuild the permeability graph from the point estimates so the arc set
  // (including never-injected zero arcs) matches `campaign graph` output.
  core::SystemPermeability permeability(model);
  std::map<core::ArcId, const fi::PairCloud*> clouds;
  for (const fi::PairCloud& cloud : result.pairs) {
    permeability.set(cloud.pair.module, cloud.pair.input, cloud.pair.output,
                     cloud.permeability.point);
    clouds.emplace(cloud.pair, &cloud);
  }
  const core::PermeabilityGraph graph(model, permeability);

  std::string out = "digraph bootstrap_confidence {\n  rankdir=LR;\n";
  out += "  node [shape=circle,style=filled];\n";
  out += "  label=\"bootstrap confidence: " +
         std::to_string(result.replicates) + " replicates, seed " +
         std::to_string(result.seed) + ", labels are median [2.5%,97.5%]\";\n";
  for (core::ModuleId m = 0; m < model.module_count(); ++m) {
    const fi::ModuleCloud& cloud = result.modules[m];
    std::string label =
        core::dot_escape(cloud.name) + "\\nX~ " +
        core::dot_escape(band_label(cloud.nonweighted_exposure)) +
        "\\nP(EDM top-1) " + format_double(cloud.p_top1_exposure, 2) +
        "\\nP(ERM top-1) " + format_double(cloud.p_top1_permeability, 2);
    out += "  m" + std::to_string(m) + " [label=\"" + label +
           "\",fillcolor=\"" + confidence_fill(cloud.p_top1_exposure) +
           "\"];\n";
  }
  std::size_t next_terminal = 0;
  for (const core::PermeabilityArc& arc : graph.arcs()) {
    const core::ModuleInfo& info = model.module(arc.id.module);
    const auto cloud = clouds.find(arc.id);
    std::string label = core::dot_escape(info.input_names[arc.id.input] +
                                         "->" +
                                         info.output_names[arc.id.output]) +
                        " = ";
    bool dashed = false;
    if (cloud == clouds.end()) {
      label += "n/a (no injections)";
      dashed = true;
    } else {
      label += core::dot_escape(band_label(cloud->second->permeability));
      dashed = cloud->second->permeability.band.p97_5 == 0.0;
    }
    std::string tail;
    if (arc.internal()) {
      tail = "m";
      tail += std::to_string(arc.tail.output.module);
    } else {
      tail = "ext";
      tail += std::to_string(next_terminal++);
      out += "  " + tail + " [shape=plaintext,style=\"\",label=\"" +
             core::dot_escape(model.system_input_name(arc.tail.system_input)) +
             "\"];\n";
    }
    out += "  " + tail + " -> m" + std::to_string(arc.id.module) +
           " [label=\"" + label + "\"" + (dashed ? ",style=dashed" : "") +
           "];\n";
  }
  out += "}\n";
  return out;
}

}  // namespace propane::exp

#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/contracts.hpp"
#include "exp/report/bootstrap_report.hpp"
#include "obs/ndjson.hpp"

namespace propane::exp {

namespace {

/// Fixed shortest-ish round-trip formatting ("%.10g", locale-free); the
/// same double always renders to the same bytes. Non-finite values become
/// null -- a bootstrap band must never leak NaN into consumers.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.10g", value);
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  out += obs::json_escape(text);
  out += '"';
  return out;
}

std::string band_json(const fi::BootstrapBand& band) {
  std::string out = "{";
  out += "\"point\":" + json_number(band.point);
  out += ",\"mean\":" + json_number(band.band.mean);
  out += ",\"stddev\":" + json_number(band.band.stddev);
  out += ",\"p2_5\":" + json_number(band.band.p2_5);
  out += ",\"p25\":" + json_number(band.band.p25);
  out += ",\"p50\":" + json_number(band.band.p50);
  out += ",\"p75\":" + json_number(band.band.p75);
  out += ",\"p97_5\":" + json_number(band.band.p97_5);
  out += "}";
  return out;
}

}  // namespace

std::string bootstrap_summary_json(const fi::BootstrapResult& result) {
  std::string out = "{\n";
  out += "  \"schema\": \"propane.bootstrap.v1\",\n";
  out += "  \"replicates\": " + std::to_string(result.replicates) + ",\n";
  out += "  \"seed\": " + std::to_string(result.seed) + ",\n";
  out += "  \"top_k\": " + std::to_string(result.top_k) + ",\n";
  out += "  \"records\": " + std::to_string(result.record_count) + ",\n";
  out += "  \"cells\": " + std::to_string(result.cell_count) + ",\n";
  // Section 7.3: permeability counts direct errors only.
  out += "  \"direct_only\": true,\n";

  out += "  \"placement\": {\"edm\": {\"module\": " +
         json_string(result.edm_module) +
         ", \"p_top1\": " + json_number(result.edm_p_top1) +
         "}, \"erm\": {\"module\": " + json_string(result.erm_module) +
         ", \"p_top1\": " + json_number(result.erm_p_top1) + "}},\n";

  out += "  \"permeability\": [\n";
  for (std::size_t i = 0; i < result.pairs.size(); ++i) {
    const fi::PairCloud& p = result.pairs[i];
    out += "    {\"module\": " + json_string(p.module_name) +
           ", \"input\": " + json_string(p.input_name) +
           ", \"output\": " + json_string(p.output_name) +
           ", \"injections\": " + std::to_string(p.injections) +
           ", \"errors\": " + std::to_string(p.errors) +
           ", \"permeability\": " + band_json(p.permeability) + "}";
    out += (i + 1 < result.pairs.size()) ? ",\n" : "\n";
  }
  out += "  ],\n";

  out += "  \"modules\": [\n";
  for (std::size_t i = 0; i < result.modules.size(); ++i) {
    const fi::ModuleCloud& m = result.modules[i];
    out += "    {\"module\": " + json_string(m.name) +
           ", \"incoming_arcs\": " + std::to_string(m.incoming_arcs) +
           ", \"relative_permeability\": " +
           band_json(m.relative_permeability) +
           ", \"nonweighted_permeability\": " +
           band_json(m.nonweighted_permeability) + ", \"exposure\": " +
           (m.incoming_arcs == 0 ? std::string("null")
                                 : band_json(m.exposure)) +
           ", \"nonweighted_exposure\": " +
           band_json(m.nonweighted_exposure) +
           ", \"p_top1_exposure\": " + json_number(m.p_top1_exposure) +
           ", \"p_top_k_exposure\": " + json_number(m.p_topk_exposure) +
           ", \"p_top1_permeability\": " +
           json_number(m.p_top1_permeability) +
           ", \"p_top_k_permeability\": " +
           json_number(m.p_topk_permeability) + "}";
    out += (i + 1 < result.modules.size()) ? ",\n" : "\n";
  }
  out += "  ],\n";

  out += "  \"signals\": [\n";
  for (std::size_t i = 0; i < result.signals.size(); ++i) {
    const fi::SignalCloud& s = result.signals[i];
    out += "    {\"signal\": " + json_string(s.name) +
           ", \"exposure\": " + band_json(s.exposure) +
           ", \"p_top1\": " + json_number(s.p_top1) +
           ", \"p_top_k\": " + json_number(s.p_topk) + "}";
    out += (i + 1 < result.signals.size()) ? ",\n" : "\n";
  }
  out += "  ],\n";

  out += "  \"paths\": [\n";
  for (std::size_t i = 0; i < result.paths.size(); ++i) {
    const fi::PathCloud& p = result.paths[i];
    out += "    {\"rank\": " + std::to_string(i + 1) +
           ", \"tree\": " + std::to_string(p.tree) +
           ", \"path\": " + json_string(p.description) +
           ", \"ends_in_feedback\": " +
           (p.ends_in_feedback ? "true" : "false") +
           ", \"weight\": " + band_json(p.weight) +
           ", \"p_top1\": " + json_number(p.p_top1) +
           ", \"p_top_k\": " + json_number(p.p_topk) + "}";
    out += (i + 1 < result.paths.size()) ? ",\n" : "\n";
  }
  out += "  ],\n";

  out += "  \"convergence\": [\n";
  for (std::size_t i = 0; i < result.convergence.size(); ++i) {
    const fi::ConvergencePoint& cp = result.convergence[i];
    out += "    {\"fraction\": " + json_number(cp.fraction) +
           ", \"draws\": " + std::to_string(cp.draws) + ", \"modules\": [";
    for (std::size_t m = 0; m < cp.module_exposure.size(); ++m) {
      if (m > 0) out += ", ";
      out += "{\"module\": " + json_string(result.module_names[m]) +
             ", \"nonweighted_exposure\": " +
             band_json(cp.module_exposure[m]) +
             ", \"p_top1\": " + json_number(cp.module_p_top1[m]) + "}";
    }
    out += "]}";
    out += (i + 1 < result.convergence.size()) ? ",\n" : "\n";
  }
  out += "  ]\n";
  out += "}\n";
  return out;
}

BootstrapArtifactPaths write_bootstrap_artifacts(
    const std::filesystem::path& dir, const core::SystemModel& model,
    const fi::BootstrapResult& result) {
  std::filesystem::create_directories(dir);
  BootstrapArtifactPaths paths{dir / "summary.json", dir / "bands.svg",
                               dir / "confidence.dot"};
  const auto write = [](const std::filesystem::path& path,
                        const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    PROPANE_REQUIRE_MSG(out.good(),
                        "cannot write bootstrap artifact: " + path.string());
    out << content;
    PROPANE_REQUIRE_MSG(out.good(),
                        "short write on bootstrap artifact: " + path.string());
  };
  write(paths.json, bootstrap_summary_json(result));
  write(paths.svg, bootstrap_bands_svg(result));
  write(paths.dot, bootstrap_confidence_dot(model, result));
  return paths;
}

}  // namespace propane::exp

#include "core/report_writer.hpp"

#include <ostream>

#include "core/ascii_tree.hpp"

namespace propane::core {

void write_markdown_report(std::ostream& out, const SystemModel& model,
                           const AnalysisReport& report,
                           const ReportOptions& options) {
  out << "# " << options.title << "\n\n";
  out << "System: " << model.module_count() << " modules, "
      << model.system_input_count() << " system inputs, "
      << model.system_output_count() << " system outputs, "
      << model.io_pair_count() << " input/output pairs.\n\n";

  out << "## Module measures (error permeability and exposure)\n\n";
  out << module_measures_table(report).render_markdown() << "\n";
  out << "`P` = relative permeability (Eq. 2), `P~` = non-weighted "
         "(Eq. 3); `X`/`X~` = error exposure (Eqs. 4-5); `-` marks "
         "modules fed only by system inputs.\n\n";

  out << "## Signal error exposures (Eq. 6)\n\n";
  out << signal_exposure_table(report).render_markdown() << "\n";

  out << "## Ranked propagation paths\n\n";
  out << path_table(report, /*nonzero_only=*/false).render_markdown() << "\n";

  out << "## Placement advice\n\n";
  out << placement_table(report.placement).render_markdown() << "\n";
  if (!report.placement.exclusions.empty()) {
    out << "Signals the analysis advises against instrumenting:\n\n";
    for (const Exclusion& exclusion : report.placement.exclusions) {
      out << "* **" << exclusion.name << "** — " << exclusion.reason
          << "\n";
    }
    out << "\n";
  }

  out << "## Backtrack trees\n\n";
  for (std::uint32_t o = 0; o < report.backtrack_trees.size(); ++o) {
    out << "### System output " << model.system_output_name(o) << "\n\n";
    out << "```\n"
        << render_ascii_tree(model, report.backtrack_trees[o]) << "```\n\n";
  }
  out << "## Trace trees\n\n";
  for (std::uint32_t i = 0; i < report.trace_trees.size(); ++i) {
    out << "### System input " << model.system_input_name(i) << "\n\n";
    out << "```\n"
        << render_ascii_tree(model, report.trace_trees[i]) << "```\n\n";
  }
}

}  // namespace propane::core

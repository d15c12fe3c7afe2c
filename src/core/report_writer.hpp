// Markdown report generation: one self-contained document with every
// analysis artefact, for design reviews and documentation (the
// "design-stage tool" use the paper's introduction argues for).
#pragma once

#include <iosfwd>
#include <string>

#include "core/analysis.hpp"

namespace propane::core {

struct ReportOptions {
  std::string title = "Error propagation analysis";
};

/// Writes the complete report as GitHub-flavoured markdown.
void write_markdown_report(std::ostream& out, const SystemModel& model,
                           const AnalysisReport& report,
                           const ReportOptions& options = {});

}  // namespace propane::core

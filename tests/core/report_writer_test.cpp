#include "core/report_writer.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/example_system.hpp"

namespace propane::core {
namespace {

class ReportWriterTest : public ::testing::Test {
 protected:
  SystemModel model_ = make_example_system();
  SystemPermeability perm_ = make_example_permeability(model_);
  AnalysisReport report_ = analyze(model_, perm_);

  std::string render(const ReportOptions& options = {}) {
    std::ostringstream out;
    write_markdown_report(out, model_, report_, options);
    return out.str();
  }
};

TEST_F(ReportWriterTest, ContainsEverySection) {
  const std::string text = render();
  EXPECT_NE(text.find("# Error propagation analysis"), std::string::npos);
  EXPECT_NE(text.find("## Module measures"), std::string::npos);
  EXPECT_NE(text.find("## Signal error exposures"), std::string::npos);
  EXPECT_NE(text.find("## Ranked propagation paths"), std::string::npos);
  EXPECT_NE(text.find("## Placement advice"), std::string::npos);
  EXPECT_NE(text.find("## Backtrack trees"), std::string::npos);
  EXPECT_NE(text.find("## Trace trees"), std::string::npos);
}

TEST_F(ReportWriterTest, SummaryLineCountsTheSystem) {
  const std::string text = render();
  EXPECT_NE(text.find("5 modules, 3 system inputs, 1 system outputs, 11 "
                      "input/output pairs"),
            std::string::npos);
}

TEST_F(ReportWriterTest, CustomTitle) {
  const std::string text = render({.title = "My system"});
  EXPECT_EQ(text.substr(0, 12), "# My system\n");
}

TEST_F(ReportWriterTest, ExclusionsListed) {
  const std::string text = render();
  EXPECT_NE(text.find("advises against instrumenting"), std::string::npos);
  EXPECT_NE(text.find("**oe1**"), std::string::npos);
}

TEST_F(ReportWriterTest, MarkdownTablesArePipeDelimited) {
  const std::string text = render();
  EXPECT_NE(text.find("| Module"), std::string::npos);
  EXPECT_NE(text.find("| Signal"), std::string::npos);
}

}  // namespace
}  // namespace propane::core

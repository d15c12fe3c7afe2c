#include "fi/campaign_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.hpp"

namespace propane::fi {
namespace {

CampaignResult small_result() {
  CampaignResult result;
  result.signal_names = {"src", "dst"};
  result.injection_model_names = {"bitflip(3)", "offset(-1)"};
  InjectionRecord a;
  a.injection_index = 0;
  a.test_case = 1;
  a.target = 0;
  a.when = 2 * sim::kSecond;
  a.report = DivergenceReport(2);
  a.report.note(0, 2000, 10, 18);
  a.report.note(1, 2004, 5, 7);
  result.records.push_back(a);

  InjectionRecord b;
  b.injection_index = 1;
  b.test_case = 0;
  b.target = 1;
  b.when = 500 * sim::kMillisecond;
  b.report = DivergenceReport(2);  // no divergence
  result.records.push_back(b);
  return result;
}

TEST(CampaignIo, SummaryHasOneRowPerRecord) {
  std::ostringstream out;
  write_campaign_summary_csv(out, small_result());
  const auto text = out.str();
  EXPECT_EQ(text,
            "injection_index,test_case,target,when_ms,model,"
            "diverged_signals\n"
            "0,1,src,2000,bitflip(3),2\n"
            "1,0,dst,500,offset(-1),0\n");
}

TEST(CampaignIo, DivergenceDetailListsOnlyDivergedSignals) {
  std::ostringstream out;
  write_divergence_csv(out, small_result());
  const auto text = out.str();
  EXPECT_EQ(text,
            "injection_index,test_case,target,when_ms,model,signal,"
            "first_ms,golden_value,observed_value\n"
            "0,1,src,2000,bitflip(3),src,2000,10,18\n"
            "0,1,src,2000,bitflip(3),dst,2004,5,7\n");
}

TEST(CampaignIo, EscapesUserSuppliedFieldsAndRoundTrips) {
  // Model and signal names are user-supplied: a name containing the CSV
  // separator or quotes must survive an emit -> parse round trip intact.
  CampaignResult result;
  result.signal_names = {"bus,raw \"A\"", "dst"};
  result.injection_model_names = {"replace(0x10, \"sticky\"),v2"};
  InjectionRecord record;
  record.injection_index = 0;
  record.test_case = 0;
  record.target = 0;
  record.when = 1 * sim::kSecond;
  record.report = DivergenceReport(2);
  record.report.note(1, 1002, 3, 4);
  result.records.push_back(record);

  std::ostringstream summary;
  write_campaign_summary_csv(summary, result);
  std::istringstream summary_in(summary.str());
  std::string line;
  ASSERT_TRUE(std::getline(summary_in, line));  // header
  ASSERT_TRUE(std::getline(summary_in, line));
  auto fields = parse_csv_row(line);
  ASSERT_EQ(fields.size(), 6u);
  EXPECT_EQ(fields[2], "bus,raw \"A\"");
  EXPECT_EQ(fields[4], "replace(0x10, \"sticky\"),v2");

  std::ostringstream detail;
  write_divergence_csv(detail, result);
  std::istringstream detail_in(detail.str());
  ASSERT_TRUE(std::getline(detail_in, line));  // header
  ASSERT_TRUE(std::getline(detail_in, line));
  fields = parse_csv_row(line);
  ASSERT_EQ(fields.size(), 9u);
  EXPECT_EQ(fields[2], "bus,raw \"A\"");
  EXPECT_EQ(fields[4], "replace(0x10, \"sticky\"),v2");
  EXPECT_EQ(fields[5], "dst");
}

TEST(CampaignIo, EmptyCampaignWritesHeadersOnly) {
  CampaignResult empty;
  empty.signal_names = {"x"};
  std::ostringstream summary;
  write_campaign_summary_csv(summary, empty);
  EXPECT_EQ(summary.str().find('\n'), summary.str().size() - 1);
  std::ostringstream detail;
  write_divergence_csv(detail, empty);
  EXPECT_EQ(detail.str().find('\n'), detail.str().size() - 1);
}

}  // namespace
}  // namespace propane::fi

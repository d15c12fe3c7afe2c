#include "fi/campaign_io.hpp"

#include <ostream>

#include "common/csv.hpp"
#include "sim/simtime.hpp"

namespace propane::fi {

void write_campaign_summary_csv(std::ostream& out,
                                const CampaignResult& campaign) {
  CsvWriter writer(out);
  writer.write_row({"injection_index", "test_case", "target", "when_ms",
                    "model", "diverged_signals"});
  for (const InjectionRecord& record : campaign.records) {
    writer.write_row({std::to_string(record.injection_index),
                      std::to_string(record.test_case),
                      campaign.signal_names[record.target],
                      std::to_string(sim::to_milliseconds(record.when)),
                      std::string(campaign.model_name_of(record)),
                      std::to_string(record.report.divergence_count())});
  }
}

void write_divergence_csv(std::ostream& out,
                          const CampaignResult& campaign) {
  CsvWriter writer(out);
  writer.write_row({"injection_index", "test_case", "target", "when_ms",
                    "model", "signal", "first_ms", "golden_value",
                    "observed_value"});
  for (const InjectionRecord& record : campaign.records) {
    for (const DivergenceEntry& divergence : record.report.diverged()) {
      writer.write_row({std::to_string(record.injection_index),
                        std::to_string(record.test_case),
                        campaign.signal_names[record.target],
                        std::to_string(sim::to_milliseconds(record.when)),
                        std::string(campaign.model_name_of(record)),
                        campaign.signal_names[divergence.signal],
                        std::to_string(divergence.first_ms),
                        std::to_string(divergence.golden_value),
                        std::to_string(divergence.observed_value)});
    }
  }
}

}  // namespace propane::fi

// Journal subsystem throughput: how fast records append to a sharded
// campaign journal (the per-run durability cost), the overhead of the
// telemetry layer's counters on that path (the journal logs no event per
// record), and how fast a resume scan rebuilds the completed-run set --
// the numbers that decide whether journaling and observability are
// affordable at production campaign scale.
//
// Results also land in BENCH_journal.json (including the final metrics
// snapshot) so CI can track the overhead over time.
//
// PROPANE_SCALE=small|default|full selects 10k / 100k / 1M records.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "store/resume.hpp"

namespace {

using namespace propane;

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

fi::InjectionRecord synthetic_record(const store::Manifest& manifest,
                                     std::size_t flat) {
  fi::InjectionRecord record;
  record.injection_index =
      static_cast<std::uint32_t>(flat / manifest.test_case_count);
  record.test_case =
      static_cast<std::uint32_t>(flat % manifest.test_case_count);
  record.target = static_cast<fi::BusSignalId>(flat % 13);
  record.when = (1 + flat % 10) * sim::kSecond;
  record.report.per_signal.resize(30);
  // A realistic sparse report: a handful of diverged signals per run.
  for (std::size_t s = flat % 5; s < 30; s += 7) {
    record.report.per_signal[s] = {true, 1000 + flat % 4000,
                                   static_cast<std::uint16_t>(flat),
                                   static_cast<std::uint16_t>(flat ^ 0xFF)};
  }
  return record;
}

}  // namespace

int main() {
  bench::banner("journal throughput (append + resume scan)");

  const exp::ExperimentScale scale = exp::scale_from_env();
  const std::size_t records = scale.name == "paper"  ? 1'000'000
                              : scale.name == "smoke" ? 10'000
                                                      : 100'000;
  const std::size_t shard_count = 8;

  store::Manifest manifest;
  manifest.plan_hash = 0xB0B5;
  manifest.seed = 42;
  manifest.test_case_count = 25;
  manifest.injection_count =
      static_cast<std::uint32_t>((records + 24) / 25);

  const fs::path dir =
      fs::temp_directory_path() / "propane_bench_journal";
  fs::remove_all(dir);

  // --- append ------------------------------------------------------------
  std::size_t bytes = 0;
  const auto append_start = Clock::now();
  {
    store::ShardedJournalWriter writer(dir, manifest, shard_count);
    for (std::size_t flat = 0; flat < records; ++flat) {
      writer.append(synthetic_record(manifest, flat));
    }
  }
  const double append_s = seconds_since(append_start);
  for (const auto& shard : store::ShardedJournalWriter::list_shards(dir)) {
    bytes += fs::file_size(shard);
  }
  std::printf("append: %zu records, %zu shards, %.1f MB\n", records,
              shard_count, static_cast<double>(bytes) / 1e6);
  std::printf("        %.2f s  =>  %.0f records/s, %.1f MB/s "
              "(flushed per record)\n\n",
              append_s, static_cast<double>(records) / append_s,
              static_cast<double>(bytes) / 1e6 / append_s);

  // --- append with telemetry --------------------------------------------
  // Same workload with the metrics registry attached (the counters the
  // campaign keeps hot). Overhead is relative to the untelemetered pass
  // above, whose null-handle branches cost nothing measurable.
  obs::MetricsRegistry metrics;
  obs::Telemetry telemetry;
  telemetry.metrics = &metrics;

  const fs::path metrics_dir =
      fs::temp_directory_path() / "propane_bench_journal_metrics";
  fs::remove_all(metrics_dir);
  const auto metrics_start = Clock::now();
  {
    store::ShardedJournalWriter writer(metrics_dir, manifest, shard_count,
                                       &telemetry);
    for (std::size_t flat = 0; flat < records; ++flat) {
      writer.append(synthetic_record(manifest, flat));
    }
  }
  const double metrics_s = seconds_since(metrics_start);
  fs::remove_all(metrics_dir);

  const double metrics_overhead = 100.0 * (metrics_s - append_s) / append_s;
  std::printf("append + metrics: %.2f s  =>  %.0f records/s "
              "(%+.1f%% vs untelemetered)\n\n",
              metrics_s, static_cast<double>(records) / metrics_s,
              metrics_overhead);

  // --- resume scan -------------------------------------------------------
  const auto scan_start = Clock::now();
  const store::CampaignDirState state = store::scan_campaign_dir(dir);
  const double scan_s = seconds_since(scan_start);
  std::printf("resume scan: %zu records rebuilt in %.2f s  =>  "
              "%.0f records/s\n",
              state.completed_count, scan_s,
              static_cast<double>(state.completed_count) / scan_s);
  std::printf("             (completed-run set: %zu of %zu planned runs)\n",
              state.completed_count, state.manifest.total_runs());

  // --- machine-readable summary ------------------------------------------
  {
    std::ofstream json("BENCH_journal.json");
    json << "{\"records\":" << records
         << ",\"bytes\":" << bytes
         << ",\"append_s\":" << append_s
         << ",\"append_metrics_s\":" << metrics_s
         << ",\"metrics_overhead_pct\":" << metrics_overhead
         << ",\"resume_scan_s\":" << scan_s
         << ",\"metrics\":"
         << obs::metrics_snapshot_to_json(metrics.snapshot()) << "}\n";
    std::printf("\nwrote BENCH_journal.json\n");
  }

  fs::remove_all(dir);
  return 0;
}

#include "store/resume.hpp"

#include <cstdio>
#include <optional>
#include <ostream>
#include <set>

#include "common/contracts.hpp"
#include "core/permeability_io.hpp"

namespace propane::store {

namespace detail {

std::string hex64(std::uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void require_same_manifest(const Manifest& expected, const Manifest& found,
                           const std::string& where) {
  PROPANE_REQUIRE_MSG(
      expected == found,
      "journal manifest mismatch (" + where + "): expected plan " +
          hex64(expected.plan_hash) + " seed " + hex64(expected.seed) +
          ", found plan " + hex64(found.plan_hash) + " seed " +
          hex64(found.seed) + " -- shards belong to different campaigns");
}

}  // namespace detail

using detail::hex64;
using detail::require_same_manifest;

CampaignDirState scan_campaign_dir(
    const std::filesystem::path& dir,
    const std::function<void(fi::InjectionRecord&&, std::size_t flat)>&
        sink) {
  CampaignDirState state;
  for (const auto& shard : ShardedJournalWriter::list_shards(dir)) {
    // The record sink below indexes state.completed, so the scan hands over
    // the shard's manifest to be adopted or checked before any record.
    const JournalScan scan = scan_journal_file(
        shard,
        [&](const Manifest& manifest) {
          if (state.fresh) {
            state.fresh = false;
            state.manifest = manifest;
            state.completed.assign(state.manifest.total_runs(), false);
          } else {
            require_same_manifest(state.manifest, manifest, shard.string());
          }
        },
        [&](fi::InjectionRecord&& record) {
          PROPANE_CHECK_MSG(
              record.injection_index < state.manifest.injection_count &&
                  record.test_case < state.manifest.test_case_count,
              "journal record outside the campaign plan: " + shard.string());
          const std::size_t flat = state.manifest.flat_index(
              record.injection_index, record.test_case);
          if (state.completed[flat]) {
            ++state.duplicate_count;
            return;
          }
          state.completed[flat] = true;
          ++state.completed_count;
          if (record.replayed) ++state.replayed_count;
          if (sink) sink(std::move(record), flat);
        });
    // A shard whose writer died before its manifest hit the disk carries no
    // records by construction; it is torn, so it only warns.
    if (scan.torn_tail) state.warnings.push_back(scan.warning);
  }
  return state;
}

CampaignDirState for_each_journal_record(
    const std::filesystem::path& dir,
    const std::function<void(const fi::InjectionRecord&, std::size_t flat)>&
        sink) {
  PROPANE_REQUIRE(sink != nullptr);
  CampaignDirState state = scan_campaign_dir(
      dir, [&](fi::InjectionRecord&& record, std::size_t flat) {
        sink(record, flat);
      });
  PROPANE_REQUIRE_MSG(!state.fresh,
                      "no campaign journal in " + dir.string());
  return state;
}

MergeSummary merge_journals(
    const std::filesystem::path& dest,
    const std::vector<std::filesystem::path>& sources) {
  MergeSummary summary;

  // Destination state first: merging into a non-empty directory only adds
  // records it does not already hold.
  CampaignDirState dest_state = scan_campaign_dir(dest);
  summary.warnings = dest_state.warnings;
  std::optional<Manifest> manifest;
  if (!dest_state.fresh) manifest = dest_state.manifest;

  // Validate every source before writing anything, so a bad source cannot
  // leave a half-merged destination behind: each must hold at least one
  // shard, no shard file may be merged twice (the same directory listed
  // twice, or the destination named as a source, would otherwise silently
  // fold into an all-duplicates no-op), all manifests must agree, and every
  // frame must pass the full scan the copy below repeats.
  std::set<std::filesystem::path> seen_shards;
  for (const auto& shard : ShardedJournalWriter::list_shards(dest)) {
    seen_shards.insert(std::filesystem::weakly_canonical(shard));
  }
  for (const auto& source : sources) {
    const std::vector<std::filesystem::path> shards =
        ShardedJournalWriter::list_shards(source);
    PROPANE_REQUIRE_MSG(!shards.empty(),
                        "merge source has no journal shards: " +
                            source.string());
    for (const auto& shard : shards) {
      PROPANE_REQUIRE_MSG(
          seen_shards.insert(std::filesystem::weakly_canonical(shard)).second,
          "merge source duplicates a shard already merged: " +
              shard.string() +
              " (same directory listed twice, or the destination given as a "
              "source)");
    }
    const CampaignDirState state = scan_campaign_dir(source);
    summary.warnings.insert(summary.warnings.end(), state.warnings.begin(),
                            state.warnings.end());
    if (state.fresh) continue;  // only crash residue; it was warned above
    if (!manifest) {
      manifest = state.manifest;
    } else {
      require_same_manifest(*manifest, state.manifest, source.string());
    }
  }
  PROPANE_REQUIRE_MSG(manifest.has_value(),
                      "merge found no readable journal shards");

  std::vector<bool> completed = std::move(dest_state.completed);
  if (completed.empty()) completed.assign(manifest->total_runs(), false);
  summary.record_count = dest_state.completed_count;
  summary.duplicate_count = dest_state.duplicate_count;

  // The copy pass stages records into the one destination shard and
  // commits them in bounded runs, as replays do.
  ShardedJournalWriter writer(dest, *manifest, 1);
  writer.with_shard(0, [&](JournalWriter& shard) {
    for (const auto& source : sources) {
      CampaignDirState state = scan_campaign_dir(
          source, [&](fi::InjectionRecord&& record, std::size_t flat) {
            if (completed[flat]) {
              ++summary.duplicate_count;
              return;
            }
            completed[flat] = true;
            shard.stage(stamp_of(record), record.report);
            if (shard.staged_bytes() >= kReplayRunBytes) shard.commit();
            ++summary.record_count;
          });
      summary.duplicate_count += state.duplicate_count;
    }
    shard.commit();
  });
  return summary;
}

JournalStats estimate_from_journal(const std::filesystem::path& dir,
                                   const core::SystemModel& model,
                                   const fi::SignalBinding& binding) {
  // The accumulator needs the campaign's bus width; take it from the first
  // record's report (every record of a campaign traces the same bus), with
  // the binding's own upper bound as the floor for empty journals.
  std::optional<fi::PermeabilityAccumulator> accumulator;
  CampaignDirState state = scan_campaign_dir(
      dir, [&](fi::InjectionRecord&& record, std::size_t) {
        if (!accumulator) {
          const std::size_t bus_count = std::max(
              binding.bus_upper_bound(), record.report.per_signal.size());
          accumulator.emplace(model, binding, bus_count);
        }
        accumulator->add(record);
      });
  PROPANE_REQUIRE_MSG(!state.fresh,
                      "no campaign journal in " + dir.string());
  if (!accumulator) {
    accumulator.emplace(model, binding, binding.bus_upper_bound());
  }
  return JournalStats{state.manifest, state.completed_count,
                      state.duplicate_count, state.replayed_count,
                      std::move(state.warnings), accumulator->finish()};
}

JournalStats write_permeability_csv_from_journal(
    std::ostream& out, const std::filesystem::path& dir,
    const core::SystemModel& model, const fi::SignalBinding& binding) {
  JournalStats stats = estimate_from_journal(dir, model, binding);
  core::PermeabilityCsvOptions csv_options;
  csv_options.comments = {
      "estimated from a propane campaign journal",
      "plan " + hex64(stats.manifest.plan_hash) + ", seed " +
          hex64(stats.manifest.seed) + ", " +
          std::to_string(stats.record_count) + " injection records",
  };
  core::save_permeability_csv(out, model, stats.estimation.permeability,
                              csv_options);
  return stats;
}

}  // namespace propane::store

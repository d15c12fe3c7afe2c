// Crash-safe resume, process-split sharding, merge and streaming
// estimation over campaign journal directories.
//
// A campaign directory holds one or more journal shards (sharded_writer).
// Because every completed injection run was flushed to a shard before the
// next one started, the directory *is* the campaign state:
//
//   * resume: scan the shards, rebuild the set of completed
//     (injection_index, test_case) pairs, then run only the missing runs
//     (run_delta_journaled_campaign, store/result_cache.hpp). Per-run RNG
//     seeds are a pure function of (config seed, run identity)
//     (fi/campaign.cpp), so a resumed campaign is bit-identical to an
//     uninterrupted one;
//   * split: N processes run the same plan with process_count=N and
//     distinct process_index values; each owns the flat run indices
//     congruent to its index and writes its own directory (or its own
//     shards of a shared directory on a shared filesystem);
//   * merge: fold several directories of the *same* plan (identical
//     manifests) into one, deduplicating runs that were executed twice;
//   * stats: stream every record through fi::PermeabilityAccumulator into
//     n_err/n_inj permeability estimates with Wilson intervals, without
//     ever materialising a CampaignResult.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "fi/campaign.hpp"
#include "fi/estimator.hpp"
#include "store/sharded_writer.hpp"

namespace propane::obs {
struct Telemetry;
}  // namespace propane::obs

namespace propane::store {

namespace detail {
/// "0x%016llx" formatting for manifest identities in diagnostics.
std::string hex64(std::uint64_t value);
/// Hard error unless the two manifests describe the same campaign plan.
void require_same_manifest(const Manifest& expected, const Manifest& found,
                           const std::string& where);
}  // namespace detail

/// What a scan of a campaign directory found.
struct CampaignDirState {
  /// True when the directory holds no (readable) shards: a fresh campaign.
  bool fresh = true;
  Manifest manifest;  // valid when !fresh
  /// completed[flat] == true when that run's record is in the journal.
  std::vector<bool> completed;
  std::size_t completed_count = 0;
  /// Runs recorded more than once (e.g. overlapping process splits merged
  /// into one directory). Duplicates beyond the first are dropped.
  std::size_t duplicate_count = 0;
  /// Records flagged as replayed from a delta-campaign baseline cache
  /// (store/result_cache.hpp) rather than executed by the session that
  /// wrote them. Subset of completed_count.
  std::size_t replayed_count = 0;
  /// Torn-tail notices and other non-fatal findings, one per shard.
  std::vector<std::string> warnings;
};

/// Scans every shard of `dir`, verifying that all manifests agree, and
/// rebuilds the completed-run set. `sink`, when non-null, receives each
/// unique record once together with its flat run index (duplicates are
/// suppressed). A missing or empty directory yields a fresh state.
CampaignDirState scan_campaign_dir(
    const std::filesystem::path& dir,
    const std::function<void(fi::InjectionRecord&&, std::size_t flat)>& sink =
        nullptr);

/// Record-iteration facade over scan_campaign_dir for read-only analyses
/// (e.g. the bootstrap resampler, fi/bootstrap.hpp): streams every unique
/// record of `dir` through `sink` in one pass without materialising a
/// CampaignResult or a CSV -- memory stays O(model) + one record. Unlike
/// scan_campaign_dir, an empty or missing directory is a hard error: a
/// record-level consumer has nothing to iterate there.
CampaignDirState for_each_journal_record(
    const std::filesystem::path& dir,
    const std::function<void(const fi::InjectionRecord&, std::size_t flat)>&
        sink);

/// Session options of run_delta_journaled_campaign (store/result_cache.hpp).
struct JournalRunOptions {
  /// Shard files this session writes (>= worker threads removes
  /// contention). 0 = auto: one shard per campaign pool thread
  /// (config.threads, or hardware concurrency when that is 0), so
  /// thread-parallel batch execution appends without shard-mutex
  /// contention by default. Estimates and CSVs are pure functions of
  /// journal *content*, so any shard count yields byte-identical output.
  std::size_t shard_count = 1;
  /// Process-split: this process executes only flat run indices congruent
  /// to process_index modulo process_count.
  std::uint32_t process_count = 1;
  std::uint32_t process_index = 0;
  /// Optional telemetry (non-owning): threaded into the campaign, the pool
  /// and every shard writer; the resume scan is timed and reported as a
  /// journal.resume_scan event + journal.resume.scan_ms gauge. The
  /// bundle's HUD, if any, renders from its registry.
  const obs::Telemetry* telemetry = nullptr;
};

struct MergeSummary {
  std::size_t record_count = 0;     // unique records now in dest
  std::size_t duplicate_count = 0;  // dropped duplicates across sources
  std::vector<std::string> warnings;
};

/// Merges the unique records of `sources` (directories of the same plan)
/// into `dest`. `dest` may be empty or already hold shards of that plan;
/// records it already has are not duplicated. Estimates over the merged
/// directory equal those of a single-process run of the union. Every
/// source is scanned in full before `dest` gains a shard, so these hard
/// errors come before anything is written: a source with no shards, a
/// shard file encountered twice (a source listed twice, or `dest` given as
/// a source), disagreeing manifests, or a corrupt frame (CRC mismatch, bad
/// magic, unsupported version) in any source. Torn tails only warn.
MergeSummary merge_journals(const std::filesystem::path& dest,
                            const std::vector<std::filesystem::path>& sources);

/// Streaming estimation over a journal directory.
struct JournalStats {
  Manifest manifest;
  std::size_t record_count = 0;
  std::size_t duplicate_count = 0;
  /// Records replayed from a delta baseline (vs. executed); see
  /// CampaignDirState::replayed_count.
  std::size_t replayed_count = 0;
  std::vector<std::string> warnings;
  fi::EstimationResult estimation;
};

/// Folds every journal record into permeability estimates without building
/// a CampaignResult: memory stays O(model), not O(runs).
JournalStats estimate_from_journal(const std::filesystem::path& dir,
                                   const core::SystemModel& model,
                                   const fi::SignalBinding& binding);

/// Bridges the journal to the analysis side: streams `dir` into estimates
/// and writes them as a permeability CSV (core/permeability_io.hpp format)
/// with provenance comments (# plan hash, record count). The output is a
/// pure function of the journal's *content*, so a killed-and-resumed
/// campaign produces a byte-identical file to an uninterrupted one.
JournalStats write_permeability_csv_from_journal(
    std::ostream& out, const std::filesystem::path& dir,
    const core::SystemModel& model, const fi::SignalBinding& binding);

}  // namespace propane::store

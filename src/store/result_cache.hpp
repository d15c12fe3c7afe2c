// Content-addressed campaign result cache and the one journaled campaign
// entry point.
//
// A baseline journal directory is loaded into a fingerprint-keyed index
// (fingerprints: fi/delta_campaign.hpp); run_delta_journaled_campaign then
// runs a (possibly changed) plan against an output directory, replaying
// every run whose fingerprint the baseline holds and executing only the
// rest. A plain campaign is a delta against an empty baseline
// (ResultCache{}): every lookup misses and every run executes. The output
// directory is a complete, ordinary campaign journal -- replayed records
// are re-appended with their `replayed` flag set -- so it resumes, merges,
// estimates and serves as the next delta's baseline with no special cases,
// and the permeability CSV derived from it is byte-identical to one from a
// cold full run (estimation is order-independent and never consults the
// fingerprint/replayed metadata).
//
// Cache-invalidation rules (what turns a baseline record stale):
//   * a changed master seed, error model, target, fire time, phase or
//     per-run derived seed changes the fingerprint -> miss;
//   * a changed version token of any *consumer* module of the target
//     signal changes the fingerprint -> miss (tokens come from
//     arr::module_version_tokens or the caller);
//   * pre-v3 journal records carry no fingerprint (decode as 0) -> miss;
//   * everything else hits, including records written at a different flat
//     position (the address is content, not position).
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "fi/delta_campaign.hpp"
#include "store/resume.hpp"

namespace propane::store {

/// In-memory fingerprint index over one campaign directory's records.
/// Immutable after load(), so lookups are safe from worker threads.
class ResultCache {
 public:
  /// Loads every readable record of `dir`. A missing or empty directory
  /// yields an empty cache (every lookup misses) -- the delta runner then
  /// degenerates to a cold full run. Records without fingerprints (pre-v3
  /// shards) are counted but not indexed.
  static ResultCache load(const std::filesystem::path& dir);

  /// Cached divergence report for `fingerprint`, or nullptr. Fingerprint 0
  /// ("none") never matches. Thread-safe (read-only).
  const fi::DivergenceReport* find(std::uint64_t fingerprint) const;

  bool loaded() const { return !state_.fresh; }
  const Manifest& manifest() const { return state_.manifest; }
  /// Fingerprint the baseline recorded for flat run index `flat`; 0 when
  /// unknown (pre-v3 record, out of range, or never completed). Only
  /// meaningful against the same plan (compare plan hashes first).
  std::uint64_t fingerprint_of_flat(std::size_t flat) const;

  std::size_t record_count() const { return state_.completed_count; }
  /// Records that could not be indexed (no fingerprint).
  std::size_t unfingerprinted() const { return unfingerprinted_; }
  const std::vector<std::string>& warnings() const { return state_.warnings; }

 private:
  CampaignDirState state_;
  /// A replay re-stamps the run's identity under the current plan, so the
  /// report is all a hit needs.
  std::unordered_map<std::uint64_t, fi::DivergenceReport> by_fingerprint_;
  std::vector<std::uint64_t> fingerprint_by_flat_;
  std::size_t unfingerprinted_ = 0;
};

struct DeltaRunOptions {
  /// Shard count / process split / telemetry. Replays respect
  /// the process split too: each process appends only its own share of the
  /// hits.
  JournalRunOptions base;
  /// Version tokens fed into the run fingerprints (fi::ModuleVersionMap).
  fi::ModuleVersionMap module_versions;
};

/// Per-module view of one delta session (the CLI's `--explain` table).
struct ModuleDeltaExplain {
  std::string module;
  /// Runs replayed / executed whose target signal drives this module's
  /// inputs (a run targeting a shared signal counts for every consumer).
  std::size_t replayed = 0;
  std::size_t executed = 0;
  /// True when the baseline held a *different* fingerprint for some run
  /// targeting this module's inputs (same plan) -- i.e. the module (or the
  /// seed/model config reaching it) changed since the baseline was taken.
  bool invalidated = false;
};

/// What one session did. The run counts, the delta.done fields and the
/// per_module rows are all tallied from one per-run outcome, so after a
/// session that returns, executed + replayed + skipped_completed +
/// skipped_foreign == total_runs.
struct DeltaJournalSummary {
  std::size_t executed = 0;           // runs simulated this session
  std::size_t replayed = 0;           // cache hits copied from the baseline
  std::size_t skipped_completed = 0;  // already in the output journal
  std::size_t skipped_foreign = 0;    // owned by another process index
  std::size_t total_runs = 0;
  std::size_t diverged = 0;           // executed runs with a divergence
  std::size_t baseline_records = 0;
  std::size_t baseline_unfingerprinted = 0;
  double wall_seconds = 0.0;
  std::uint64_t journal_bytes = 0;
  std::vector<std::string> warnings;  // output-dir scan + baseline load
  /// Modules whose baseline fingerprints disagree with the current ones
  /// (telemetry counter delta.invalidated_modules); empty when the
  /// baseline is empty or belongs to a different plan.
  std::vector<core::ModuleId> invalidated_modules;
  /// One entry per model module, ModuleId order.
  std::vector<ModuleDeltaExplain> per_module;
};

/// Runs `config` against journal directory `dir`, classifying each run,
/// before the campaign starts, as: already in `dir` (skipped), owned by
/// another process of a split (skipped), a `baseline` hit (replayed) or a
/// miss. Every hit is then appended, with its `replayed` flag set, before
/// the first golden run: one pool task per shard, in flat order, in
/// bounded runs of one write and one flush each. Misses execute through
/// `runner` and are appended, with their fingerprint, one flushed record at
/// a time. Fresh directories start from scratch, non-empty ones resume;
/// `dir` must belong to the same plan (manifest mismatch is a hard error).
/// So the directory can be resumed after a crash at any point -- a replay
/// run lost unflushed is simply replayed again -- and it is a complete
/// journal of the plan: it merges, estimates and serves as the next
/// delta's baseline with no special cases.
///
/// Accepts a scalar fi::RunFunction (implicitly, as a width-1 batch
/// adaptor) or a batched fi::CampaignRunner; journals are bit-identical
/// either way, and a directory written by one may be resumed by the other
/// (batch size is deliberately outside the plan hash).
///
/// With telemetry on it emits delta.plan, journal.resume_scan and
/// delta.done events, in that order, and the delta.hits / delta.misses /
/// delta.invalidated_modules counters.
DeltaJournalSummary run_delta_journaled_campaign(
    const fi::CampaignRunner& runner, const fi::CampaignConfig& config,
    const core::SystemModel& model, const fi::SignalBinding& binding,
    const std::filesystem::path& dir, const ResultCache& baseline,
    const DeltaRunOptions& options = {});

}  // namespace propane::store

#include "store/result_cache.hpp"

#include <algorithm>
#include <array>
#include <thread>
#include <utility>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"
#include "obs/clock.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace propane::store {

ResultCache ResultCache::load(const std::filesystem::path& dir) {
  ResultCache cache;
  cache.state_ = scan_campaign_dir(
      dir, [&cache](fi::InjectionRecord&& record, std::size_t flat) {
        if (flat >= cache.fingerprint_by_flat_.size()) {
          cache.fingerprint_by_flat_.resize(flat + 1, 0);
        }
        if (record.fingerprint == 0) {
          // Pre-v3 record: content unknown, can only ever miss.
          ++cache.unfingerprinted_;
          return;
        }
        cache.fingerprint_by_flat_[flat] = record.fingerprint;
        cache.by_fingerprint_.emplace(record.fingerprint,
                                      std::move(record.report));
      });
  return cache;
}

const fi::DivergenceReport* ResultCache::find(
    std::uint64_t fingerprint) const {
  if (fingerprint == 0) return nullptr;
  const auto it = by_fingerprint_.find(fingerprint);
  return it == by_fingerprint_.end() ? nullptr : &it->second;
}

std::uint64_t ResultCache::fingerprint_of_flat(std::size_t flat) const {
  return flat < fingerprint_by_flat_.size() ? fingerprint_by_flat_[flat] : 0;
}

namespace {

/// How one session resolved a flat run of the plan. Every run count of the
/// summary, every delta.done field and every --explain row is a tally over
/// one vector of these.
enum class RunOutcome : std::uint8_t {
  kPending,           // not reached (the campaign threw first)
  kJournaled,         // already in the output journal
  kForeign,           // owned by another process of a split
  kReplayed,          // baseline hit, appended from the cache
  kExecuted,          // simulated this session, no divergence
  kExecutedDiverged,  // simulated this session, >= 1 diverged signal
};
constexpr std::size_t kOutcomeCount =
    static_cast<std::size_t>(RunOutcome::kExecutedDiverged) + 1;

/// Resume scan of the output directory: the completed-run set (sized to
/// the plan even when the directory is fresh), timed and reported as a
/// journal.resume_scan event + journal.resume.scan_ms gauge. A directory
/// of another plan is a hard error.
CampaignDirState resume_scan(const std::filesystem::path& dir,
                             const Manifest& manifest,
                             const obs::Telemetry* telemetry) {
  CampaignDirState state;
  {
    obs::Span scan_span(telemetry, "journal.resume_scan");
    const std::uint64_t scan_start_us = obs::steady_now_us();
    state = scan_campaign_dir(dir);
    if (telemetry != nullptr) {
      const std::uint64_t scan_us = obs::steady_now_us() - scan_start_us;
      if (auto* gauge =
              obs::find_gauge(telemetry, "journal.resume.scan_ms")) {
        gauge->set(static_cast<double>(scan_us) / 1000.0);
      }
      obs::emit_event(telemetry, "journal.resume_scan",
                      {{"dir", obs::Value(dir.string())},
                       {"completed", obs::Value(state.completed_count)},
                       {"duplicates", obs::Value(state.duplicate_count)},
                       {"warnings", obs::Value(state.warnings.size())},
                       {"dur_us", obs::Value(scan_us)}});
    }
  }
  if (!state.fresh) {
    detail::require_same_manifest(manifest, state.manifest, dir.string());
  }
  if (state.completed.empty()) {
    state.completed.assign(manifest.total_runs(), false);
  }
  return state;
}

/// Worker threads of the campaign pool (ThreadPool's 0 = hardware
/// concurrency rule).
std::size_t session_threads(const fi::CampaignConfig& config) {
  return config.threads > 0
             ? config.threads
             : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// shard_count 0 = auto: one shard per campaign pool thread, so the
/// parallel batch path appends journal records without shard contention.
std::size_t session_shard_count(const JournalRunOptions& options,
                                const fi::CampaignConfig& config) {
  return options.shard_count > 0 ? options.shard_count
                                 : session_threads(config);
}

/// Appends every kReplayed flat's cached report to its shard before the
/// campaign starts. One pool task per shard walks that shard's flats in
/// order, so the shard layout does not depend on the thread count. Each
/// record is re-stamped under the *current* plan's identity (the baseline
/// may have recorded it at a different flat position, e.g. after injections
/// were added to the plan), so the output directory is a complete journal
/// of the plan. A crash that loses an uncommitted run only means those
/// replays are replayed again on resume.
void append_replays(ShardedJournalWriter& writer,
                    const std::vector<RunOutcome>& outcome,
                    const std::vector<std::uint64_t>& fingerprints,
                    const ResultCache& baseline,
                    const fi::CampaignConfig& config) {
  const std::size_t shard_count = writer.shard_count();
  ThreadPool pool(std::min(shard_count, session_threads(config)));
  for (std::size_t s = 0; s < shard_count; ++s) {
    pool.submit([&, s] {
      writer.with_shard(s, [&](JournalWriter& shard) {
        for (std::size_t flat = s; flat < outcome.size();
             flat += shard_count) {
          if (outcome[flat] != RunOutcome::kReplayed) continue;
          const std::size_t inj = flat / config.test_case_count;
          RecordStamp stamp;
          stamp.injection_index = static_cast<std::uint32_t>(inj);
          stamp.test_case =
              static_cast<std::uint32_t>(flat % config.test_case_count);
          stamp.target = config.injections[inj].target;
          stamp.when = config.injections[inj].when;
          stamp.fingerprint = fingerprints[flat];
          stamp.replayed = true;
          shard.stage(stamp, *baseline.find(fingerprints[flat]));
          if (shard.staged_bytes() >= kReplayRunBytes) shard.commit();
        }
        shard.commit();
      });
    });
  }
  pool.wait_idle();
}

}  // namespace

DeltaJournalSummary run_delta_journaled_campaign(
    const fi::CampaignRunner& runner, const fi::CampaignConfig& config,
    const core::SystemModel& model, const fi::SignalBinding& binding,
    const std::filesystem::path& dir, const ResultCache& baseline,
    const DeltaRunOptions& options) {
  const JournalRunOptions& session = options.base;
  PROPANE_REQUIRE(session.process_count > 0);
  PROPANE_REQUIRE(session.process_index < session.process_count);

  const Manifest manifest = manifest_for(config);
  DeltaJournalSummary summary;
  summary.total_runs = manifest.total_runs();
  summary.baseline_records = baseline.record_count();
  summary.baseline_unfingerprinted = baseline.unfingerprinted();
  summary.warnings = baseline.warnings();

  const obs::Telemetry* telemetry =
      (session.telemetry != nullptr && session.telemetry->enabled())
          ? session.telemetry
          : nullptr;
  const std::uint64_t wall_start_us = obs::steady_now_us();

  const std::vector<std::uint64_t> fingerprints =
      fi::run_fingerprints(config, model, binding, options.module_versions);
  std::size_t bus_count = binding.bus_upper_bound();
  for (const fi::InjectionSpec& spec : config.injections) {
    bus_count = std::max(bus_count, std::size_t{spec.target} + 1);
  }
  const auto consumers = fi::consumers_by_bus(model, binding, bus_count);
  const auto consumers_of_flat =
      [&](std::size_t flat) -> const std::vector<core::ModuleId>& {
    return consumers[config.injections[flat / config.test_case_count].target];
  };

  // Stale-module detection: when the baseline holds the *same plan*, any
  // flat where it recorded a different fingerprint means something feeding
  // that run changed -- per the fingerprint recipe, the master seed (which
  // would flag every module) or a consumer module's version token. The
  // target's consumers carry the blame. A different plan hash is not
  // "invalidation", it is simply a different campaign reusing overlapping
  // content, so nothing is flagged.
  std::vector<bool> module_stale(model.module_count(), false);
  std::size_t stale_runs = 0;
  if (baseline.loaded() &&
      baseline.manifest().plan_hash == manifest.plan_hash) {
    for (std::size_t flat = 0; flat < fingerprints.size(); ++flat) {
      const std::uint64_t before = baseline.fingerprint_of_flat(flat);
      if (before == 0 || before == fingerprints[flat]) continue;
      ++stale_runs;
      for (core::ModuleId m : consumers_of_flat(flat)) module_stale[m] = true;
    }
  }
  for (core::ModuleId m = 0; m < model.module_count(); ++m) {
    if (module_stale[m]) summary.invalidated_modules.push_back(m);
  }
  if (auto* counter =
          obs::find_counter(telemetry, "delta.invalidated_modules")) {
    counter->add(summary.invalidated_modules.size());
  }
  if (telemetry != nullptr) {
    std::string names;
    for (core::ModuleId m : summary.invalidated_modules) {
      if (!names.empty()) names += ",";
      names += model.module_name(m);
    }
    obs::emit_event(telemetry, "delta.plan",
                    {{"baseline_records", obs::Value(baseline.record_count())},
                     {"baseline_unfingerprinted",
                      obs::Value(baseline.unfingerprinted())},
                     {"stale_runs", obs::Value(stale_runs)},
                     {"invalidated_modules", obs::Value(names)},
                     {"total_runs", obs::Value(summary.total_runs)}});
  }

  const CampaignDirState state = resume_scan(dir, manifest, telemetry);
  summary.warnings.insert(summary.warnings.end(), state.warnings.begin(),
                          state.warnings.end());
  ShardedJournalWriter writer(dir, manifest,
                              session_shard_count(session, config), telemetry);
  const std::uint64_t journal_base_bytes = writer.bytes_written();

  // Classify every flat before anything runs. Each flat is resolved exactly
  // once -- here, or later by the worker that executes it -- so plain
  // elements suffice; run_campaign joins its pool before the tally below
  // reads them.
  std::vector<RunOutcome> outcome(manifest.total_runs(), RunOutcome::kPending);
  std::size_t replay_count = 0;
  for (std::size_t flat = 0; flat < outcome.size(); ++flat) {
    if (state.completed[flat]) {
      outcome[flat] = RunOutcome::kJournaled;
    } else if (flat % session.process_count != session.process_index) {
      outcome[flat] = RunOutcome::kForeign;
    } else if (baseline.find(fingerprints[flat]) != nullptr) {
      outcome[flat] = RunOutcome::kReplayed;
      ++replay_count;
    }
  }
  if (replay_count > 0) {
    append_replays(writer, outcome, fingerprints, baseline, config);
  }
  if (auto* hits = obs::find_counter(telemetry, "delta.hits")) {
    hits->add(replay_count);
  }
  obs::Counter* const misses = obs::find_counter(telemetry, "delta.misses");

  fi::CampaignHooks hooks;
  hooks.telemetry = telemetry;
  hooks.should_run = [&](std::uint32_t injection_index,
                         std::uint32_t test_case) {
    return outcome[manifest.flat_index(injection_index, test_case)] ==
           RunOutcome::kPending;
  };
  // Durability point: the record reaches its shard (and is flushed) before
  // the worker picks up another run, so a crash can lose at most the runs
  // still in flight -- never a completed one.
  hooks.on_record = [&](const fi::InjectionRecord& record) {
    const std::size_t flat =
        manifest.flat_index(record.injection_index, record.test_case);
    RecordStamp stamp = stamp_of(record);
    stamp.fingerprint = fingerprints[flat];
    writer.append(stamp, record.report);
    outcome[flat] = record.report.any_divergence()
                        ? RunOutcome::kExecutedDiverged
                        : RunOutcome::kExecuted;
    if (misses != nullptr) misses->add(1);
  };
  fi::run_campaign(runner, config, hooks);

  std::array<std::size_t, kOutcomeCount> tally{};
  for (const RunOutcome o : outcome) ++tally[static_cast<std::size_t>(o)];
  const auto count = [&](RunOutcome o) {
    return tally[static_cast<std::size_t>(o)];
  };
  summary.diverged = count(RunOutcome::kExecutedDiverged);
  summary.executed = count(RunOutcome::kExecuted) + summary.diverged;
  summary.replayed = count(RunOutcome::kReplayed);
  summary.skipped_completed = count(RunOutcome::kJournaled);
  summary.skipped_foreign = count(RunOutcome::kForeign);
  summary.journal_bytes = writer.bytes_written() - journal_base_bytes;
  // Wall time spans the delta planning (fingerprints, stale detection)
  // and the resume scan too, not just the campaign.
  summary.wall_seconds =
      static_cast<double>(obs::steady_now_us() - wall_start_us) / 1e6;

  if (telemetry != nullptr) {
    obs::emit_event(
        telemetry, "delta.done",
        {{"executed", obs::Value(summary.executed)},
         {"skipped_completed", obs::Value(summary.skipped_completed)},
         {"skipped_foreign", obs::Value(summary.skipped_foreign)},
         {"total_runs", obs::Value(summary.total_runs)},
         {"diverged", obs::Value(summary.diverged)},
         {"journal_bytes", obs::Value(summary.journal_bytes)},
         {"wall_s", obs::Value(summary.wall_seconds)},
         {"replayed", obs::Value(summary.replayed)}});
  }

  summary.per_module.resize(model.module_count());
  for (core::ModuleId m = 0; m < model.module_count(); ++m) {
    summary.per_module[m].module = model.module_name(m);
    summary.per_module[m].invalidated = module_stale[m];
  }
  for (std::size_t flat = 0; flat < outcome.size(); ++flat) {
    const bool replayed = outcome[flat] == RunOutcome::kReplayed;
    const bool executed = outcome[flat] == RunOutcome::kExecuted ||
                          outcome[flat] == RunOutcome::kExecutedDiverged;
    if (!replayed && !executed) continue;
    for (core::ModuleId m : consumers_of_flat(flat)) {
      ++(replayed ? summary.per_module[m].replayed
                  : summary.per_module[m].executed);
    }
  }
  return summary;
}

}  // namespace propane::store

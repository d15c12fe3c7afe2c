// Journal-backed campaign session: the resume/append mechanics shared by
// run_journaled_campaign and run_delta_journaled_campaign.
//
// A session owns one pass over a campaign directory: it resume-scans the
// shards into the completed-run set, opens this session's own shard files,
// and hands out fi::CampaignHooks that (a) filter runs already journaled or
// owned by another process of a split and (b) append every executed record
// durably before the worker thread picks up another run. The two callers
// differ only in what they layer on top (nothing, or delta replay
// bookkeeping) -- the crash-safety story lives here, once.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fi/campaign.hpp"
#include "obs/telemetry.hpp"
#include "store/resume.hpp"
#include "store/sharded_writer.hpp"

namespace propane::store {

namespace detail {
/// "0x%016llx" formatting for manifest identities in diagnostics.
std::string hex64(std::uint64_t value);
/// Hard error unless the two manifests describe the same campaign plan.
void require_same_manifest(const Manifest& expected, const Manifest& found,
                           const std::string& where);
}  // namespace detail

/// Snapshot of a session's shared bookkeeping, taken by finish().
struct SessionTally {
  std::size_t executed = 0;           // runs performed this session
  std::size_t skipped_completed = 0;  // already in the journal
  std::size_t skipped_foreign = 0;    // owned by another process index
  std::size_t diverged = 0;           // executed runs with >= 1 divergence
  std::uint64_t journal_bytes = 0;    // bytes this session appended
  double wall_seconds = 0.0;          // since session construction
};

class JournaledCampaignSession {
 public:
  /// Resume-scans `dir` (a hard error if it belongs to a different plan
  /// than `config`) and opens this session's shard writer.
  JournaledCampaignSession(const fi::CampaignConfig& config,
                           const std::filesystem::path& dir,
                           const JournalRunOptions& options);
  ~JournaledCampaignSession();

  JournaledCampaignSession(const JournaledCampaignSession&) = delete;
  JournaledCampaignSession& operator=(const JournaledCampaignSession&) =
      delete;

  std::size_t total_runs() const { return manifest_.total_runs(); }
  const std::vector<std::string>& warnings() const { return warnings_; }

  /// Hooks wired to this session's filter and journal sink. Callers may
  /// copy and extend them (the delta path wraps on_record and adds replay
  /// handling) but the returned should_run/on_record must stay in the
  /// chain -- they are the crash-safety seam. Valid for the session's
  /// lifetime; thread-safe as fi::CampaignHooks requires.
  fi::CampaignHooks hooks();

  /// Appends a record outside the executed-run path (delta replays) so it
  /// still lands in this session's shards and the byte/progress tallies.
  void append_replayed(const fi::InjectionRecord& record);

  /// Records the resume scan reloaded, paired with their flat indices.
  /// Only populated when options.collect_records; callers move them into
  /// CampaignResult::records after the campaign.
  std::vector<std::pair<std::size_t, fi::InjectionRecord>>& reloaded() {
    return reloaded_;
  }

  /// Snapshots the counters, flushes progress, and emits `done_event` with
  /// the shared fields plus `extra_fields`. Call once, after the campaign.
  SessionTally finish(std::string_view done_event,
                      std::vector<obs::Field> extra_fields = {});

 private:
  Manifest manifest_;
  JournalRunOptions options_;
  const obs::Telemetry* telemetry_ = nullptr;
  obs::ProgressReporter* progress_ = nullptr;
  std::vector<std::string> warnings_;
  std::vector<bool> completed_;
  std::vector<std::pair<std::size_t, fi::InjectionRecord>> reloaded_;
  std::unique_ptr<ShardedJournalWriter> writer_;
  std::uint64_t journal_base_bytes_ = 0;
  std::uint64_t wall_start_us_ = 0;

  std::atomic<std::size_t> executed_{0};
  std::atomic<std::size_t> skipped_completed_{0};
  std::atomic<std::size_t> skipped_foreign_{0};
  std::atomic<std::size_t> diverged_{0};
};

}  // namespace propane::store

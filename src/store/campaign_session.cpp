#include "store/campaign_session.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

#include "common/contracts.hpp"
#include "obs/clock.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"

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

JournaledCampaignSession::JournaledCampaignSession(
    const fi::CampaignConfig& config, const std::filesystem::path& dir,
    const JournalRunOptions& options)
    : manifest_(manifest_for(config)), options_(options) {
  PROPANE_REQUIRE(options_.process_count > 0);
  PROPANE_REQUIRE(options_.process_index < options_.process_count);
  telemetry_ =
      (options_.telemetry != nullptr && options_.telemetry->enabled())
          ? options_.telemetry
          : nullptr;
  progress_ = options_.progress;
  wall_start_us_ = obs::steady_now_us();

  // Reload phase: rebuild the completed-run set (and keep the records when
  // the caller wants an in-memory CampaignResult too).
  CampaignDirState state;
  {
    obs::Span scan_span(telemetry_, "journal.resume_scan");
    const std::uint64_t scan_start_us = obs::steady_now_us();
    state = scan_campaign_dir(
        dir, options_.collect_records
                 ? std::function<void(fi::InjectionRecord&&, std::size_t)>(
                       [&](fi::InjectionRecord&& record, std::size_t flat) {
                         reloaded_.emplace_back(flat, std::move(record));
                       })
                 : nullptr);
    if (telemetry_ != nullptr) {
      const std::uint64_t scan_us = obs::steady_now_us() - scan_start_us;
      if (auto* gauge =
              obs::find_gauge(telemetry_, "journal.resume.scan_ms")) {
        gauge->set(static_cast<double>(scan_us) / 1000.0);
      }
      obs::emit_event(
          telemetry_, "journal.resume_scan",
          {{"dir", obs::Value(dir.string())},
           {"completed", obs::Value(state.completed_count)},
           {"duplicates", obs::Value(state.duplicate_count)},
           {"warnings", obs::Value(state.warnings.size())},
           {"dur_us", obs::Value(scan_us)}});
    }
  }
  if (!state.fresh) {
    detail::require_same_manifest(manifest_, state.manifest, dir.string());
  }
  warnings_ = std::move(state.warnings);
  completed_ = std::move(state.completed);
  if (completed_.empty()) completed_.assign(manifest_.total_runs(), false);

  // shard_count 0 = auto: one shard per campaign pool thread, so the
  // parallel batch path appends journal records without shard contention.
  std::size_t shard_count = options_.shard_count;
  if (shard_count == 0) {
    shard_count =
        config.threads > 0
            ? config.threads
            : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  writer_ = std::make_unique<ShardedJournalWriter>(
      dir, manifest_, shard_count, telemetry_);
  if (progress_ != nullptr) {
    progress_->set_total(manifest_.total_runs());
    progress_->set_journal(writer_->bytes_written(), writer_->shard_count());
  }
  journal_base_bytes_ = writer_->bytes_written();
}

JournaledCampaignSession::~JournaledCampaignSession() = default;

fi::CampaignHooks JournaledCampaignSession::hooks() {
  fi::CampaignHooks hooks;
  hooks.collect_records = options_.collect_records;
  hooks.telemetry = telemetry_;
  // `completed_` is only read here (writes all happened during the scan),
  // so concurrent calls from worker threads are safe.
  hooks.should_run = [this](std::uint32_t injection_index,
                            std::uint32_t test_case) {
    const std::size_t flat =
        manifest_.flat_index(injection_index, test_case);
    if (completed_[flat]) {
      skipped_completed_.fetch_add(1, std::memory_order_relaxed);
      if (progress_ != nullptr) progress_->add_skipped(1);
      return false;
    }
    if (flat % options_.process_count != options_.process_index) {
      skipped_foreign_.fetch_add(1, std::memory_order_relaxed);
      if (progress_ != nullptr) progress_->add_skipped(1);
      return false;
    }
    return true;
  };
  // Durability point: the record reaches its shard (and is flushed) before
  // the worker picks up another run, so a crash can lose at most the runs
  // still in flight -- never a completed one.
  hooks.on_record = [this](const fi::InjectionRecord& record) {
    writer_->append(record);
    executed_.fetch_add(1, std::memory_order_relaxed);
    const bool hit = record.report.any_divergence();
    if (hit) diverged_.fetch_add(1, std::memory_order_relaxed);
    if (progress_ != nullptr) {
      progress_->set_journal(writer_->bytes_written(),
                             writer_->shard_count());
      progress_->add_completed(1, hit);
    }
  };
  return hooks;
}

void JournaledCampaignSession::append_replayed(
    const fi::InjectionRecord& record) {
  writer_->append(record);
  if (progress_ != nullptr) {
    progress_->set_journal(writer_->bytes_written(), writer_->shard_count());
    progress_->add_replayed(1);
  }
}

SessionTally JournaledCampaignSession::finish(
    std::string_view done_event, std::vector<obs::Field> extra_fields) {
  SessionTally tally;
  tally.executed = executed_.load();
  tally.skipped_completed = skipped_completed_.load();
  tally.skipped_foreign = skipped_foreign_.load();
  tally.diverged = diverged_.load();
  tally.journal_bytes = writer_->bytes_written() - journal_base_bytes_;
  tally.wall_seconds =
      static_cast<double>(obs::steady_now_us() - wall_start_us_) / 1e6;

  if (progress_ != nullptr) progress_->finish();
  if (telemetry_ != nullptr) {
    std::vector<obs::Field> fields = {
        {"executed", obs::Value(tally.executed)},
        {"skipped_completed", obs::Value(tally.skipped_completed)},
        {"skipped_foreign", obs::Value(tally.skipped_foreign)},
        {"total_runs", obs::Value(manifest_.total_runs())},
        {"diverged", obs::Value(tally.diverged)},
        {"journal_bytes", obs::Value(tally.journal_bytes)},
        {"wall_s", obs::Value(tally.wall_seconds)}};
    for (obs::Field& f : extra_fields) fields.push_back(std::move(f));
    obs::emit_event(telemetry_, std::string(done_event), std::move(fields));
  }
  return tally;
}

}  // namespace propane::store

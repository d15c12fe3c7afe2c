// Append-only campaign journal: the durable form of a fault-injection
// campaign's raw results.
//
// The in-memory CampaignResult loses everything on a crash; at the target
// scale (millions of injection runs, sharded across processes) every
// completed run must hit disk before the next one starts. A journal shard
// is a single append-only file:
//
//   offset 0: magic "PROPJRNL" (8 bytes) | u32 version
//   then frames: u32 payload_length | u32 crc32(payload) | payload
//   payload:    u8 RecordType | type-specific body (store/record_codec.hpp)
//
// The first frame is always the campaign manifest; every later frame is one
// injection result. Frames are written in runs: an executed record is a run
// of one, flushed before the worker moves on; delta-campaign replays
// (store/result_cache.hpp) go out in bounded runs, one write and one flush
// each. After a crash the file holds every committed run plus at most one
// torn tail -- and a replay run lost that way is rebuilt from the baseline
// on resume.
//
// Reader semantics (exercised by tests/store/journal_test.cpp): one
// reader, scan_journal_file, parses every shard in one read and hands its
// caller the manifest before the first record;
//   * a truncated tail frame (header or payload runs past EOF) is the
//     expected residue of a crash: it is skipped and reported as a warning;
//   * a CRC mismatch on a *complete* frame means real corruption and is a
//     hard error (ContractViolation) -- silently dropping mid-file records
//     would bias every estimate derived from the journal;
//   * an empty directory simply means a fresh campaign (store/resume.hpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "store/record_codec.hpp"

namespace propane::obs {
class Counter;
class EventSink;
struct Telemetry;
}  // namespace propane::obs

namespace propane::store {

inline constexpr char kJournalMagic[8] = {'P', 'R', 'O', 'P',
                                          'J', 'R', 'N', 'L'};
/// Version history (the header version selects the record layout, see
/// store/record_codec.hpp):
///   v1: injection records embedded the error-model name;
///   v2: the name is resolved via injection_index against the plan;
///   v3: records carry a content-address fingerprint + flags byte
///       (delta campaigns, store/result_cache.hpp).
/// Writers always emit kJournalVersion; readers accept every version from
/// kMinJournalVersion up -- older records simply decode with fingerprint 0,
/// which the delta engine treats as a cache miss.
inline constexpr std::uint32_t kJournalVersion = 3;
inline constexpr std::uint32_t kMinJournalVersion = 1;
/// Upper bound on one frame's payload; anything larger is corruption (a
/// record is a few hundred bytes even on very wide buses).
inline constexpr std::uint32_t kMaxRecordBytes = 1u << 26;

/// Records copied from elsewhere -- baseline replays, merged shards --
/// commit in runs of at most about this many framed bytes: one write and
/// one flush per run, and a pending buffer that stays small whatever the
/// source's size.
inline constexpr std::size_t kReplayRunBytes = 64 * 1024;

/// Writes one journal shard. The constructor creates the file and persists
/// the header + manifest immediately, so even an empty shard identifies its
/// campaign. Records are framed into one reusable buffer by stage() and
/// reach the file, with one write and one flush, at commit(); append() is
/// the run of one record. A crash can tear at most the run being written,
/// never a committed one.
class JournalWriter {
 public:
  /// `path` must not already exist (shards are never appended to across
  /// sessions -- resume opens fresh shard files instead, leaving any torn
  /// tail behind for the reader to skip). `telemetry` (optional,
  /// non-owning) adds the journal.appends / journal.append.bytes /
  /// journal.flushes counters, counted at commit; no event is logged per
  /// record.
  JournalWriter(const std::filesystem::path& path, const Manifest& manifest,
                const obs::Telemetry* telemetry = nullptr);

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Frames one record into the pending run; nothing is written yet.
  void stage(const RecordStamp& stamp, const fi::DivergenceReport& report);
  /// Writes the pending run with one call and flushes it. Executed records
  /// commit one by one; replays commit in bounded runs.
  void commit();
  /// stage() + commit(): one record, durable on return.
  void append(const RecordStamp& stamp, const fi::DivergenceReport& report);
  void append(const fi::InjectionRecord& record);
  void flush();

  const std::filesystem::path& path() const { return path_; }
  /// Committed records and bytes (header included).
  std::size_t record_count() const { return record_count_; }
  std::size_t bytes_written() const { return bytes_written_; }
  /// Bytes framed by stage() and not yet committed.
  std::size_t staged_bytes() const { return pending_.size(); }

 private:
  template <typename EncodeBody>
  void frame(RecordType type, const EncodeBody& encode_body);
  void write_pending();

  std::filesystem::path path_;
  std::ofstream out_;
  std::vector<std::uint8_t> pending_;  // framed, not yet written
  std::size_t staged_records_ = 0;
  std::size_t record_count_ = 0;
  std::size_t bytes_written_ = 0;
  // Telemetry handles, resolved at construction; null when disabled.
  obs::Counter* appends_ = nullptr;
  obs::Counter* append_bytes_ = nullptr;
  obs::Counter* flushes_ = nullptr;
};

/// Outcome of scanning one shard file.
struct JournalScan {
  std::size_t record_count = 0;
  /// True when the file ended inside a frame (crash residue); the partial
  /// frame was skipped and `warning` describes it. A shard that tore
  /// before its manifest frame hit the disk is torn and contributes
  /// nothing.
  bool torn_tail = false;
  std::string warning;
};

/// Scans a shard in one read: `on_manifest` (may be null) receives the
/// manifest before the first record is decoded -- it is not called when
/// the manifest frame tore -- then `sink` (may be null to just validate /
/// count) every injection record. A throw from
/// `on_manifest` -- a manifest of another campaign -- stops the scan before
/// any record reaches `sink`. See the header comment for the torn-tail vs.
/// corruption semantics.
JournalScan scan_journal_file(
    const std::filesystem::path& path,
    const std::function<void(const Manifest&)>& on_manifest,
    const std::function<void(fi::InjectionRecord&&)>& sink);

}  // namespace propane::store

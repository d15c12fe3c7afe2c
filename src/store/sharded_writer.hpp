// Sharded journal writer: one shard file per writer slot, so campaign
// worker threads append concurrently without serialising on a single file
// lock, and independent processes can write disjoint shards into the same
// campaign directory.
//
// Shard files are named shard-NNNNNN.pjl. A writer session always opens
// *new* shard files (numbered after any already present), never appends to
// existing ones: an old shard's tail may be torn from a crash, and
// append-only-per-session keeps every file immutable once its writer is
// gone -- which is what makes merge and resume trivially safe.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "store/journal.hpp"

namespace propane::store {

class ShardedJournalWriter {
 public:
  /// Creates `shard_count` fresh shard files in `dir` (the directory is
  /// created if missing), each carrying `manifest`. `telemetry` (optional,
  /// non-owning) is forwarded to every shard writer. Shards are named
  /// shard-NNNNNN.pjl, numbered past every shard already in `dir`.
  ShardedJournalWriter(const std::filesystem::path& dir,
                       const Manifest& manifest, std::size_t shard_count = 1,
                       const obs::Telemetry* telemetry = nullptr);

  /// Thread-safe append of one record, durable on return. The record's
  /// flat run index picks the shard (shard_of), so the record-to-shard
  /// assignment is deterministic and two threads only contend when they
  /// finish runs of the same shard at the same moment.
  void append(const RecordStamp& stamp, const fi::DivergenceReport& report);
  void append(const fi::InjectionRecord& record);

  /// Shard that holds flat run index `flat`.
  std::size_t shard_of(std::size_t flat) const { return flat % shards_.size(); }
  /// Runs `write` on shard `shard`'s writer under its lock, so a sequence
  /// of stage()/commit() calls lands in that shard uninterrupted.
  void with_shard(std::size_t shard,
                  const std::function<void(JournalWriter&)>& write);

  void flush_all();

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t record_count() const;
  /// Bytes written across all shards this session, headers included; sums
  /// the shards under their locks.
  std::uint64_t bytes_written() const;

  /// Shard files of a campaign directory, sorted by name (and thus by
  /// creation order).
  static std::vector<std::filesystem::path> list_shards(
      const std::filesystem::path& dir);

 private:
  struct Shard {
    std::mutex mu;
    std::optional<JournalWriter> writer;
  };

  Manifest manifest_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace propane::store

#include "store/sharded_writer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/contracts.hpp"

namespace propane::store {

namespace {

std::string shard_name(std::size_t index) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "shard-%06zu.pjl", index);
  return buffer;
}

/// Index one past the highest existing shard number in `dir`. The number
/// follows the stem's last dash, so journals that also hold tagged shards
/// (shard-<tag>-NNNNNN.pjl, written by older builds) still number past
/// them.
std::size_t next_shard_index(const std::filesystem::path& dir) {
  std::size_t next = 0;
  for (const auto& path : ShardedJournalWriter::list_shards(dir)) {
    const std::string stem = path.stem().string();  // "shard-NNNNNN"
    const std::size_t dash = stem.rfind('-');
    if (dash == std::string::npos) continue;
    const std::size_t index =
        static_cast<std::size_t>(std::strtoull(stem.c_str() + dash + 1,
                                               nullptr, 10));
    next = std::max(next, index + 1);
  }
  return next;
}

}  // namespace

ShardedJournalWriter::ShardedJournalWriter(const std::filesystem::path& dir,
                                           const Manifest& manifest,
                                           std::size_t shard_count,
                                           const obs::Telemetry* telemetry)
    : manifest_(manifest) {
  PROPANE_REQUIRE(shard_count > 0);
  std::filesystem::create_directories(dir);
  // Numbering starts past every shard already present, so sorted shard
  // names preserve session order.
  const std::size_t base = next_shard_index(dir);
  shards_.reserve(shard_count);
  for (std::size_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->writer.emplace(dir / shard_name(base + i), manifest_,
                          telemetry);
    shards_.push_back(std::move(shard));
  }
}

void ShardedJournalWriter::append(const RecordStamp& stamp,
                                  const fi::DivergenceReport& report) {
  with_shard(shard_of(manifest_.flat_index(stamp.injection_index,
                                           stamp.test_case)),
             [&](JournalWriter& shard) { shard.append(stamp, report); });
}

void ShardedJournalWriter::append(const fi::InjectionRecord& record) {
  append(stamp_of(record), record.report);
}

void ShardedJournalWriter::with_shard(
    std::size_t shard, const std::function<void(JournalWriter&)>& write) {
  PROPANE_REQUIRE(shard < shards_.size());
  Shard& slot = *shards_[shard];
  std::lock_guard lock(slot.mu);
  write(*slot.writer);
}

void ShardedJournalWriter::flush_all() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    shard->writer->flush();
  }
}

std::size_t ShardedJournalWriter::record_count() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    total += shard->writer->record_count();
  }
  return total;
}

std::uint64_t ShardedJournalWriter::bytes_written() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    total += shard->writer->bytes_written();
  }
  return total;
}

std::vector<std::filesystem::path> ShardedJournalWriter::list_shards(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> shards;
  if (!std::filesystem::is_directory(dir)) return shards;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.starts_with("shard-") && name.ends_with(".pjl")) {
      shards.push_back(entry.path());
    }
  }
  std::sort(shards.begin(), shards.end());
  return shards;
}

}  // namespace propane::store

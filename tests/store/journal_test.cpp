#include "store/journal.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "store/resume.hpp"
#include "store/sharded_writer.hpp"

namespace propane::store {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Manifest test_manifest() {
  Manifest manifest;
  manifest.plan_hash = 0x1234;
  manifest.seed = 7;
  manifest.test_case_count = 2;
  manifest.injection_count = 4;
  return manifest;
}

fi::InjectionRecord make_record(std::uint32_t injection,
                                std::uint32_t test_case) {
  fi::InjectionRecord record;
  record.injection_index = injection;
  record.test_case = test_case;
  record.target = 1;
  record.report = fi::DivergenceReport(4);
  record.report.note(2, 10 + injection, 1, 2);
  return record;
}

/// What one scan of a shard handed over, and its outcome.
struct ShardScan {
  std::optional<Manifest> manifest;
  std::vector<fi::InjectionRecord> records;
  JournalScan outcome;
};

ShardScan scan_shard(const fs::path& path) {
  ShardScan shard;
  shard.outcome = scan_journal_file(
      path, [&](const Manifest& manifest) { shard.manifest = manifest; },
      [&](fi::InjectionRecord&& r) { shard.records.push_back(std::move(r)); });
  return shard;
}

TEST(Journal, WriteThenScanRoundTrips) {
  const fs::path dir = fresh_dir("journal_roundtrip");
  const fs::path file = dir / "shard-000000.pjl";
  {
    JournalWriter writer(file, test_manifest());
    writer.append(make_record(0, 0));
    writer.append(make_record(1, 1));
    EXPECT_EQ(writer.record_count(), 2u);
    EXPECT_GT(writer.bytes_written(), 0u);
  }
  const ShardScan shard = scan_shard(file);
  EXPECT_EQ(shard.manifest, test_manifest());
  EXPECT_FALSE(shard.outcome.torn_tail);
  const auto& records = shard.records;
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].injection_index, 0u);
  EXPECT_EQ(records[1].test_case, 1u);
  EXPECT_TRUE(records[1].report.per_signal[2].diverged);
  EXPECT_EQ(records[1].report.per_signal[2].first_ms, 11u);
}

TEST(Journal, WriterRefusesExistingFile) {
  const fs::path dir = fresh_dir("journal_exists");
  const fs::path file = dir / "shard-000000.pjl";
  { JournalWriter writer(file, test_manifest()); }
  EXPECT_THROW(JournalWriter(file, test_manifest()), ContractViolation);
}

TEST(Journal, ManifestReachesTheCallerBeforeAnyRecord) {
  const fs::path dir = fresh_dir("journal_manifest_first");
  const fs::path file = dir / "shard-000000.pjl";
  {
    JournalWriter writer(file, test_manifest());
    writer.append(make_record(0, 0));
    writer.append(make_record(1, 0));
  }
  std::vector<std::string> order;
  const JournalScan scan = scan_journal_file(
      file,
      [&](const Manifest& manifest) {
        EXPECT_EQ(manifest, test_manifest());
        order.push_back("manifest");
      },
      [&](fi::InjectionRecord&&) { order.push_back("record"); });
  EXPECT_EQ(order,
            (std::vector<std::string>{"manifest", "record", "record"}));
  EXPECT_EQ(scan.record_count, 2u);

  // A manifest the caller refuses stops the scan before any record.
  std::size_t records = 0;
  EXPECT_THROW(scan_journal_file(
                   file,
                   [](const Manifest&) {
                     throw std::runtime_error("another campaign");
                   },
                   [&](fi::InjectionRecord&&) { ++records; }),
               std::runtime_error);
  EXPECT_EQ(records, 0u);
}

TEST(Journal, TruncatedTailIsSkippedWithWarning) {
  const fs::path dir = fresh_dir("journal_torn");
  const fs::path file = dir / "shard-000000.pjl";
  {
    JournalWriter writer(file, test_manifest());
    writer.append(make_record(0, 0));
    writer.append(make_record(1, 0));
  }
  // Chop into the last frame: the crash left a partial append behind.
  const auto full_size = fs::file_size(file);
  fs::resize_file(file, full_size - 5);

  const ShardScan shard = scan_shard(file);
  EXPECT_TRUE(shard.manifest.has_value());
  EXPECT_TRUE(shard.outcome.torn_tail);
  EXPECT_FALSE(shard.outcome.warning.empty());
  ASSERT_EQ(shard.records.size(), 1u);  // the complete record survives
  EXPECT_EQ(shard.records[0].injection_index, 0u);
}

TEST(Journal, TailTornInsideTheFrameHeaderIsAlsoSkipped) {
  const fs::path dir = fresh_dir("journal_torn_header");
  const fs::path file = dir / "shard-000000.pjl";
  std::size_t manifest_only_size = 0;
  {
    JournalWriter writer(file, test_manifest());
    manifest_only_size = writer.bytes_written();
    writer.append(make_record(0, 0));
  }
  // Keep only 3 bytes of the record frame's length/CRC header.
  fs::resize_file(file, manifest_only_size + 3);
  const ShardScan shard = scan_shard(file);
  EXPECT_TRUE(shard.manifest.has_value());
  EXPECT_TRUE(shard.outcome.torn_tail);
  EXPECT_TRUE(shard.records.empty());
}

TEST(Journal, MidFileCorruptionIsAHardError) {
  const fs::path dir = fresh_dir("journal_corrupt");
  const fs::path file = dir / "shard-000000.pjl";
  std::size_t first_record_offset = 0;
  {
    JournalWriter writer(file, test_manifest());
    first_record_offset = writer.bytes_written();
    writer.append(make_record(0, 0));
    writer.append(make_record(1, 0));
  }
  // Flip one payload byte of the *first* record -- a complete frame whose
  // CRC no longer matches. That is corruption, not crash residue.
  {
    std::fstream stream(file,
                        std::ios::in | std::ios::out | std::ios::binary);
    stream.seekp(static_cast<std::streamoff>(first_record_offset) + 8 + 4);
    char byte = 0;
    stream.read(&byte, 1);
    stream.seekp(static_cast<std::streamoff>(first_record_offset) + 8 + 4);
    byte = static_cast<char>(byte ^ 0x40);
    stream.write(&byte, 1);
  }
  EXPECT_THROW(scan_shard(file), ContractViolation);
}

TEST(Journal, StagedRecordsReachTheFileOnlyAtCommit) {
  const fs::path dir = fresh_dir("journal_staged_run");
  const fs::path file = dir / "shard-000000.pjl";
  JournalWriter writer(file, test_manifest());
  const std::uintmax_t header_bytes = fs::file_size(file);
  for (std::uint32_t i = 0; i < 3; ++i) {
    const fi::InjectionRecord record = make_record(i, 1);
    writer.stage(stamp_of(record), record.report);
  }
  EXPECT_GT(writer.staged_bytes(), 0u);
  EXPECT_EQ(writer.record_count(), 0u);
  EXPECT_EQ(fs::file_size(file), header_bytes);

  writer.commit();
  EXPECT_EQ(writer.staged_bytes(), 0u);
  EXPECT_EQ(writer.record_count(), 3u);
  EXPECT_EQ(fs::file_size(file), writer.bytes_written());
  const auto records = scan_shard(file).records;
  ASSERT_EQ(records.size(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(records[i].injection_index, i);
    EXPECT_EQ(records[i].report.per_signal[2].first_ms, 10u + i);
  }
}

// A writer that died before its header reached the disk leaves a shard
// shorter than the 12-byte header: crash residue, reported and skipped.
TEST(Journal, ShardsShorterThanTheHeaderAreTornTails) {
  const fs::path dir = fresh_dir("journal_short_shards");
  {
    ShardedJournalWriter writer(dir, test_manifest(), 1);
    writer.append(make_record(0, 0));
    writer.append(make_record(1, 1));
  }
  const std::vector<char> header_prefix(11, 'P');
  std::ofstream(dir / "shard-000001.pjl", std::ios::binary);
  std::ofstream(dir / "shard-000002.pjl", std::ios::binary)
      .write(header_prefix.data(),
             static_cast<std::streamsize>(header_prefix.size()));
  for (const char* name : {"shard-000001.pjl", "shard-000002.pjl"}) {
    const ShardScan shard = scan_shard(dir / name);
    EXPECT_TRUE(shard.records.empty()) << name;
    EXPECT_TRUE(shard.outcome.torn_tail) << name;
    EXPECT_FALSE(shard.manifest.has_value()) << name;
    const std::string& warning = shard.outcome.warning;
    EXPECT_NE(warning.find("file shorter than the journal header"),
              std::string::npos)
        << warning;
  }

  const CampaignDirState state = scan_campaign_dir(dir);
  EXPECT_FALSE(state.fresh);
  EXPECT_EQ(state.manifest, test_manifest());
  EXPECT_EQ(state.completed_count, 2u);
  EXPECT_EQ(state.warnings.size(), 2u);
}

TEST(Journal, GarbageMagicIsAHardError) {
  const fs::path dir = fresh_dir("journal_magic");
  const fs::path file = dir / "shard-000000.pjl";
  std::ofstream(file, std::ios::binary) << "NOTAJRNL garbage";
  EXPECT_THROW(scan_shard(file), ContractViolation);
}

TEST(ShardedWriter, DistributesRecordsAndListsShards) {
  const fs::path dir = fresh_dir("journal_sharded");
  Manifest manifest = test_manifest();
  {
    ShardedJournalWriter writer(dir, manifest, 3);
    EXPECT_EQ(writer.shard_count(), 3u);
    for (std::uint32_t inj = 0; inj < manifest.injection_count; ++inj) {
      for (std::uint32_t tc = 0; tc < manifest.test_case_count; ++tc) {
        writer.append(make_record(inj, tc));
      }
    }
    EXPECT_EQ(writer.record_count(), manifest.total_runs());
  }
  const auto shards = ShardedJournalWriter::list_shards(dir);
  ASSERT_EQ(shards.size(), 3u);
  std::size_t total = 0;
  for (const auto& shard : shards) {
    const ShardScan scan = scan_shard(shard);
    total += scan.records.size();
    EXPECT_EQ(scan.manifest, manifest);
  }
  EXPECT_EQ(total, manifest.total_runs());
}

TEST(ShardedWriter, NewSessionsOpenFreshShards) {
  const fs::path dir = fresh_dir("journal_fresh_shards");
  { ShardedJournalWriter writer(dir, test_manifest(), 2); }
  { ShardedJournalWriter writer(dir, test_manifest(), 2); }
  EXPECT_EQ(ShardedJournalWriter::list_shards(dir).size(), 4u);
}

}  // namespace
}  // namespace propane::store

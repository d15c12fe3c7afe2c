// End-to-end durability tests: a campaign interrupted mid-flight and then
// resumed must be indistinguishable -- byte for byte -- from one that ran
// uninterrupted, and a campaign split across processes and merged must
// estimate exactly what a single process would have.
#include "store/resume.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/contracts.hpp"
#include "core/system_model.hpp"
#include "store/result_cache.hpp"

namespace propane::store {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;  // the campaign creates it
}

/// The miniature system of tests/fi/campaign_test.cpp: "src" is freshly
/// produced every tick, "dst" mirrors it with the low nibble masked off.
fi::TraceSet toy_run(const fi::RunRequest& request) {
  fi::SignalBus bus;
  const fi::BusSignalId src = bus.add_signal("src");
  const fi::BusSignalId dst = bus.add_signal("dst");
  std::optional<fi::InjectionDriver> injector;
  if (request.injection) {
    injector.emplace(bus, *request.injection, Rng(request.rng_seed));
  }
  fi::TraceRecorder recorder(bus);
  for (std::uint64_t ms = 0; ms < 10; ++ms) {
    bus.write(src, static_cast<std::uint16_t>(request.test_case * 100 + ms));
    if (injector) injector->maybe_fire(ms * sim::kMillisecond);
    bus.write(dst, static_cast<std::uint16_t>(bus.read(src) & 0xFFF0));
    recorder.sample();
  }
  return recorder.take();
}

fi::CampaignConfig toy_config() {
  fi::CampaignConfig config;
  config.test_case_count = 3;
  config.injections = {
      fi::InjectionSpec{0, 2 * sim::kMillisecond, fi::bit_flip(0)},
      fi::InjectionSpec{0, 2 * sim::kMillisecond, fi::bit_flip(8)},
      fi::InjectionSpec{0, 4 * sim::kMillisecond, fi::bit_flip(12)},
      fi::InjectionSpec{0, 6 * sim::kMillisecond, fi::random_replacement()},
  };
  config.threads = 2;
  return config;
}

/// Matching analysis model: system input "src" -> module M -> "dst".
core::SystemModel toy_model() {
  core::SystemModelBuilder builder;
  builder.add_module("M", {"in"}, {"dst"});
  builder.add_system_input("src");
  builder.connect_system_input("src", "M", "in");
  builder.add_system_output("out", "M", "dst");
  return std::move(builder).build();
}

fi::SignalBinding toy_binding(const core::SystemModel& model) {
  return fi::SignalBinding::by_name(model, {"src", "dst"});
}

/// A plain journaled run of `config`: the one journaled entry point with
/// an empty baseline, exactly as `campaign run` executes it.
DeltaJournalSummary run_journaled(const fi::CampaignRunner& runner,
                                  const fi::CampaignConfig& config,
                                  const fs::path& dir,
                                  const JournalRunOptions& options = {}) {
  const core::SystemModel model = toy_model();
  DeltaRunOptions delta;
  delta.base = options;
  return run_delta_journaled_campaign(runner, config, model,
                                      toy_binding(model), dir, ResultCache{},
                                      delta);
}

std::string journal_csv(const fs::path& dir) {
  const core::SystemModel model = toy_model();
  std::ostringstream out;
  write_permeability_csv_from_journal(out, dir, model, toy_binding(model));
  return out.str();
}

TEST(Resume, FreshDirectoryRunsTheWholeCampaign) {
  const fs::path dir = fresh_dir("resume_fresh");
  const DeltaJournalSummary summary =
      run_journaled(toy_run, toy_config(), dir);
  EXPECT_EQ(summary.total_runs, 12u);
  EXPECT_EQ(summary.executed, 12u);
  EXPECT_EQ(summary.skipped_completed, 0u);
  EXPECT_TRUE(summary.warnings.empty());

  const CampaignDirState state = scan_campaign_dir(dir);
  EXPECT_FALSE(state.fresh);
  EXPECT_EQ(state.completed_count, 12u);
  EXPECT_EQ(state.duplicate_count, 0u);
}

TEST(Resume, EmptyDirectoryMeansFreshCampaign) {
  const fs::path dir = fresh_dir("resume_empty");
  fs::create_directories(dir);
  const CampaignDirState state = scan_campaign_dir(dir);
  EXPECT_TRUE(state.fresh);
  EXPECT_EQ(state.completed_count, 0u);
  EXPECT_TRUE(state.warnings.empty());
}

TEST(Resume, CompletedCampaignResumesAsNoOp) {
  const fs::path dir = fresh_dir("resume_noop");
  run_journaled(toy_run, toy_config(), dir);
  const DeltaJournalSummary again =
      run_journaled(toy_run, toy_config(), dir);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.skipped_completed, 12u);
}

TEST(Resume, KilledCampaignResumesToAByteIdenticalCsv) {
  // Uninterrupted reference run.
  const fs::path clean_dir = fresh_dir("resume_clean");
  run_journaled(toy_run, toy_config(), clean_dir);
  const std::string clean_csv = journal_csv(clean_dir);

  // "Kill" a second campaign partway: after ~half the runs have been
  // journaled, every further run throws. The exception unwinds through the
  // campaign exactly like a crash would -- completed records are already
  // flushed, in-flight runs are lost.
  const fs::path killed_dir = fresh_dir("resume_killed");
  std::atomic<std::size_t> completed{0};
  const fi::RunFunction crashing_run = [&](const fi::RunRequest& request) {
    if (request.injection && completed.fetch_add(1) >= 6) {
      throw std::runtime_error("simulated crash");
    }
    return toy_run(request);
  };
  EXPECT_THROW(run_journaled(crashing_run, toy_config(), killed_dir),
               std::runtime_error);
  const CampaignDirState partial = scan_campaign_dir(killed_dir);
  EXPECT_FALSE(partial.fresh);
  EXPECT_GT(partial.completed_count, 0u);
  EXPECT_LT(partial.completed_count, 12u);

  // Resume. Only the missing runs execute, with the same derived seeds the
  // uninterrupted campaign used.
  const DeltaJournalSummary resumed =
      run_journaled(toy_run, toy_config(), killed_dir);
  EXPECT_EQ(resumed.executed + resumed.skipped_completed, 12u);
  EXPECT_EQ(resumed.skipped_completed, partial.completed_count);

  EXPECT_EQ(journal_csv(killed_dir), clean_csv);
}

TEST(Resume, MismatchedPlanIsRefused) {
  const fs::path dir = fresh_dir("resume_mismatch");
  run_journaled(toy_run, toy_config(), dir);
  fi::CampaignConfig other = toy_config();
  other.seed += 1;
  EXPECT_THROW(run_journaled(toy_run, other, dir),
               ContractViolation);
}

TEST(Merge, ProcessSplitMergedEqualsSingleProcessRun) {
  const fs::path single_dir = fresh_dir("merge_single");
  run_journaled(toy_run, toy_config(), single_dir);

  const fs::path part0 = fresh_dir("merge_part0");
  const fs::path part1 = fresh_dir("merge_part1");
  for (std::uint32_t index = 0; index < 2; ++index) {
    JournalRunOptions options;
    options.process_count = 2;
    options.process_index = index;
    options.shard_count = 2;
    const DeltaJournalSummary summary = run_journaled(
        toy_run, toy_config(), index == 0 ? part0 : part1, options);
    EXPECT_EQ(summary.executed, 6u);
    EXPECT_EQ(summary.skipped_foreign, 6u);
  }

  const fs::path merged = fresh_dir("merge_dest");
  const MergeSummary summary = merge_journals(merged, {part0, part1});
  EXPECT_EQ(summary.record_count, 12u);
  EXPECT_EQ(summary.duplicate_count, 0u);

  EXPECT_EQ(journal_csv(merged), journal_csv(single_dir));
}

TEST(Merge, OverlappingSourcesDeduplicate) {
  const fs::path full_a = fresh_dir("merge_dup_a");
  const fs::path full_b = fresh_dir("merge_dup_b");
  run_journaled(toy_run, toy_config(), full_a);
  run_journaled(toy_run, toy_config(), full_b);

  const fs::path merged = fresh_dir("merge_dup_dest");
  const MergeSummary summary = merge_journals(merged, {full_a, full_b});
  EXPECT_EQ(summary.record_count, 12u);
  EXPECT_EQ(summary.duplicate_count, 12u);
  EXPECT_EQ(journal_csv(merged), journal_csv(full_a));
}

TEST(Merge, MismatchedSourcesAreRefusedBeforeWriting) {
  const fs::path a = fresh_dir("merge_bad_a");
  run_journaled(toy_run, toy_config(), a);
  fi::CampaignConfig other = toy_config();
  other.test_case_count = 2;
  const fs::path b = fresh_dir("merge_bad_b");
  run_journaled(toy_run, other, b);

  const fs::path merged = fresh_dir("merge_bad_dest");
  EXPECT_THROW(merge_journals(merged, {a, b}), ContractViolation);
  // Validation happens before any write: no shard files appeared.
  EXPECT_TRUE(ShardedJournalWriter::list_shards(merged).empty());
}

/// The bytes of the one shard in `dir`.
std::vector<char> only_shard_bytes(const fs::path& dir) {
  const std::vector<fs::path> shards = ShardedJournalWriter::list_shards(dir);
  EXPECT_EQ(shards.size(), 1u) << dir;
  if (shards.empty()) return {};
  std::ifstream in(shards.front(), std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Merge, CopyIsByteIdenticalToRecordByRecordAppends) {
  // Enough records that the copy commits several bounded runs.
  Manifest manifest;
  manifest.plan_hash = 0x5EED;
  manifest.seed = 7;
  manifest.test_case_count = 2;
  manifest.injection_count = 2000;
  const auto record_of = [](std::size_t flat) {
    fi::InjectionRecord record;
    record.injection_index = static_cast<std::uint32_t>(flat / 2);
    record.test_case = static_cast<std::uint32_t>(flat % 2);
    record.target = static_cast<fi::BusSignalId>(flat % 3);
    record.when = (flat % 10) * sim::kMillisecond;
    record.fingerprint = flat * 0x9E3779B97F4A7C15ULL;
    record.report = fi::DivergenceReport(3);
    record.report.note(flat % 3, flat % 17, 0,
                       static_cast<std::uint16_t>(flat));
    return record;
  };
  // Two process-split halves: the even flats and the odd flats.
  const fs::path part0 = fresh_dir("merge_bytes_part0");
  const fs::path part1 = fresh_dir("merge_bytes_part1");
  {
    ShardedJournalWriter even(part0, manifest);
    ShardedJournalWriter odd(part1, manifest);
    for (std::size_t flat = 0; flat < manifest.total_runs(); ++flat) {
      (flat % 2 == 0 ? even : odd).append(record_of(flat));
    }
  }
  const fs::path merged = fresh_dir("merge_bytes_dest");
  const MergeSummary summary = merge_journals(merged, {part0, part1});
  EXPECT_EQ(summary.record_count, manifest.total_runs());

  // The same records in the merge's order, source by source, appended one
  // at a time.
  const fs::path reference = fresh_dir("merge_bytes_reference");
  {
    ShardedJournalWriter writer(reference, manifest);
    for (const std::size_t half : {0u, 1u}) {
      for (std::size_t flat = half; flat < manifest.total_runs(); flat += 2) {
        writer.append(record_of(flat));
      }
    }
  }
  const std::vector<char> bytes = only_shard_bytes(merged);
  EXPECT_GT(bytes.size(), 2 * kReplayRunBytes);
  EXPECT_EQ(bytes, only_shard_bytes(reference));
}

/// Flips one payload byte in the middle of the first record frame of the
/// first shard in `dir` that holds one: a complete frame whose CRC no
/// longer matches, i.e. corruption rather than crash residue.
void corrupt_first_record(const fs::path& dir) {
  const auto u32_at = [](const std::vector<char>& bytes, std::size_t at) {
    std::uint32_t value = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      value |= static_cast<std::uint32_t>(
                   static_cast<unsigned char>(bytes[at + i]))
               << (8 * i);
    }
    return value;
  };
  for (const fs::path& shard : ShardedJournalWriter::list_shards(dir)) {
    std::vector<char> bytes(fs::file_size(shard));
    std::ifstream(shard, std::ios::binary)
        .read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    // Header (magic + version), then the manifest frame, then records.
    const std::size_t header = sizeof(kJournalMagic) + 4;
    const std::size_t record = header + 8 + u32_at(bytes, header);
    if (bytes.size() <= record + 8) continue;
    bytes[record + 8 + u32_at(bytes, record) / 2] ^= 0x40;
    std::ofstream(shard, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    return;
  }
  FAIL() << "no record frame in " << dir;
}

TEST(Merge, CorruptSourceIsRefusedBeforeWriting) {
  const fs::path part0 = fresh_dir("merge_corrupt_part0");
  const fs::path part1 = fresh_dir("merge_corrupt_part1");
  for (std::uint32_t index = 0; index < 2; ++index) {
    JournalRunOptions options;
    options.process_count = 2;
    options.process_index = index;
    run_journaled(toy_run, toy_config(), index == 0 ? part0 : part1,
                  options);
  }
  corrupt_first_record(part1);

  // The first source is sound; only a full scan of the second finds the
  // bad frame, and it must do so before the first is copied.
  const fs::path merged = fresh_dir("merge_corrupt_dest");
  EXPECT_THROW(merge_journals(merged, {part0, part1}), ContractViolation);
  EXPECT_TRUE(ShardedJournalWriter::list_shards(merged).empty());
}

TEST(Merge, SourceWithoutShardsIsRefusedBeforeWriting) {
  const fs::path a = fresh_dir("merge_empty_a");
  run_journaled(toy_run, toy_config(), a);
  const fs::path empty = fresh_dir("merge_empty_src");
  fs::create_directories(empty);

  const fs::path merged = fresh_dir("merge_empty_dest");
  EXPECT_THROW(merge_journals(merged, {a, empty}), ContractViolation);
  EXPECT_TRUE(ShardedJournalWriter::list_shards(merged).empty());
}

TEST(Merge, DuplicatedSourceDirectoryIsRefusedBeforeWriting) {
  const fs::path a = fresh_dir("merge_twice_a");
  run_journaled(toy_run, toy_config(), a);

  // The same directory listed twice would silently fold into an
  // all-duplicates no-op; it is almost certainly a caller mistake.
  const fs::path merged = fresh_dir("merge_twice_dest");
  EXPECT_THROW(merge_journals(merged, {a, a}), ContractViolation);
  EXPECT_TRUE(ShardedJournalWriter::list_shards(merged).empty());
}

TEST(Merge, DestinationGivenAsASourceIsRefused) {
  const fs::path a = fresh_dir("merge_self_a");
  run_journaled(toy_run, toy_config(), a);
  EXPECT_THROW(merge_journals(a, {a}), ContractViolation);
}

TEST(Stats, StreamingEstimateMatchesInMemoryEstimation) {
  const fs::path dir = fresh_dir("stats_match");
  run_journaled(toy_run, toy_config(), dir);

  const core::SystemModel model = toy_model();
  const fi::SignalBinding binding = toy_binding(model);
  const JournalStats stats = estimate_from_journal(dir, model, binding);
  EXPECT_EQ(stats.record_count, 12u);

  const fi::CampaignResult campaign = fi::run_campaign(toy_run, toy_config());
  const fi::EstimationResult reference =
      fi::estimate_permeability(model, binding, campaign);
  ASSERT_EQ(stats.estimation.pairs.size(), reference.pairs.size());
  for (std::size_t p = 0; p < reference.pairs.size(); ++p) {
    EXPECT_EQ(stats.estimation.pairs[p].injections,
              reference.pairs[p].injections);
    EXPECT_EQ(stats.estimation.pairs[p].errors, reference.pairs[p].errors);
  }
  EXPECT_DOUBLE_EQ(stats.estimation.permeability.get(0, 0, 0),
                   reference.permeability.get(0, 0, 0));
}

TEST(Stats, EmptyJournalDirectoryIsRefused)
{
  const fs::path dir = fresh_dir("stats_empty");
  fs::create_directories(dir);
  const core::SystemModel model = toy_model();
  const fi::SignalBinding binding =
      fi::SignalBinding::by_name(model, {"src", "dst"});
  EXPECT_THROW(estimate_from_journal(dir, model, binding), ContractViolation);
}

}  // namespace
}  // namespace propane::store

// Durable delta-campaign tests: an incremental run against a baseline
// journal must estimate byte-for-byte what a cold run estimates, survive a
// mid-flight kill, chain as the next delta's baseline, and degrade
// gracefully to a full run over pre-v3 (unfingerprinted) baselines.
#include "store/result_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "common/contracts.hpp"
#include "core/system_model.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "store/journal.hpp"
#include "store/resume.hpp"

namespace propane::store {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

/// The two-module accumulator chain of tests/fi/delta_campaign_test.cpp:
/// src -> M1 -> mid -> M2 -> dst, every signal accumulating so corruption
/// persists. `m2_mask` parameterises M2's behaviour.
fi::TraceSet chain_run(const fi::RunRequest& request, std::uint16_t m2_mask) {
  fi::SignalBus bus;
  const fi::BusSignalId src = bus.add_signal("src");
  const fi::BusSignalId mid = bus.add_signal("mid");
  const fi::BusSignalId dst = bus.add_signal("dst");
  std::optional<fi::InjectionDriver> injector;
  if (request.injection) {
    injector.emplace(bus, *request.injection, Rng(request.rng_seed));
  }
  fi::TraceRecorder recorder(bus);
  for (std::uint64_t ms = 0; ms < 10; ++ms) {
    if (injector) injector->maybe_fire(ms * sim::kMillisecond);
    bus.write(src, static_cast<std::uint16_t>(
                       bus.read(src) + request.test_case + 3 * ms + 1));
    bus.write(mid, static_cast<std::uint16_t>(bus.read(mid) + bus.read(src)));
    bus.write(dst, static_cast<std::uint16_t>(
                       bus.read(dst) + (bus.read(mid) & m2_mask)));
    recorder.sample();
  }
  return recorder.take();
}

fi::RunFunction chain_runner(std::uint16_t m2_mask = 0xFFFF) {
  return [m2_mask](const fi::RunRequest& request) {
    return chain_run(request, m2_mask);
  };
}

core::SystemModel chain_model() {
  core::SystemModelBuilder builder;
  builder.add_module("M1", {"src"}, {"mid"});
  builder.add_module("M2", {"mid"}, {"dst"});
  builder.add_system_input("src");
  builder.connect_system_input("src", "M1", "src");
  builder.connect("M1", "mid", "M2", "mid");
  builder.add_system_output("dst", "M2", "dst");
  return std::move(builder).build();
}

fi::SignalBinding chain_binding(const core::SystemModel& model) {
  return fi::SignalBinding::by_name(model, {"src", "mid", "dst"});
}

/// Flats 0..7 target src (consumer M1), flats 8..15 target mid (consumer
/// M2); 16 runs total.
fi::CampaignConfig chain_config() {
  fi::CampaignConfig config;
  config.test_case_count = 2;
  const std::vector<fi::ErrorModel> models = {fi::bit_flip(2),
                                              fi::bit_flip(10)};
  const std::vector<sim::SimTime> instants = {2 * sim::kMillisecond,
                                              5 * sim::kMillisecond};
  for (const fi::BusSignalId target : {fi::BusSignalId{0},
                                       fi::BusSignalId{1}}) {
    const auto plan = fi::cross_product_plan(target, models, instants);
    config.injections.insert(config.injections.end(), plan.begin(),
                             plan.end());
  }
  config.seed = 0xABCD;
  config.threads = 2;
  return config;
}

fi::ModuleVersionMap v1_tokens() { return {{"M1", 1}, {"M2", 1}}; }

DeltaRunOptions delta_options(fi::ModuleVersionMap versions = v1_tokens()) {
  DeltaRunOptions options;
  options.module_versions = std::move(versions);
  return options;
}

std::string journal_csv(const fs::path& dir) {
  const core::SystemModel model = chain_model();
  const fi::SignalBinding binding = chain_binding(model);
  std::ostringstream out;
  write_permeability_csv_from_journal(out, dir, model, binding);
  return out.str();
}

/// Runs the reference cold campaign into `dir` through the delta runner
/// with an empty baseline (so its records carry fingerprints and can serve
/// as the next delta's baseline).
DeltaJournalSummary cold_delta_run(const fs::path& dir,
                                   std::uint16_t m2_mask = 0xFFFF) {
  const core::SystemModel model = chain_model();
  return run_delta_journaled_campaign(chain_runner(m2_mask), chain_config(),
                                      model, chain_binding(model), dir,
                                      ResultCache{}, delta_options());
}

TEST(ResultCache, MissingDirectoryLoadsAsEmptyCache) {
  const ResultCache cache = ResultCache::load(fresh_dir("cache_missing"));
  EXPECT_FALSE(cache.loaded());
  EXPECT_EQ(cache.record_count(), 0u);
  EXPECT_EQ(cache.unfingerprinted(), 0u);
  EXPECT_EQ(cache.find(0x1234), nullptr);
  EXPECT_EQ(cache.fingerprint_of_flat(0), 0u);
}

// A plain journaled run is this same path with an empty baseline; what it
// must match is the in-memory campaign, record for record, with every
// record fingerprinted so the journal can serve as a baseline.
TEST(ResultCache, EmptyBaselineDeltaMatchesPlainJournaledRunByteForByte) {
  const fs::path dir = fresh_dir("cache_empty_baseline");
  const DeltaJournalSummary summary = cold_delta_run(dir);
  EXPECT_EQ(summary.executed, 16u);
  EXPECT_EQ(summary.replayed, 0u);
  EXPECT_TRUE(summary.invalidated_modules.empty());

  const fi::CampaignResult cold =
      fi::run_campaign(chain_runner(), chain_config());
  const core::SystemModel model = chain_model();
  const std::vector<std::uint64_t> fingerprints = fi::run_fingerprints(
      chain_config(), model, chain_binding(model), v1_tokens());
  const CampaignDirState state = for_each_journal_record(
      dir, [&](const fi::InjectionRecord& got, std::size_t flat) {
        ASSERT_LT(flat, cold.records.size());
        const fi::InjectionRecord& want = cold.records[flat];
        EXPECT_EQ(got.injection_index, want.injection_index);
        EXPECT_EQ(got.test_case, want.test_case);
        EXPECT_EQ(got.target, want.target);
        EXPECT_EQ(got.when, want.when);
        EXPECT_EQ(got.fingerprint, fingerprints[flat]);
        EXPECT_NE(got.fingerprint, 0u);
        EXPECT_FALSE(got.replayed);
        ASSERT_EQ(got.report.per_signal.size(), want.report.per_signal.size());
        for (std::size_t s = 0; s < want.report.per_signal.size(); ++s) {
          const fi::Divergence& a = got.report.per_signal[s];
          const fi::Divergence& b = want.report.per_signal[s];
          EXPECT_EQ(a.diverged, b.diverged) << "flat " << flat;
          EXPECT_EQ(a.first_ms, b.first_ms) << "flat " << flat;
          EXPECT_EQ(a.golden_value, b.golden_value) << "flat " << flat;
          EXPECT_EQ(a.observed_value, b.observed_value) << "flat " << flat;
        }
      });
  EXPECT_EQ(state.completed_count, 16u);
  EXPECT_EQ(state.duplicate_count, 0u);
}

TEST(ResultCache, FullBaselineReplaysEverythingAndChains) {
  const fs::path base_dir = fresh_dir("cache_chain_base");
  cold_delta_run(base_dir);
  const std::string cold_csv = journal_csv(base_dir);

  const core::SystemModel model = chain_model();
  const fs::path second_dir = fresh_dir("cache_chain_second");
  const DeltaJournalSummary second = run_delta_journaled_campaign(
      chain_runner(), chain_config(), model, chain_binding(model), second_dir,
      ResultCache::load(base_dir), delta_options());
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.replayed, 16u);
  EXPECT_EQ(journal_csv(second_dir), cold_csv);
  const CampaignDirState state = scan_campaign_dir(second_dir);
  EXPECT_EQ(state.replayed_count, 16u);

  // The all-replayed output journal is itself a complete baseline.
  const fs::path third_dir = fresh_dir("cache_chain_third");
  const DeltaJournalSummary third = run_delta_journaled_campaign(
      chain_runner(), chain_config(), model, chain_binding(model), third_dir,
      ResultCache::load(second_dir), delta_options());
  EXPECT_EQ(third.executed, 0u);
  EXPECT_EQ(third.replayed, 16u);
  EXPECT_EQ(journal_csv(third_dir), cold_csv);
}

TEST(ResultCache, InvalidatedModuleReExecutesOnlyItsRuns) {
  const fs::path base_dir = fresh_dir("cache_invalidate_base");
  cold_delta_run(base_dir);

  // "Edit" M2: new behaviour (mask 0xFF00) and a bumped version token.
  const core::SystemModel model = chain_model();
  const fs::path delta_dir = fresh_dir("cache_invalidate_delta");
  const DeltaJournalSummary summary = run_delta_journaled_campaign(
      chain_runner(0xFF00), chain_config(), model, chain_binding(model),
      delta_dir, ResultCache::load(base_dir),
      delta_options({{"M1", 1}, {"M2", 2}}));

  EXPECT_EQ(summary.executed, 8u);  // mid-targeted runs (consumer M2)
  EXPECT_EQ(summary.replayed, 8u);  // src-targeted runs (consumer M1)
  ASSERT_EQ(summary.invalidated_modules.size(), 1u);
  EXPECT_EQ(summary.invalidated_modules[0], core::ModuleId{1});
  ASSERT_EQ(summary.per_module.size(), 2u);
  EXPECT_EQ(summary.per_module[0].module, "M1");
  EXPECT_FALSE(summary.per_module[0].invalidated);
  EXPECT_EQ(summary.per_module[0].replayed, 8u);
  EXPECT_EQ(summary.per_module[0].executed, 0u);
  EXPECT_EQ(summary.per_module[1].module, "M2");
  EXPECT_TRUE(summary.per_module[1].invalidated);
  EXPECT_EQ(summary.per_module[1].replayed, 0u);
  EXPECT_EQ(summary.per_module[1].executed, 8u);

  // Compositional exactness: the mixed journal estimates byte for byte
  // what a cold full campaign of the changed system does. Replayed
  // src-targeted records carry stale *downstream* (dst) divergence data,
  // but estimation attributes them only to M1's src->mid pair, which M2
  // cannot influence.
  const fs::path changed_dir = fresh_dir("cache_invalidate_changed_cold");
  cold_delta_run(changed_dir, 0xFF00);
  EXPECT_EQ(journal_csv(delta_dir), journal_csv(changed_dir));
  // Not vacuous: the edit does change M2's estimates.
  EXPECT_NE(journal_csv(delta_dir), journal_csv(base_dir));
}

TEST(ResultCache, KilledDeltaSessionResumesToAByteIdenticalCsv) {
  const fs::path base_dir = fresh_dir("cache_kill_base");
  cold_delta_run(base_dir);
  const std::string cold_csv = journal_csv(base_dir);

  // Kill an incremental session (M2 invalidated) partway through its
  // executed remainder; completed frames -- replayed and executed alike --
  // are already flushed.
  const core::SystemModel model = chain_model();
  const fs::path delta_dir = fresh_dir("cache_kill_delta");
  std::atomic<std::size_t> injections_run{0};
  const fi::RunFunction crashing = [&](const fi::RunRequest& request) {
    if (request.injection && injections_run.fetch_add(1) >= 3) {
      throw std::runtime_error("simulated crash");
    }
    return chain_run(request, 0xFFFF);
  };
  EXPECT_ANY_THROW(run_delta_journaled_campaign(
      crashing, chain_config(), model, chain_binding(model), delta_dir,
      ResultCache::load(base_dir), delta_options({{"M1", 1}, {"M2", 2}})));
  const CampaignDirState partial = scan_campaign_dir(delta_dir);
  EXPECT_LT(partial.completed_count, 16u);

  // Resume through the same delta path: journaled runs are skipped, the
  // rest replay or execute as their fingerprints dictate.
  const DeltaJournalSummary resumed = run_delta_journaled_campaign(
      chain_runner(), chain_config(), model, chain_binding(model), delta_dir,
      ResultCache::load(base_dir), delta_options({{"M1", 1}, {"M2", 2}}));
  EXPECT_EQ(resumed.skipped_completed, partial.completed_count);
  EXPECT_EQ(resumed.executed + resumed.replayed + resumed.skipped_completed,
            16u);
  EXPECT_EQ(journal_csv(delta_dir), cold_csv);
}

// Replays are classified and journaled before the first golden run, so a
// session that dies in its goldens has already made every replay durable.
TEST(ResultCache, ReplaysAreDurableBeforeAnythingExecutes) {
  const fs::path base_dir = fresh_dir("cache_durable_base");
  cold_delta_run(base_dir);
  const std::string cold_csv = journal_csv(base_dir);

  const core::SystemModel model = chain_model();
  const fs::path delta_dir = fresh_dir("cache_durable_delta");
  const fi::RunFunction dies_in_golden = [](const fi::RunRequest& request) {
    if (!request.injection) throw std::runtime_error("simulated crash");
    return chain_run(request, 0xFFFF);
  };
  EXPECT_ANY_THROW(run_delta_journaled_campaign(
      dies_in_golden, chain_config(), model, chain_binding(model), delta_dir,
      ResultCache::load(base_dir), delta_options({{"M1", 1}, {"M2", 2}})));
  const CampaignDirState partial = scan_campaign_dir(delta_dir);
  EXPECT_EQ(partial.completed_count, 8u);  // every src-targeted replay
  EXPECT_EQ(partial.replayed_count, 8u);

  const DeltaJournalSummary resumed = run_delta_journaled_campaign(
      chain_runner(), chain_config(), model, chain_binding(model), delta_dir,
      ResultCache::load(base_dir), delta_options({{"M1", 1}, {"M2", 2}}));
  EXPECT_EQ(resumed.skipped_completed, 8u);
  EXPECT_EQ(resumed.replayed, 0u);
  EXPECT_EQ(resumed.executed, 8u);
  EXPECT_EQ(journal_csv(delta_dir), cold_csv);
}

// A crash inside a replay run, made deterministic: the shard is cut inside
// a frame after some committed records. The rerun keeps the records
// before the cut, replays exactly the lost ones and executes nothing.
TEST(ResultCache, TornReplayRunReplaysOnlyTheLostRecords) {
  const fs::path base_dir = fresh_dir("cache_torn_base");
  cold_delta_run(base_dir);
  const std::string cold_csv = journal_csv(base_dir);
  const core::SystemModel model = chain_model();
  const fs::path delta_dir = fresh_dir("cache_torn_delta");
  const auto replay_all = [&] {
    return run_delta_journaled_campaign(
        chain_runner(), chain_config(), model, chain_binding(model),
        delta_dir, ResultCache::load(base_dir), delta_options());
  };
  ASSERT_EQ(replay_all().replayed, 16u);

  const std::vector<fs::path> shards =
      ShardedJournalWriter::list_shards(delta_dir);
  ASSERT_EQ(shards.size(), 1u);
  std::ifstream in(shards.front(), std::ios::binary);
  const std::vector<unsigned char> bytes{std::istreambuf_iterator<char>(in),
                                         std::istreambuf_iterator<char>()};
  // Header (magic + version), then `u32 length | u32 crc | payload` frames:
  // the manifest and six records survive, the cut lands 3 bytes into the
  // seventh record.
  std::size_t at = sizeof(kJournalMagic) + 4;
  for (int frame = 0; frame < 7; ++frame) {
    ASSERT_LE(at + 8, bytes.size());
    std::uint32_t length = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      length |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
    }
    at += 8 + length;
  }
  ASSERT_LT(at + 3, bytes.size());
  fs::resize_file(shards.front(), at + 3);
  const CampaignDirState torn = scan_campaign_dir(delta_dir);
  EXPECT_EQ(torn.completed_count, 6u);
  EXPECT_EQ(torn.warnings.size(), 1u);  // the torn tail only warns

  const DeltaJournalSummary resumed = replay_all();
  EXPECT_EQ(resumed.skipped_completed, 6u);
  EXPECT_EQ(resumed.replayed, 10u);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(journal_csv(delta_dir), cold_csv);
}

// Replays commit in runs: one write and one flush per run, not per record.
TEST(ResultCache, AllReplaySessionFlushesFarLessThanItAppends) {
  const fs::path base_dir = fresh_dir("cache_flush_base");
  cold_delta_run(base_dir);
  const core::SystemModel model = chain_model();
  obs::MetricsRegistry metrics;
  const obs::Telemetry telemetry{&metrics, nullptr, nullptr};
  DeltaRunOptions options = delta_options();
  options.base.telemetry = &telemetry;
  const DeltaJournalSummary summary = run_delta_journaled_campaign(
      chain_runner(), chain_config(), model, chain_binding(model),
      fresh_dir("cache_flush_delta"), ResultCache::load(base_dir), options);
  ASSERT_EQ(summary.replayed, 16u);
  const auto counters = metrics.snapshot().counters;
  const std::uint64_t appends = counters.at("journal.appends");
  const std::uint64_t flushes = counters.at("journal.flushes");
  EXPECT_EQ(appends, 16u);
  EXPECT_LT(4 * flushes, appends);
}

// Each shard is written by one task in flat order, so the thread count
// cannot change a byte of any shard.
TEST(ResultCache, ReplayLayoutIsIndependentOfTheThreadCount) {
  const fs::path base_dir = fresh_dir("cache_layout_base");
  cold_delta_run(base_dir);
  const ResultCache baseline = ResultCache::load(base_dir);
  const core::SystemModel model = chain_model();
  const auto replay_all = [&](std::size_t threads) {
    fi::CampaignConfig config = chain_config();
    config.threads = threads;
    DeltaRunOptions options = delta_options();
    options.base.shard_count = 3;
    const fs::path dir =
        fresh_dir("cache_layout_threads" + std::to_string(threads));
    const DeltaJournalSummary summary = run_delta_journaled_campaign(
        chain_runner(), config, model, chain_binding(model), dir, baseline,
        options);
    EXPECT_EQ(summary.replayed, 16u);
    return dir;
  };
  const fs::path one = replay_all(1);
  const fs::path four = replay_all(4);
  const auto slurp = [](const fs::path& file) {
    std::ifstream in(file, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const auto shards_one = ShardedJournalWriter::list_shards(one);
  const auto shards_four = ShardedJournalWriter::list_shards(four);
  ASSERT_EQ(shards_one.size(), 3u);
  ASSERT_EQ(shards_four.size(), 3u);
  for (std::size_t i = 0; i < shards_one.size(); ++i) {
    EXPECT_EQ(shards_one[i].filename(), shards_four[i].filename());
    EXPECT_EQ(slurp(shards_one[i]), slurp(shards_four[i]))
        << shards_one[i].filename();
  }
}

/// One session's summary checked against the journal it appended to and
/// the metrics it published: every count comes from the same per-run
/// outcome, so none may drift from the others.
void expect_session_counts_agree(const DeltaJournalSummary& summary,
                                 const fs::path& dir,
                                 const std::vector<bool>& journaled_before,
                                 const obs::MetricsRegistry& metrics) {
  EXPECT_EQ(summary.executed + summary.replayed + summary.skipped_completed +
                summary.skipped_foreign,
            summary.total_runs);

  std::size_t appended_executed = 0, appended_replayed = 0;
  std::size_t appended_diverged = 0;
  scan_campaign_dir(dir, [&](fi::InjectionRecord&& record, std::size_t flat) {
    if (flat < journaled_before.size() && journaled_before[flat]) return;
    if (record.replayed) {
      ++appended_replayed;
    } else {
      ++appended_executed;
      if (record.report.any_divergence()) ++appended_diverged;
    }
  });
  EXPECT_EQ(summary.executed, appended_executed);
  EXPECT_EQ(summary.replayed, appended_replayed);
  EXPECT_EQ(summary.diverged, appended_diverged);

  // Each chain target has exactly one consumer module, so the per-module
  // rows partition the session's runs.
  std::size_t module_executed = 0, module_replayed = 0;
  for (const ModuleDeltaExplain& row : summary.per_module) {
    module_executed += row.executed;
    module_replayed += row.replayed;
  }
  EXPECT_EQ(module_executed, summary.executed);
  EXPECT_EQ(module_replayed, summary.replayed);

  const auto counters = metrics.snapshot().counters;
  const auto counter = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(counter("delta.hits"), summary.replayed);
  EXPECT_EQ(counter("delta.misses"), summary.executed);
  EXPECT_EQ(counter("journal.appends"), summary.executed + summary.replayed);
}

TEST(ResultCache, SessionCountsAgreeWithJournalAndRegistry) {
  const core::SystemModel model = chain_model();
  const fi::SignalBinding binding = chain_binding(model);
  const auto session = [&](const fs::path& dir, const ResultCache& baseline,
                           fi::ModuleVersionMap versions,
                           std::uint32_t process_count,
                           std::uint32_t process_index) {
    const std::vector<bool> before = scan_campaign_dir(dir).completed;
    obs::MetricsRegistry metrics;
    const obs::Telemetry telemetry{&metrics, nullptr, nullptr};
    DeltaRunOptions options = delta_options(std::move(versions));
    options.base.process_count = process_count;
    options.base.process_index = process_index;
    options.base.telemetry = &telemetry;
    const DeltaJournalSummary summary = run_delta_journaled_campaign(
        chain_runner(), chain_config(), model, binding, dir, baseline,
        options);
    expect_session_counts_agree(summary, dir, before, metrics);
    return summary;
  };

  const fs::path base_dir = fresh_dir("cache_counts_base");
  const DeltaJournalSummary base =
      session(base_dir, ResultCache{}, v1_tokens(), 1, 0);
  EXPECT_EQ(base.executed, 16u);
  EXPECT_GT(base.diverged, 0u);

  // Index 0 of a two-process split with M2 invalidated: of its 8 flats, the
  // 4 src-targeted ones replay and the 4 mid-targeted ones execute.
  const ResultCache baseline = ResultCache::load(base_dir);
  const fs::path dir = fresh_dir("cache_counts_delta");
  const DeltaJournalSummary first =
      session(dir, baseline, {{"M1", 1}, {"M2", 2}}, 2, 0);
  EXPECT_EQ(first.replayed, 4u);
  EXPECT_EQ(first.executed, 4u);
  EXPECT_EQ(first.skipped_foreign, 8u);
  EXPECT_EQ(first.skipped_completed, 0u);

  // Index 1 resumes the same directory: index 0's runs are journaled, the
  // rest are its own.
  const DeltaJournalSummary second =
      session(dir, baseline, {{"M1", 1}, {"M2", 2}}, 2, 1);
  EXPECT_EQ(second.skipped_completed, 8u);
  EXPECT_EQ(second.skipped_foreign, 0u);
  EXPECT_EQ(second.replayed, 4u);
  EXPECT_EQ(second.executed, 4u);
  EXPECT_EQ(journal_csv(dir), journal_csv(base_dir));
}

/// Hand-crafts a v2 shard (no fingerprint/flags words) to pin down
/// backward read-compatibility.
void write_v2_shard(const fs::path& dir, const Manifest& manifest) {
  fs::create_directories(dir);
  std::ofstream out(dir / "shard-000000.pjl", std::ios::binary);
  ASSERT_TRUE(out.is_open());
  out.write(kJournalMagic, sizeof(kJournalMagic));
  ByteWriter header;
  header.u32(2);  // journal version 2
  out.write(reinterpret_cast<const char*>(header.bytes().data()),
            static_cast<std::streamsize>(header.bytes().size()));

  const auto write_frame = [&out](RecordType type,
                                  const std::vector<std::uint8_t>& body) {
    std::vector<std::uint8_t> payload;
    payload.push_back(static_cast<std::uint8_t>(type));
    payload.insert(payload.end(), body.begin(), body.end());
    ByteWriter frame;
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u32(crc32(payload.data(), payload.size()));
    out.write(reinterpret_cast<const char*>(frame.bytes().data()),
              static_cast<std::streamsize>(frame.bytes().size()));
    out.write(reinterpret_cast<const char*>(payload.data()),
              static_cast<std::streamsize>(payload.size()));
  };
  write_frame(RecordType::kManifest, encode_manifest(manifest));

  for (std::uint32_t test_case = 0; test_case < 2; ++test_case) {
    ByteWriter record;  // v2 layout: no fingerprint, no flags byte
    record.u32(0);          // injection_index
    record.u32(test_case);  // test_case
    record.u32(0);          // target
    record.u64(2 * sim::kMillisecond);
    record.u32(3);  // signal_count
    record.u32(1);  // diverged_count
    record.u32(0);  // diverged signal id
    record.u64(2);  // first_ms
    record.u16(5);  // golden value
    record.u16(9);  // observed value
    write_frame(RecordType::kInjectionResult, record.take());
  }
}

TEST(ResultCache, V2BaselineReadsButNeverReplays) {
  const fs::path v2_dir = fresh_dir("cache_v2_baseline");
  write_v2_shard(v2_dir, manifest_for(chain_config()));

  const ResultCache cache = ResultCache::load(v2_dir);
  EXPECT_TRUE(cache.loaded());
  EXPECT_EQ(cache.record_count(), 2u);
  EXPECT_EQ(cache.unfingerprinted(), 2u);
  EXPECT_EQ(cache.fingerprint_of_flat(0), 0u);

  // Same plan, but the v2 records carry no content address: everything
  // executes, and the unknown fingerprints are not misread as stale
  // modules.
  const core::SystemModel model = chain_model();
  const fs::path delta_dir = fresh_dir("cache_v2_delta");
  const DeltaJournalSummary summary = run_delta_journaled_campaign(
      chain_runner(), chain_config(), model, chain_binding(model), delta_dir,
      cache, delta_options());
  EXPECT_EQ(summary.replayed, 0u);
  EXPECT_EQ(summary.executed, 16u);
  EXPECT_EQ(summary.baseline_unfingerprinted, 2u);
  EXPECT_TRUE(summary.invalidated_modules.empty());
}

TEST(ResultCache, MismatchedOutputDirectoryIsRefused) {
  const fs::path dir = fresh_dir("cache_mismatch");
  cold_delta_run(dir);
  fi::CampaignConfig other = chain_config();
  other.seed += 1;
  const core::SystemModel model = chain_model();
  EXPECT_THROW(
      run_delta_journaled_campaign(chain_runner(), other, model,
                                   chain_binding(model), dir, ResultCache{},
                                   delta_options()),
      ContractViolation);
}

}  // namespace
}  // namespace propane::store

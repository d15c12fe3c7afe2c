// Lockstep batched execution must be invisible in every result: lane
// traces, DivergenceReports, campaign records and journal CSVs from the
// SoA batch path must be bit-identical to the scalar per-run path for
// every batch size -- including when a batched campaign is killed
// mid-batch and resumed under a different batch size.
//
// Lives in tests/fi so the sanitizer CI jobs' tests/fi globs run the
// batched-vs-scalar equivalence under ASan/UBSan and TSan.
#include "arrestment/batch_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "arrestment/batch_system.hpp"
#include "arrestment/constants.hpp"
#include "arrestment/model.hpp"
#include "arrestment/testcase.hpp"
#include "common/contracts.hpp"
#include "obs/telemetry.hpp"
#include "store/result_cache.hpp"
#include "store/resume.hpp"

namespace propane::arr {
namespace {

namespace fs = std::filesystem;

constexpr sim::SimTime kShortRun = 300 * sim::kMillisecond;
// 0 is the default geometry: passes of one or two whole 32-lane rows.
constexpr std::size_t kBatchSizes[] = {0, 1, 4, 17, 64};

fi::BusSignalId bus_id(std::string_view name) {
  fi::SignalBus bus;
  build_bus(bus);
  const auto id = bus.find(name);
  EXPECT_TRUE(id.has_value()) << name;
  return *id;
}

/// Small-scale plan covering the planner's corner cases: several lanes per
/// (test case, fire tick) group, a fire time of zero (cold batch from
/// t=0), a non-tick-aligned fire time (ceil to the next tick), a
/// stochastic model (per-lane RNG streams) and an injection at the horizon
/// (never fires -> answered without simulation).
fi::CampaignConfig short_config() {
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0xBA7C4;
  const fi::BusSignalId pulscnt = bus_id("pulscnt");
  const fi::BusSignalId set_value = bus_id("SetValue");
  const fi::BusSignalId pacnt = bus_id("PACNT");
  config.injections = {
      fi::InjectionSpec{pulscnt, 50 * sim::kMillisecond, fi::bit_flip(3)},
      fi::InjectionSpec{set_value, 50 * sim::kMillisecond, fi::bit_flip(9)},
      fi::InjectionSpec{pacnt, 50 * sim::kMillisecond,
                        fi::random_replacement()},
      fi::InjectionSpec{pulscnt, 0, fi::bit_flip(0)},
      fi::InjectionSpec{pacnt, 150 * sim::kMillisecond + 500,
                        fi::bit_flip(7)},
      fi::InjectionSpec{set_value, kShortRun, fi::bit_flip(1)},  // never fires
  };
  return config;
}

::testing::AssertionResult traces_identical(const fi::TraceSet& a,
                                            const fi::TraceSet& b) {
  if (a.signal_count() != b.signal_count() ||
      a.sample_count() != b.sample_count()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.signal_count() << "x"
           << a.sample_count() << " vs " << b.signal_count() << "x"
           << b.sample_count();
  }
  const std::size_t values = a.signal_count() * a.sample_count();
  if (values != 0 && std::memcmp(a.data(), b.data(),
                                 values * sizeof(std::uint16_t)) != 0) {
    return ::testing::AssertionFailure() << "values differ";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult reports_identical(const fi::DivergenceReport& a,
                                             const fi::DivergenceReport& b) {
  if (a.per_signal.size() != b.per_signal.size()) {
    return ::testing::AssertionFailure() << "signal count mismatch";
  }
  for (std::size_t s = 0; s < a.per_signal.size(); ++s) {
    const fi::Divergence& x = a.per_signal[s];
    const fi::Divergence& y = b.per_signal[s];
    if (x.diverged != y.diverged || x.first_ms != y.first_ms ||
        x.golden_value != y.golden_value ||
        x.observed_value != y.observed_value) {
      return ::testing::AssertionFailure()
             << "signal " << s << ": (" << x.diverged << ", " << x.first_ms
             << ", " << x.golden_value << ", " << x.observed_value
             << ") vs (" << y.diverged << ", " << y.first_ms << ", "
             << y.golden_value << ", " << y.observed_value << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// The batch runner's telemetry counters, read back after a campaign.
struct BatchCounters {
  obs::MetricsRegistry metrics;
  const obs::Telemetry telemetry{&metrics, nullptr, nullptr};

  std::uint64_t batches() {
    return metrics.counter("batch.kernel.batches").value();
  }
  std::uint64_t lanes() { return metrics.counter("batch.kernel.lanes").value(); }
  std::uint64_t never_fire() {
    return metrics.counter("batch.never_fire.lanes").value();
  }
  std::uint64_t ticks() { return metrics.counter("batch.kernel.ticks").value(); }
  std::uint64_t refills() {
    return metrics.counter("batch.refill.lanes").value();
  }
  std::uint64_t slot_ticks() {
    return metrics.counter("batch.kernel.slot_ticks").value();
  }
  std::uint64_t lane_ticks() {
    return metrics.counter("batch.kernel.lane_ticks").value();
  }
  std::uint64_t live_slot_ticks() {
    return metrics.counter("batch.kernel.live_slot_ticks").value();
  }
  std::uint64_t segments() {
    return metrics.counter("batch.kernel.segments").value();
  }
  std::uint64_t retirements() {
    return metrics.snapshot().histograms.at("batch.retire.ticks").count;
  }
  std::uint64_t converged() {
    return metrics.counter("batch.retire.converged").value();
  }
  std::uint64_t exhausted() {
    return metrics.counter("batch.retire.exhausted").value();
  }
};

// --- Kernel-level trace identity -----------------------------------------

TEST(BatchKernel, ColdBatchRecordsBitIdenticalLaneTraces) {
  const TestCase test_case = grid_test_cases(1, 1)[0];
  const std::vector<fi::InjectionSpec> specs = {
      fi::InjectionSpec{bus_id("pulscnt"), 40 * sim::kMillisecond,
                        fi::bit_flip(3)},
      fi::InjectionSpec{bus_id("PACNT"), 40 * sim::kMillisecond,
                        fi::random_replacement()},
      fi::InjectionSpec{bus_id("SetValue"), 40 * sim::kMillisecond,
                        fi::bit_flip(12)},
  };
  std::vector<BatchLaneSpec> lanes;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    lanes.push_back(BatchLaneSpec{&specs[i], 900 + i});
  }

  const ArrestmentSystem origin(test_case);
  BatchedArrestmentSystem batch(origin, lanes, kShortRun);
  batch.enable_recording(nullptr);
  const std::vector<fi::DivergenceReport> reports = batch.run();
  ASSERT_EQ(reports.size(), specs.size());

  RunOptions golden_options;
  golden_options.duration = kShortRun;
  const RunOutcome golden = run_arrestment(test_case, golden_options);
  EXPECT_TRUE(traces_identical(batch.take_golden_trace(), golden.trace));

  for (std::size_t i = 0; i < specs.size(); ++i) {
    RunOptions options;
    options.duration = kShortRun;
    options.injection = specs[i];
    options.rng_seed = 900 + i;
    const RunOutcome scalar = run_arrestment(test_case, options);
    EXPECT_TRUE(traces_identical(batch.take_lane_trace(i), scalar.trace))
        << "lane " << i;
    EXPECT_TRUE(reports_identical(
        reports[i], fi::compare_to_golden(golden.trace, scalar.trace)))
        << "lane " << i;
  }
}

TEST(BatchKernel, WarmCheckpointBatchRecordsBitIdenticalLaneTraces) {
  const std::vector<TestCase> cases = grid_test_cases(1, 1);
  fi::CampaignConfig config = short_config();
  config.test_case_count = 1;
  WarmStartEngine engine(cases, config, kShortRun);
  fi::RunRequest golden_request;  // captures the checkpoints
  const fi::TraceSet golden = engine.golden_run(golden_request);

  const std::shared_ptr<const WarmStartEngine::Checkpoint> checkpoint =
      engine.lookup(0, 50);
  ASSERT_NE(checkpoint, nullptr);
  EXPECT_EQ(checkpoint->ms, 50u);

  const std::vector<fi::InjectionSpec> specs = {
      fi::InjectionSpec{bus_id("pulscnt"), 50 * sim::kMillisecond,
                        fi::bit_flip(3)},
      fi::InjectionSpec{bus_id("PACNT"), 50 * sim::kMillisecond,
                        fi::random_replacement()},
  };
  std::vector<BatchLaneSpec> lanes;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    lanes.push_back(BatchLaneSpec{&specs[i], 40 + i});
  }
  BatchedArrestmentSystem batch(*checkpoint->system, lanes, kShortRun);
  batch.enable_recording(&golden);
  batch.run();

  EXPECT_TRUE(traces_identical(batch.take_golden_trace(), golden));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    RunOptions options;
    options.duration = kShortRun;
    options.injection = specs[i];
    options.rng_seed = 40 + i;
    EXPECT_TRUE(traces_identical(batch.take_lane_trace(i),
                                 run_arrestment(cases[0], options).trace))
        << "lane " << i;
  }
}

// --- Campaign-level record identity --------------------------------------

TEST(BatchCampaign, RecordsMatchScalarForEveryBatchSize) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = short_config();
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);

  for (const std::size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    config.batch_size = batch_size;
    BatchCounters counters;
    const fi::CampaignResult batched = fi::run_campaign(
        batched_campaign_runner(cases, config, kShortRun,
                                &counters.telemetry),
        config);

    // The batch path actually executed (never-firing lanes excepted).
    EXPECT_GT(counters.batches(), 0u);
    EXPECT_EQ(counters.lanes() + counters.never_fire(),
              config.injections.size() * config.test_case_count);
    EXPECT_GT(counters.never_fire(), 0u);

    ASSERT_EQ(batched.goldens.size(), scalar.goldens.size());
    for (std::size_t tc = 0; tc < scalar.goldens.size(); ++tc) {
      EXPECT_TRUE(traces_identical(batched.goldens[tc], scalar.goldens[tc]));
    }
    ASSERT_EQ(batched.records.size(), scalar.records.size());
    for (std::size_t r = 0; r < scalar.records.size(); ++r) {
      SCOPED_TRACE("record " + std::to_string(r));
      EXPECT_EQ(batched.records[r].injection_index,
                scalar.records[r].injection_index);
      EXPECT_EQ(batched.records[r].test_case, scalar.records[r].test_case);
      EXPECT_EQ(batched.records[r].target, scalar.records[r].target);
      EXPECT_EQ(batched.records[r].when, scalar.records[r].when);
      EXPECT_TRUE(reports_identical(batched.records[r].report,
                                    scalar.records[r].report));
    }
  }
}

// --- Journal / CSV identity ----------------------------------------------

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;  // the campaign creates it
}

/// A plain journaled run: the one journaled entry point with an empty
/// baseline, exactly as `campaign run` executes it.
store::DeltaJournalSummary run_journaled(
    const fi::CampaignRunner& runner, const fi::CampaignConfig& config,
    const fs::path& dir, const store::JournalRunOptions& options = {}) {
  const core::SystemModel model = make_arrestment_model();
  store::DeltaRunOptions delta;
  delta.base = options;
  return store::run_delta_journaled_campaign(
      runner, config, model, make_arrestment_binding(model), dir,
      store::ResultCache{}, delta);
}

std::string journal_csv(const fs::path& dir) {
  const core::SystemModel model = make_arrestment_model();
  const fi::SignalBinding binding = make_arrestment_binding(model);
  std::ostringstream out;
  store::write_permeability_csv_from_journal(out, dir, model, binding);
  return out.str();
}

TEST(BatchJournal, CsvByteIdenticalToScalarForEveryBatchSize) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = short_config();

  const fs::path scalar_dir = fresh_dir("batch_csv_scalar");
  run_journaled(campaign_runner(cases, kShortRun), config, scalar_dir);
  const std::string scalar_csv = journal_csv(scalar_dir);
  ASSERT_FALSE(scalar_csv.empty());

  for (const std::size_t batch_size : kBatchSizes) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    config.batch_size = batch_size;
    const fs::path dir =
        fresh_dir("batch_csv_" + std::to_string(batch_size));
    run_journaled(
        batched_campaign_runner(cases, config, kShortRun), config, dir);
    EXPECT_EQ(journal_csv(dir), scalar_csv);
  }
}

TEST(BatchJournal, MidBatchKillAndResumeUnderDifferentBatchSize) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = short_config();
  config.threads = 1;  // deterministic: first batch lands, second crashes
  config.batch_size = 4;

  const fs::path scalar_dir = fresh_dir("batch_resume_scalar");
  run_journaled(campaign_runner(cases, kShortRun), config, scalar_dir);
  const std::string scalar_csv = journal_csv(scalar_dir);

  // "Kill" mid-campaign: the first batch completes and journals its
  // records, every later batch throws. The exception unwinds like a crash
  // -- journaled records are durable, in-flight runs are lost.
  const fs::path dir = fresh_dir("batch_resume_killed");
  const fi::CampaignRunner inner =
      batched_campaign_runner(cases, config, kShortRun);
  std::atomic<std::size_t> batches{0};
  const fi::CampaignRunner crashing(
      inner.run, [&batches, &inner](const fi::BatchRunRequest& request) {
        if (batches.fetch_add(1) >= 1) {
          throw std::runtime_error("simulated crash");
        }
        return inner.batch(request);
      });
  EXPECT_THROW(run_journaled(crashing, config, dir), std::runtime_error);
  const store::CampaignDirState partial = store::scan_campaign_dir(dir);
  const std::size_t total =
      config.injections.size() * config.test_case_count;
  EXPECT_GT(partial.completed_count, 0u);
  EXPECT_LT(partial.completed_count, total);

  // Resume under a *different* batch size (the plan hash excludes it):
  // only the missing runs execute, regrouped into new batches.
  config.batch_size = 17;
  const store::DeltaJournalSummary resumed = run_journaled(
      batched_campaign_runner(cases, config, kShortRun), config, dir);
  EXPECT_EQ(resumed.executed + resumed.skipped_completed, total);
  EXPECT_EQ(resumed.skipped_completed, partial.completed_count);

  EXPECT_EQ(journal_csv(dir), scalar_csv);
}

// --- Packing across fire ticks ------------------------------------------

/// Sparse plan: one bit, many instants. Each (test case, fire tick) group
/// holds exactly one lane, so filling a batch *requires* packing lanes
/// across fire ticks; a never-fire lane rides along and must be peeled out
/// of the packed batch.
fi::CampaignConfig sparse_plan_config() {
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0x5BA12;
  const fi::BusSignalId pulscnt = bus_id("pulscnt");
  for (sim::SimTime i = 0; i < 12; ++i) {
    config.injections.push_back(fi::InjectionSpec{
        pulscnt, (20 + 20 * i) * sim::kMillisecond, fi::bit_flip(3)});
  }
  config.injections.push_back(
      fi::InjectionSpec{bus_id("SetValue"), kShortRun, fi::bit_flip(1)});
  return config;
}

TEST(BatchKernel, StaggeredFireTicksRecordBitIdenticalTraces) {
  // The second of the grid's two test cases (the other mass), from t=0:
  // two lanes fire at 40 ms and one 50 ms later (staggered activation).
  const TestCase test_case = grid_test_cases(1, 2)[1];
  const std::vector<fi::InjectionSpec> specs = {
      fi::InjectionSpec{bus_id("pulscnt"), 40 * sim::kMillisecond,
                        fi::bit_flip(3)},
      fi::InjectionSpec{bus_id("SetValue"), 40 * sim::kMillisecond,
                        fi::bit_flip(12)},
      fi::InjectionSpec{bus_id("PACNT"), 90 * sim::kMillisecond,
                        fi::random_replacement()},
  };
  std::vector<BatchLaneSpec> lanes;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    lanes.push_back(BatchLaneSpec{&specs[i], 11 + i});
  }
  const ArrestmentSystem origin(test_case);
  BatchedArrestmentSystem batch(origin, lanes, kShortRun);
  batch.enable_recording(nullptr);
  const std::vector<fi::DivergenceReport> reports = batch.run();
  ASSERT_EQ(reports.size(), specs.size());

  RunOptions golden_options;
  golden_options.duration = kShortRun;
  const RunOutcome golden = run_arrestment(test_case, golden_options);
  EXPECT_TRUE(traces_identical(batch.take_golden_trace(), golden.trace));
  for (std::size_t i = 0; i < specs.size(); ++i) {
    RunOptions options = golden_options;
    options.injection = specs[i];
    options.rng_seed = 11 + i;
    const RunOutcome scalar = run_arrestment(test_case, options);
    EXPECT_TRUE(traces_identical(batch.take_lane_trace(i), scalar.trace))
        << "lane " << i;
    EXPECT_TRUE(reports_identical(
        reports[i], fi::compare_to_golden(golden.trace, scalar.trace)))
        << "lane " << i;
  }
}

TEST(BatchCampaign, SparsePlanPacksAcrossFireTicks) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = sparse_plan_config();
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);

  config.batch_size = 32;
  BatchCounters counters;
  const fi::CampaignResult batched = fi::run_campaign(
      batched_campaign_runner(cases, config, kShortRun, &counters.telemetry),
      config);

  // Each test case's 12 single-lane fire-tick groups plus its never-fire
  // lane pack into ONE kernel batch; the never-fire lanes are peeled
  // before simulation.
  EXPECT_EQ(counters.batches(), 2u);
  EXPECT_EQ(counters.lanes(), 24u);
  EXPECT_EQ(counters.never_fire(), 2u);

  ASSERT_EQ(batched.records.size(), scalar.records.size());
  for (std::size_t r = 0; r < scalar.records.size(); ++r) {
    EXPECT_TRUE(reports_identical(batched.records[r].report,
                                  scalar.records[r].report))
        << "record " << r;
  }
}

TEST(BatchCampaign, NeverFirePlanAnswersWithoutSimulation) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0xF1FE;
  config.injections = {
      fi::InjectionSpec{bus_id("pulscnt"), kShortRun, fi::bit_flip(3)},
      fi::InjectionSpec{bus_id("SetValue"),
                        kShortRun + 5 * sim::kMillisecond, fi::bit_flip(1)},
  };
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);

  BatchCounters counters;
  const fi::CampaignResult batched = fi::run_campaign(
      batched_campaign_runner(cases, config, kShortRun, &counters.telemetry),
      config);

  EXPECT_EQ(counters.batches(), 0u);
  EXPECT_EQ(counters.lanes(), 0u);
  EXPECT_EQ(counters.never_fire(), 4u);
  ASSERT_EQ(batched.records.size(), scalar.records.size());
  for (std::size_t r = 0; r < scalar.records.size(); ++r) {
    EXPECT_TRUE(reports_identical(batched.records[r].report,
                                  scalar.records[r].report))
        << "record " << r;
  }
}

TEST(BatchJournal, SparsePackedPlanCsvByteIdenticalToScalar) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = sparse_plan_config();

  const fs::path scalar_dir = fresh_dir("batch_sparse_scalar");
  run_journaled(campaign_runner(cases, kShortRun), config, scalar_dir);
  const std::string scalar_csv = journal_csv(scalar_dir);
  ASSERT_FALSE(scalar_csv.empty());

  for (const std::size_t batch_size : {std::size_t{5}, std::size_t{32}}) {
    SCOPED_TRACE("batch_size=" + std::to_string(batch_size));
    config.batch_size = batch_size;
    const fs::path dir =
        fresh_dir("batch_sparse_" + std::to_string(batch_size));
    run_journaled(
        batched_campaign_runner(cases, config, kShortRun), config, dir);
    EXPECT_EQ(journal_csv(dir), scalar_csv);
  }
}

TEST(BatchJournal, ThreadedAutoShardedJournalCsvByteIdenticalToScalar) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = sparse_plan_config();

  const fs::path scalar_dir = fresh_dir("batch_mt_scalar");
  run_journaled(campaign_runner(cases, kShortRun), config, scalar_dir);
  const std::string scalar_csv = journal_csv(scalar_dir);

  // Four worker threads, several batches each; shard_count 0 auto-scales
  // to one journal shard per worker, so appends run without contention.
  // CSVs are pure functions of journal *content*: any thread interleaving
  // and shard layout must merge to the same bytes.
  config.threads = 4;
  config.batch_size = 4;
  store::JournalRunOptions options;
  options.shard_count = 0;
  const fs::path dir = fresh_dir("batch_mt_sharded");
  const store::DeltaJournalSummary summary = run_journaled(
      batched_campaign_runner(cases, config, kShortRun), config, dir,
      options);
  EXPECT_EQ(summary.executed,
            config.injections.size() * config.test_case_count);
  EXPECT_EQ(journal_csv(dir), scalar_csv);
}

TEST(BatchJournal, ResumeOfCompleteJournalPlansNoBatches) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = sparse_plan_config();
  config.batch_size = 8;

  const fs::path dir = fresh_dir("batch_resume_complete");
  run_journaled(
      batched_campaign_runner(cases, config, kShortRun), config, dir);
  const std::string csv = journal_csv(dir);

  // Every run is journaled: the planner sees zero missing lanes and the
  // batch path must cope with an entirely empty plan.
  BatchCounters counters;
  const store::DeltaJournalSummary resumed = run_journaled(
      batched_campaign_runner(cases, config, kShortRun, &counters.telemetry),
      config, dir);
  EXPECT_EQ(resumed.executed, 0u);
  EXPECT_EQ(resumed.skipped_completed,
            config.injections.size() * config.test_case_count);
  EXPECT_EQ(counters.batches(), 0u);
  EXPECT_EQ(journal_csv(dir), csv);
}

// --- Delta campaigns through the batch planner ---------------------------

TEST(BatchDelta, InvalidatedRunsExecuteThroughPackedBatches) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0xDE17A;
  // Two target families: SetValue feeds V_REG directly (invalidated by a
  // V_REG version bump), pulscnt does not (replayed from the baseline).
  for (sim::SimTime i = 0; i < 6; ++i) {
    config.injections.push_back(fi::InjectionSpec{
        bus_id("pulscnt"), (20 + 20 * i) * sim::kMillisecond,
        fi::bit_flip(3)});
    config.injections.push_back(fi::InjectionSpec{
        bus_id("SetValue"), (30 + 20 * i) * sim::kMillisecond,
        fi::bit_flip(9)});
  }
  config.batch_size = 8;
  const core::SystemModel model = make_arrestment_model();
  const fi::SignalBinding binding = make_arrestment_binding(model);

  store::DeltaRunOptions options;
  options.module_versions = module_version_tokens();
  const fs::path base_dir = fresh_dir("batch_delta_base");
  store::run_delta_journaled_campaign(
      batched_campaign_runner(cases, config, kShortRun), config, model,
      binding, base_dir, store::ResultCache{}, options);
  const std::string cold_csv = journal_csv(base_dir);
  ASSERT_FALSE(cold_csv.empty());

  // Bump V_REG: its consumers' runs re-execute -- through the batch
  // planner, packed across fire ticks -- while the rest replay from the
  // baseline. The merged journal must be byte-identical.
  store::DeltaRunOptions changed;
  changed.module_versions =
      module_version_tokens({{"V_REG", 0x5EED5EED5EED5EEDULL}});
  BatchCounters counters;
  const fs::path delta_dir = fresh_dir("batch_delta_out");
  const store::DeltaJournalSummary summary =
      store::run_delta_journaled_campaign(
          batched_campaign_runner(cases, config, kShortRun,
                                  &counters.telemetry),
          config, model, binding, delta_dir,
          store::ResultCache::load(base_dir), changed);

  EXPECT_EQ(summary.executed, 12u);  // 6 SetValue instants x 2 test cases
  EXPECT_EQ(summary.replayed, 12u);
  // Packing proof: each test case's 6 single-lane fire-tick groups ran as
  // one batch, so 2 batches ran, not 12.
  EXPECT_EQ(counters.batches(), 2u);
  EXPECT_EQ(counters.lanes(), 12u);
  EXPECT_EQ(journal_csv(delta_dir), cold_csv);
}

// --- Persistent lanes: refill of retired slots ----------------------------

/// The cold scalar oracle for one run: its own trace against a fresh
/// golden run of the same test case.
fi::DivergenceReport oracle_report(const TestCase& test_case,
                                   const fi::InjectionSpec& spec,
                                   std::uint64_t rng_seed) {
  RunOptions golden_options;
  golden_options.duration = kShortRun;
  RunOptions options = golden_options;
  options.injection = spec;
  options.rng_seed = rng_seed;
  return fi::compare_to_golden(run_arrestment(test_case, golden_options).trace,
                               run_arrestment(test_case, options).trace);
}

/// Bit flips and stuck-at faults on transient (overwritten every tick) and
/// persistent (module state) targets at staggered instants: slots free up
/// by convergence while later runs are still queued, and persistent faults
/// hold theirs to the horizon.
fi::CampaignConfig refill_config() {
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0x2EF111;
  const std::vector<fi::ErrorModel> models = {
      fi::bit_flip(3), fi::bit_flip(12), fi::stuck_at_zero(1),
      fi::stuck_at_one(14)};
  for (const std::string_view target :
       {"pulscnt", "SetValue", "PACNT", "TCNT", "i"}) {
    for (const sim::SimTime ms : {20u, 45u, 70u, 120u, 121u}) {
      const auto plan = fi::cross_product_plan(bus_id(target), models,
                                               {ms * sim::kMillisecond});
      config.injections.insert(config.injections.end(), plan.begin(),
                               plan.end());
    }
  }
  return config;
}

TEST(BatchRefill, RequestsWiderThanTheKernelMatchScalarForEveryWidth) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  fi::CampaignConfig config = refill_config();
  config.threads = 2;
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);

  for (const std::size_t width : {std::size_t{1}, std::size_t{3},
                                  std::size_t{8}}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    config.batch_size = width;
    BatchCounters counters;
    const fi::CampaignResult batched = fi::run_campaign(
        batched_campaign_runner(cases, config, kShortRun,
                                &counters.telemetry),
        config);
    // 100 runs per test case share `width` slots: retired slots were
    // refilled, and every run ran exactly once.
    EXPECT_GT(counters.retirements(), 0u);
    EXPECT_EQ(counters.converged() + counters.exhausted(),
              counters.retirements());
    EXPECT_GT(counters.refills(), 0u);
    EXPECT_EQ(counters.lanes(),
              config.injections.size() * config.test_case_count);
    ASSERT_EQ(batched.records.size(), scalar.records.size());
    for (std::size_t r = 0; r < scalar.records.size(); ++r) {
      EXPECT_TRUE(reports_identical(batched.records[r].report,
                                    scalar.records[r].report))
          << "record " << r;
    }
  }
}

TEST(BatchRefill, RefilledLanesJoinBeforeAndExactlyAtTheirFireTick) {
  const std::vector<TestCase> cases = grid_test_cases(1, 1);
  const ArrestmentSystem origin(cases[0]);
  // A flip of TCNT at tick start is overwritten by the environment in the
  // same tick: the lane converges and retires at the next convergence
  // check. Learn when, from a one-run batch.
  const fi::InjectionSpec first{bus_id("TCNT"), 20 * sim::kMillisecond,
                                fi::bit_flip(5)};
  std::uint64_t retired_ms = 0;
  {
    const BatchLaneSpec lane{&first, 7};
    BatchedArrestmentSystem probe(origin, std::span(&lane, 1), kShortRun);
    probe.run();
    ASSERT_EQ(probe.retirement_ticks().size(), 1u);
    retired_ms = probe.retirement_ticks()[0];  // the origin is t=0
  }
  // One slot, three runs: the second fires on the very tick its slot is
  // reseeded (the tick after the first run retired), the third joins
  // when the second retires, long before it fires.
  const std::vector<fi::InjectionSpec> specs = {
      first,
      fi::InjectionSpec{bus_id("TCNT"), (retired_ms + 1) * sim::kMillisecond,
                        fi::bit_flip(9)},
      fi::InjectionSpec{bus_id("pulscnt"), 250 * sim::kMillisecond,
                        fi::stuck_at_one(12)},
  };
  const std::vector<BatchLaneSpec> lanes = {
      {&specs[0], 7}, {&specs[1], 8}, {&specs[2], 9}};
  BatchedArrestmentSystem batch(origin, lanes, kShortRun, /*slots=*/1);
  const std::vector<fi::DivergenceReport> reports = batch.run();
  EXPECT_EQ(batch.slot_count(), 1u);
  EXPECT_EQ(batch.refills(), 2u);
  EXPECT_EQ(batch.segment_count(), 1u);  // no run waited for a later start
  ASSERT_EQ(reports.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(reports_identical(reports[i],
                                  oracle_report(cases[0], specs[i], 7 + i)))
        << "run " << i;
  }
}

TEST(BatchRefill, RunsWhoseFireTickPassedRunInALaterSegment) {
  const std::vector<TestCase> cases = grid_test_cases(1, 1);
  fi::CampaignConfig config;
  config.test_case_count = 1;
  config.seed = 0xDEF3;
  // Width 1, one request: the second 30 ms run cannot join once the first
  // has left the slot (tick 30 has passed), so it runs in a later segment
  // opened from the 30 ms checkpoint; a 200 ms run refills the first.
  config.injections = {
      fi::InjectionSpec{bus_id("TCNT"), 30 * sim::kMillisecond,
                        fi::bit_flip(2)},
      fi::InjectionSpec{bus_id("SetValue"), 30 * sim::kMillisecond,
                        fi::stuck_at_zero(9)},
      fi::InjectionSpec{bus_id("TCNT"), 200 * sim::kMillisecond,
                        fi::bit_flip(4)},
      fi::InjectionSpec{bus_id("pulscnt"), 200 * sim::kMillisecond,
                        fi::bit_flip(0)},
  };
  config.batch_size = 1;
  config.threads = 1;
  BatchCounters counters;
  const fi::CampaignResult batched = fi::run_campaign(
      batched_campaign_runner(cases, config, kShortRun, &counters.telemetry),
      config);
  EXPECT_EQ(counters.batches(), 1u);
  EXPECT_GT(counters.segments(), 1u);
  EXPECT_GT(counters.refills(), 0u);
  EXPECT_EQ(counters.lanes(), config.injections.size());
  for (std::size_t r = 0; r < batched.records.size(); ++r) {
    const fi::InjectionSpec& spec =
        config.injections[batched.records[r].injection_index];
    EXPECT_TRUE(reports_identical(
        batched.records[r].report,
        oracle_report(cases[0], spec, fi::injection_run_seed(config, r))))
        << "record " << r;
  }
}

TEST(BatchRefill, ThinPoolsRunAsOneRequestEach) {
  const std::vector<TestCase> cases = grid_test_cases(1, 3);
  fi::CampaignConfig config = refill_config();
  config.test_case_count = 3;
  config.injections.resize(5);  // 5 runs per test case, below the width
  config.batch_size = 8;
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);
  BatchCounters counters;
  const fi::CampaignResult batched = fi::run_campaign(
      batched_campaign_runner(cases, config, kShortRun, &counters.telemetry),
      config);
  // 15 runs of three test cases: one single-segment request each.
  EXPECT_EQ(counters.batches(), 3u);
  EXPECT_EQ(counters.segments(), 3u);
  EXPECT_EQ(counters.refills(), 0u);
  ASSERT_EQ(batched.records.size(), scalar.records.size());
  for (std::size_t r = 0; r < scalar.records.size(); ++r) {
    EXPECT_TRUE(reports_identical(batched.records[r].report,
                                  scalar.records[r].report))
        << "record " << r;
  }
}

TEST(BatchRefill, MixedTestCaseRequestIsAContractViolation) {
  const std::vector<TestCase> cases = grid_test_cases(1, 2);
  const fi::CampaignConfig config = refill_config();
  const fi::CampaignRunner runner =
      batched_campaign_runner(cases, config, kShortRun);
  fi::BatchRunRequest request;
  for (std::uint32_t tc = 0; tc < cases.size(); ++tc) {
    fi::BatchLaneRequest lane;
    lane.flat = fi::campaign_flat_index(config, 0, tc);
    lane.test_case = tc;
    lane.rng_seed = fi::injection_run_seed(config, lane.flat);
    lane.spec = &config.injections[0];
    request.lanes.push_back(lane);
  }
  EXPECT_THROW(runner.batch(request), ContractViolation);
  // Either half alone is a valid request.
  request.lanes.pop_back();
  ASSERT_EQ(runner.batch(request).size(), 1u);
}

TEST(BatchRefill, StuckAtRequestRetiresAndRefillsLanes) {
  // The stuck-at workload's shape on a short horizon: every injection
  // target, all 32 stuck-at models, five instants.
  const std::vector<TestCase> cases = grid_test_cases(1, 1);
  fi::CampaignConfig config;
  config.test_case_count = 1;
  config.seed = 0x57AC;
  std::vector<fi::ErrorModel> models = fi::all_stuck_at_zero();
  const std::vector<fi::ErrorModel> ones = fi::all_stuck_at_one();
  models.insert(models.end(), ones.begin(), ones.end());
  for (const fi::BusSignalId target : injection_target_bus_ids()) {
    const auto plan = fi::cross_product_plan(
        target, models,
        {20 * sim::kMillisecond, 40 * sim::kMillisecond,
         60 * sim::kMillisecond, 80 * sim::kMillisecond,
         100 * sim::kMillisecond});
    config.injections.insert(config.injections.end(), plan.begin(),
                             plan.end());
  }
  config.threads = 1;
  BatchCounters refill;
  fi::run_campaign(
      batched_campaign_runner(cases, config, kShortRun, &refill.telemetry),
      config);
  EXPECT_GT(refill.retirements(), 0u);
  EXPECT_GT(refill.refills(), 0u);

  // The same runs without refill: one request per kernel width of
  // fire-tick-ordered runs, so every kernel opens with all of its request's
  // runs and a retired slot stays empty until the kernel ends.
  BatchCounters fixed;
  const fi::CampaignRunner runner =
      batched_campaign_runner(cases, config, kShortRun, &fixed.telemetry);
  runner.run(fi::RunRequest{});  // golden run: captures the checkpoints
  std::vector<fi::BatchLaneRequest> lanes;
  for (std::uint32_t inj = 0; inj < config.injections.size(); ++inj) {
    fi::BatchLaneRequest lane;
    lane.flat = inj;
    lane.injection_index = inj;
    lane.rng_seed = fi::injection_run_seed(config, inj);
    lane.spec = &config.injections[inj];
    lanes.push_back(lane);
  }
  std::stable_sort(lanes.begin(), lanes.end(),
                   [](const fi::BatchLaneRequest& a,
                      const fi::BatchLaneRequest& b) {
                     return a.spec->when < b.spec->when;
                   });
  for (std::size_t i = 0; i < lanes.size(); i += fi::kDefaultBatchSize) {
    fi::BatchRunRequest request;
    request.lanes.assign(
        lanes.begin() + static_cast<std::ptrdiff_t>(i),
        lanes.begin() + static_cast<std::ptrdiff_t>(std::min(
                            lanes.size(), i + fi::kDefaultBatchSize)));
    runner.batch(request);
  }
  EXPECT_EQ(fixed.refills(), 0u);
  EXPECT_EQ(fixed.lanes(), refill.lanes());
  EXPECT_LT(refill.ticks(), fixed.ticks());
}

// --- Row geometry: kernels sweep one or two whole 32-lane rows ----------

/// The first `runs` runs of test case 0 of refill_config(), flat-indexed
/// like the campaign would.
fi::BatchRunRequest refill_request(const fi::CampaignConfig& config,
                                   std::uint32_t runs) {
  fi::BatchRunRequest request;
  for (std::uint32_t index = 0; index < runs; ++index) {
    fi::BatchLaneRequest lane;
    lane.flat = fi::campaign_flat_index(config, index, 0);
    lane.injection_index = index;
    lane.rng_seed = fi::injection_run_seed(config, lane.flat);
    lane.spec = &config.injections[index];
    request.lanes.push_back(lane);
  }
  return request;
}

TEST(BatchGeometry, RequestsSweepOneOrTwoWholeRows) {
  const std::vector<TestCase> cases = grid_test_cases(1, 1);
  fi::CampaignConfig config = refill_config();
  config.test_case_count = 1;
  ASSERT_EQ(config.batch_size, 0u);  // the default geometry
  BatchCounters counters;
  const fi::CampaignRunner runner =
      batched_campaign_runner(cases, config, kShortRun, &counters.telemetry);
  runner.run(fi::RunRequest{});  // golden run: captures the checkpoints
  // 31 runs and the golden lane fill one row; 32 runs need two. Either
  // way each request is one kernel of a single row or a whole row pair.
  for (const auto& [runs, lanes] :
       {std::pair<std::uint32_t, std::uint64_t>{31, 32},
        std::pair<std::uint32_t, std::uint64_t>{32, 64}}) {
    SCOPED_TRACE("runs=" + std::to_string(runs));
    const std::uint64_t batches = counters.batches();
    const std::uint64_t ticks = counters.ticks();
    const std::uint64_t lane_ticks = counters.lane_ticks();
    const fi::BatchRunRequest request = refill_request(config, runs);
    const std::vector<fi::DivergenceReport> reports = runner.batch(request);
    EXPECT_EQ(counters.batches() - batches, 1u);
    EXPECT_EQ(counters.lane_ticks() - lane_ticks,
              lanes * (counters.ticks() - ticks));
    ASSERT_EQ(reports.size(), request.lanes.size());
    for (std::size_t i = 0; i < request.lanes.size(); ++i) {
      const fi::BatchLaneRequest& lane = request.lanes[i];
      EXPECT_TRUE(reports_identical(
          reports[i], oracle_report(cases[0], *lane.spec, lane.rng_seed)))
          << "lane " << i;
    }
  }
  // A request of more runs than the kernel holds streams through one
  // kernel of two rows.
  const std::uint64_t ticks = counters.ticks();
  const std::uint64_t lane_ticks = counters.lane_ticks();
  runner.batch(refill_request(config, 100));
  EXPECT_EQ(counters.lane_ticks() - lane_ticks,
            64 * (counters.ticks() - ticks));
}

TEST(BatchGeometry, ExplicitWidth64IsCappedAt63Slots) {
  const std::vector<TestCase> cases = grid_test_cases(1, 1);
  fi::CampaignConfig config;
  config.test_case_count = 1;
  config.seed = 0x6A64;
  // 104 runs of one fire tick: 63 take the first segment's slots and the
  // other 41 wait for a second segment (their tick has passed when a slot
  // comes free); one kernel sweeps both rows throughout.
  for (const fi::BusSignalId target : injection_target_bus_ids()) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      config.injections.push_back(fi::InjectionSpec{
          target, 40 * sim::kMillisecond, fi::bit_flip(bit)});
    }
  }
  config.threads = 1;
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kShortRun), config);

  config.batch_size = 64;
  BatchCounters counters;
  const fi::CampaignResult batched = fi::run_campaign(
      batched_campaign_runner(cases, config, kShortRun, &counters.telemetry),
      config);
  EXPECT_EQ(counters.batches(), 1u);
  EXPECT_GE(counters.segments(), 2u);
  EXPECT_LE(counters.live_slot_ticks(), counters.slot_ticks());
  EXPECT_LE(counters.slot_ticks(), 63 * counters.ticks());
  EXPECT_EQ(counters.lane_ticks(), 64 * counters.ticks());
  ASSERT_EQ(batched.records.size(), scalar.records.size());
  for (std::size_t r = 0; r < scalar.records.size(); ++r) {
    EXPECT_TRUE(reports_identical(batched.records[r].report,
                                  scalar.records[r].report))
        << "record " << r;
  }
}

TEST(BatchGeometry, SampledTicksTimeEveryStep) {
  // One tick in 64 is timed step by step, and the runner folds each
  // step's sum, and the number of ticks sampled, into its counter.
  const std::vector<TestCase> cases = grid_test_cases(1, 1);
  fi::CampaignConfig config;
  config.test_case_count = 1;
  config.seed = 0x57E9;
  for (unsigned bit = 0; bit < 8; ++bit) {
    config.injections.push_back(fi::InjectionSpec{
        injection_target_bus_ids().front(), 40 * sim::kMillisecond,
        fi::bit_flip(bit)});
  }
  config.threads = 1;
  BatchCounters counters;
  fi::run_campaign(
      batched_campaign_runner(cases, config, kShortRun, &counters.telemetry),
      config);
  ASSERT_GE(counters.ticks(), BatchedArrestmentSystem::kStepSamplePeriod);
  std::uint64_t total = 0;
  for (std::size_t step = 0; step < BatchedArrestmentSystem::kStepCount;
       ++step) {
    total += counters.metrics.counter(step_cycles_counter(step)).value();
  }
  EXPECT_GT(total, 0u);
  EXPECT_GT(counters.metrics
                .counter(step_cycles_counter(BatchedArrestmentSystem::kStepEnv))
                .value(),
            0u);
  // The sampled ticks those sums cover: at most one per kernel and
  // 64-tick window.
  const std::uint64_t sampled =
      counters.metrics.counter("batch.kernel.step.sampled_ticks").value();
  EXPECT_GT(sampled, 0u);
  EXPECT_LE(sampled,
            counters.ticks() / BatchedArrestmentSystem::kStepSamplePeriod +
                counters.batches());
}

// --- Exact exhaustion: the closed signals {TCNT, mscnt, ms_slot_nbr} ------

/// Long enough for the aircraft to come to rest, so injected runs reach
/// the stop-flag divergences exhaustion waits for.
constexpr sim::SimTime kExhaustRun = 4 * sim::kSecond;

/// Every record of `config` from the batch runner equals the cold scalar
/// campaign's, field by field.
void expect_records_match_scalar(const std::vector<TestCase>& cases,
                                 const fi::CampaignConfig& config,
                                 sim::SimTime duration,
                                 BatchCounters& counters) {
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, duration), config);
  const fi::CampaignResult batched = fi::run_campaign(
      batched_campaign_runner(cases, config, duration, &counters.telemetry),
      config);
  ASSERT_EQ(batched.records.size(), scalar.records.size());
  for (std::size_t r = 0; r < scalar.records.size(); ++r) {
    EXPECT_TRUE(reports_identical(batched.records[r].report,
                                  scalar.records[r].report))
        << "record " << r;
  }
}

TEST(BatchExhaustion, ClosedSignalInjectionsMatchTheScalarOracle) {
  // Faults in the closed signals themselves -- TCNT at tick start
  // (overwritten by the environment in the same tick) and before the
  // background task (seen by CALC, then overwritten), mscnt and
  // ms_slot_nbr (persistent) -- and in one loop signal of every module,
  // early and late, over a horizon on which runs exhaust.
  const std::vector<TestCase> cases = grid_test_cases(1, 1);
  fi::CampaignConfig config;
  config.test_case_count = 1;
  config.seed = 0xC105ED;
  const fi::BusSignalId tcnt = bus_id("TCNT");
  for (const unsigned bit : {0u, 6u, 11u, 15u}) {
    for (const sim::SimTime ms : {40u, 900u}) {
      config.injections.push_back(fi::InjectionSpec{
          tcnt, ms * sim::kMillisecond, fi::bit_flip(bit),
          fi::InjectionPhase::kPreBackground});
      for (const std::string_view target :
           {"TCNT", "mscnt", "ms_slot_nbr", "pulscnt", "InValue", "i",
            "OutValue", "TOC2"}) {
        config.injections.push_back(fi::InjectionSpec{
            bus_id(target), ms * sim::kMillisecond, fi::bit_flip(bit)});
      }
    }
  }
  BatchCounters counters;
  expect_records_match_scalar(cases, config, kExhaustRun, counters);
  EXPECT_GT(counters.exhausted(), 0u);
  EXPECT_EQ(counters.converged() + counters.exhausted(),
            counters.retirements());
}

TEST(BatchExhaustion, PaperShapeSliceRetiresRunsByExhaustion) {
  // The paper plan's shape -- every injection target, all 16 bit flips --
  // at two instants of one test case: some runs retire because every
  // signal outside the closed set diverged, others by convergence.
  const std::vector<TestCase> cases = grid_test_cases(1, 1);
  fi::CampaignConfig config;
  config.test_case_count = 1;
  config.seed = 0x9A9E2;
  for (const fi::BusSignalId target : injection_target_bus_ids()) {
    const auto plan =
        fi::cross_product_plan(target, fi::all_bit_flips(),
                               {500 * sim::kMillisecond, sim::kSecond});
    config.injections.insert(config.injections.end(), plan.begin(),
                             plan.end());
  }
  BatchCounters counters;
  expect_records_match_scalar(cases, config, kExhaustRun, counters);
  EXPECT_GT(counters.exhausted(), 0u);
  EXPECT_GT(counters.converged(), 0u);
  EXPECT_EQ(counters.converged() + counters.exhausted(),
            counters.retirements());
}

// --- Standstill exhaustion: closed signals of lanes at rest --------------

TEST(BatchExhaustion, StandstillInjectionsMatchTheScalarOracle) {
  // Faults in every signal of the standstill set that can be injected --
  // PACNT, pulscnt, i, stopped, slow_speed and SetValue -- in both phases,
  // on each of the 16 milliseconds around the golden run's standstill
  // (so every phase of the 16-tick convergence pass sees a fresh fire),
  // plus SetValue high-bit flips that brake a run to rest seconds before
  // its golden run: a lane at rest may treat the standstill set as closed
  // only while its golden lane rests too.
  constexpr sim::SimTime kRun = 7 * sim::kSecond;
  const std::vector<TestCase> cases = {TestCase{11000, 40}};
  RunOptions golden_options;
  golden_options.duration = kRun;
  const RunOutcome golden = run_arrestment(cases[0], golden_options);
  ASSERT_TRUE(golden.arrested);
  const std::uint64_t stop_ms = golden.stop_ms;
  ASSERT_LT(stop_ms + kStoppedGapMs + 500, sim::to_milliseconds(kRun));
  // The braked runs fire in [1.4 s, 2 s] and rest with the golden run's
  // checkpoint index, which the golden run advances only after they rest.
  const fi::BusSignalId checkpoint_i = bus_id("i");
  const std::uint16_t braked_i = golden.trace.value(1399, checkpoint_i);
  ASSERT_EQ(golden.trace.value(3500, checkpoint_i), braked_i);
  ASSERT_GT(golden.trace.value(stop_ms, checkpoint_i), braked_i);

  fi::CampaignConfig config;
  config.test_case_count = 1;
  config.seed = 0x57A11D;
  const auto add = [&](std::string_view target, std::uint64_t ms,
                       unsigned bit, fi::InjectionPhase phase) {
    config.injections.push_back(fi::InjectionSpec{
        bus_id(target), ms * sim::kMillisecond, fi::bit_flip(bit), phase});
  };
  constexpr fi::InjectionPhase kPhases[] = {
      fi::InjectionPhase::kTickStart, fi::InjectionPhase::kPreBackground};
  for (const fi::InjectionPhase phase : kPhases) {
    for (std::uint64_t ms = stop_ms - 8; ms < stop_ms + 8; ++ms) {
      for (const std::string_view target :
           {"PACNT", "pulscnt", "i", "stopped", "slow_speed", "SetValue"}) {
        for (const unsigned bit : {0u, 9u, 15u}) add(target, ms, bit, phase);
      }
    }
    for (const std::uint64_t ms : {1400u, 1600u, 1800u, 2000u}) {
      for (const unsigned bit : {13u, 14u, 15u}) {
        add("SetValue", ms, bit, phase);
      }
    }
  }
  BatchCounters counters;
  expect_records_match_scalar(cases, config, kRun, counters);
  EXPECT_GT(counters.exhausted(), 0u);
  EXPECT_EQ(counters.converged() + counters.exhausted(),
            counters.retirements());

  // The runs firing once both lanes rest: TIC1 never diverges for them,
  // so every one keeps a signal outside {TCNT, mscnt, ms_slot_nbr}
  // pending to the horizon and the static rule alone exhausts none of
  // them. Exhaustions here are standstill closures.
  fi::CampaignConfig slice = config;
  slice.injections.clear();
  for (const fi::InjectionSpec& spec : config.injections) {
    if (fi::injection_fire_ms(spec.when) > stop_ms) {
      slice.injections.push_back(spec);
    }
  }
  ASSERT_FALSE(slice.injections.empty());
  const fi::BusSignalId static_closed[] = {bus_id("TCNT"), bus_id("mscnt"),
                                           bus_id("ms_slot_nbr")};
  const fi::CampaignResult scalar =
      fi::run_campaign(campaign_runner(cases, kRun), slice);
  for (const fi::InjectionRecord& record : scalar.records) {
    bool open_pending = false;
    for (fi::BusSignalId sig = 0; sig < record.report.per_signal.size();
         ++sig) {
      open_pending |= !record.report.per_signal[sig].diverged &&
                      std::find(std::begin(static_closed),
                                std::end(static_closed),
                                sig) == std::end(static_closed);
    }
    EXPECT_TRUE(open_pending);
  }
  BatchCounters standstill;
  expect_records_match_scalar(cases, slice, kRun, standstill);
  EXPECT_GT(standstill.exhausted(), 0u);
}

// --- Rolling segments: per-segment clocks --------------------------------

/// What a rolling-form kernel reported about its own schedule.
struct RollingSchedule {
  std::vector<BatchedArrestmentSystem::SegmentOrigin> origins;
  std::uint64_t refills = 0;
};

/// Streams the injections of `config` (one test case, in fire-tick order)
/// through one rolling-form kernel of `lanes` lanes and `slots` slots,
/// each segment opening from the warm-start checkpoint at its earliest
/// run's fire tick, and checks every report against the scalar oracle.
RollingSchedule expect_rolling_matches_oracle(const TestCase& test_case,
                                              const fi::CampaignConfig& config,
                                              sim::SimTime run,
                                              std::size_t lanes,
                                              std::size_t slots) {
  WarmStartEngine engine({test_case}, config, run);
  const fi::TraceSet golden = engine.golden_run(fi::RunRequest{});

  std::vector<BatchLaneSpec> specs;
  for (std::size_t i = 0; i < config.injections.size(); ++i) {
    specs.push_back({&config.injections[i], 0x100 + i});
  }
  std::vector<std::shared_ptr<const WarmStartEngine::Checkpoint>> held;
  const BatchPool pool{specs, [&](std::uint64_t ms) -> const ArrestmentSystem& {
                         held.push_back(engine.lookup(0, ms));
                         return *held.back()->system;
                       }};
  BatchedArrestmentSystem batch(pool, lanes, slots, run);
  const std::vector<fi::DivergenceReport> reports = batch.run();

  RunOptions options;
  options.duration = run;
  EXPECT_EQ(reports.size(), specs.size());
  for (std::size_t i = 0; i < specs.size() && i < reports.size(); ++i) {
    options.injection = *specs[i].spec;
    options.rng_seed = specs[i].rng_seed;
    const RunOutcome scalar = run_arrestment(test_case, options);
    EXPECT_TRUE(reports_identical(
        reports[i], fi::compare_to_golden(golden, scalar.trace)))
        << "run " << i;
  }
  return {batch.segment_origins(), batch.refills()};
}

TEST(BatchRolling, EarlierTickOpensASecondSegmentPastTheLastFireTick) {
  // One test case, runs at every 500 ms from 0.5 s to 5 s, more than the
  // kernel's slots: the first segment opens at 0.5 s and refills its way
  // forward through the later fire ticks; the 0.5 s runs it had no slot
  // for run in a segment opened from the 0.5 s checkpoint after the first
  // segment's clock has passed 5 s.
  fi::CampaignConfig config;
  config.test_case_count = 1;
  config.seed = 0x5E6;
  for (std::uint64_t ms = 500; ms <= 5000; ms += 500) {
    for (const std::string_view target : {"TCNT", "PACNT", "pulscnt"}) {
      config.injections.push_back(fi::InjectionSpec{
          bus_id(target), ms * sim::kMillisecond, fi::bit_flip(13)});
    }
  }
  const RollingSchedule schedule = expect_rolling_matches_oracle(
      grid_test_cases(1, 1)[0], config, 6 * sim::kSecond, 32, /*slots=*/4);

  const auto& origins = schedule.origins;
  ASSERT_GE(origins.size(), 2u);
  EXPECT_EQ(origins[0].origin_ms, 500u);
  EXPECT_TRUE(std::any_of(
      origins.begin() + 1, origins.end(),
      [&](const BatchedArrestmentSystem::SegmentOrigin& later) {
        const std::uint64_t first_clock =
            origins[0].origin_ms + (later.opened_tick - origins[0].opened_tick);
        return later.origin_ms < 5000 && first_clock > 5000;
      }));
  EXPECT_GT(schedule.refills, 0u);
}

class BatchRollingWidth : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchRollingWidth, SegmentsOpenTogetherOverEveryLaneMatchTheOracle) {
  // Three segments open together on the first tick, from the 0.5 s, 1.5 s
  // and 2.5 s checkpoints, and between them take every lane: golden lanes
  // and their runs sit in both 32-lane halves, and a width short of a
  // whole row leaves a partial row for the screen's masked loads and the
  // lane-mask packer's zero tail. Within a segment the fire ticks are
  // staggered 20 ms apart, so armed lanes ride beside diverging ones.
  const std::size_t lanes = GetParam();
  constexpr std::size_t kSegments = 3;
  fi::SignalBus bus;
  build_bus(bus);
  fi::CampaignConfig config;
  config.test_case_count = 1;
  config.seed = 0x3A9E;
  const std::size_t runs = lanes - kSegments;
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    const std::size_t first = runs * seg / kSegments;
    const std::size_t last = runs * (seg + 1) / kSegments;
    for (std::size_t r = first; r < last; ++r) {
      const std::uint64_t ms = 500 + 1000 * seg + 20 * (r - first);
      config.injections.push_back(fi::InjectionSpec{
          static_cast<fi::BusSignalId>(r % bus.signal_count()),
          ms * sim::kMillisecond,
          fi::bit_flip(static_cast<unsigned>(r * 5 % 16))});
    }
  }
  const RollingSchedule schedule = expect_rolling_matches_oracle(
      grid_test_cases(1, 1)[0], config, 4 * sim::kSecond, lanes, lanes - 1);

  ASSERT_EQ(schedule.origins.size(), kSegments);
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    EXPECT_EQ(schedule.origins[seg].origin_ms, 500 + 1000 * seg);
    EXPECT_EQ(schedule.origins[seg].opened_tick, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(LaneCounts, BatchRollingWidth,
                         ::testing::Values(std::size_t{9}, std::size_t{31},
                                           std::size_t{32}, std::size_t{33},
                                           std::size_t{63}, std::size_t{64}));

}  // namespace
}  // namespace propane::arr

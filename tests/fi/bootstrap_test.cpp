#include "fi/bootstrap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "common/bytes.hpp"
#include "common/contracts.hpp"
#include "exp/report/bootstrap_report.hpp"
#include "obs/ndjson.hpp"
#include "obs/telemetry.hpp"

namespace propane::fi {
namespace {

using core::SystemModel;
using core::SystemModelBuilder;

/// Model with feedback and two inputs (same as estimator_test):
///   system input "x" -> A -> "a" -> B{in_a, in_fb} -> "b" (system out),
///   "b" also feeds back into B.in_fb.
SystemModel feedback_model() {
  SystemModelBuilder builder;
  builder.add_module("A", {"xin"}, {"a"});
  builder.add_module("B", {"in_a", "in_fb"}, {"b"});
  builder.add_system_input("x");
  builder.connect_system_input("x", "A", "xin");
  builder.connect("A", "a", "B", "in_a");
  builder.connect("B", "b", "B", "in_fb");
  builder.add_system_output("out", "B", "b");
  return std::move(builder).build();
}

/// One hand-made journal record: inject bus signal `target` under
/// `test_case`; `times` lists per-bus-signal first divergence instants
/// (SIZE_MAX = no divergence).
InjectionRecord make_record(BusSignalId target, std::uint32_t test_case,
                            const std::vector<std::size_t>& times) {
  InjectionRecord record;
  record.target = target;
  record.test_case = test_case;
  record.report = DivergenceReport(times.size());
  for (std::size_t s = 0; s < times.size(); ++s) {
    if (times[s] != SIZE_MAX) record.report.note(s, times[s], 0, 0);
  }
  return record;
}

/// A small mixed campaign over the feedback model (bus: x=0, a=1, b=2):
/// two test cases, three targets, with both diverging and clean runs so
/// every resampled permeability has genuine spread.
std::vector<InjectionRecord> mixed_records() {
  std::vector<InjectionRecord> records;
  for (std::uint32_t tc = 0; tc < 2; ++tc) {
    for (int i = 0; i < 6; ++i) {
      // Inject x: A's output a diverges in 4 of 6 runs.
      records.push_back(make_record(
          0, tc,
          {1, (i < 4) ? std::size_t{5} : SIZE_MAX, (i < 2) ? std::size_t{9}
                                                           : SIZE_MAX}));
      // Inject a: B's output b diverges in 3 of 6 runs.
      records.push_back(make_record(
          1, tc, {SIZE_MAX, 2, (i < 3) ? std::size_t{7} : SIZE_MAX}));
      // Inject b (feedback input): b diverges in 1 of 6 runs.
      records.push_back(make_record(
          2, tc, {SIZE_MAX, SIZE_MAX, (i < 1) ? std::size_t{3} : SIZE_MAX}));
    }
  }
  return records;
}

BootstrapResampler make_resampler(const SystemModel& model,
                                  const std::vector<InjectionRecord>& records) {
  const SignalBinding binding =
      SignalBinding::by_name(model, {"x", "a", "b"});
  BootstrapResampler resampler(model, binding, 3);
  for (const InjectionRecord& record : records) resampler.add(record);
  return resampler;
}

BootstrapOptions small_options(std::size_t threads) {
  BootstrapOptions options;
  options.replicates = 64;
  options.seed = 42;
  options.top_k = 2;
  options.threads = threads;
  options.run_fractions = {0.5};
  return options;
}

TEST(Bootstrap, ArtifactsAreByteIdenticalAcrossThreadCountsAndRepeats) {
  const SystemModel model = feedback_model();
  const BootstrapResampler resampler = make_resampler(model, mixed_records());

  const BootstrapResult one = resampler.run(small_options(1));
  const BootstrapResult four = resampler.run(small_options(4));
  const BootstrapResult again = resampler.run(small_options(4));

  EXPECT_EQ(exp::bootstrap_summary_json(one),
            exp::bootstrap_summary_json(four));
  EXPECT_EQ(exp::bootstrap_summary_json(four),
            exp::bootstrap_summary_json(again));
  EXPECT_EQ(exp::bootstrap_bands_svg(one), exp::bootstrap_bands_svg(four));
  EXPECT_EQ(exp::bootstrap_confidence_dot(model, one),
            exp::bootstrap_confidence_dot(model, four));
}

TEST(Bootstrap, ReportsItsShapeAndOpensItsTelemetrySession) {
  // The counts and rate a benchmark reads off a bootstrap, and the
  // bootstrap.plan event that opens its session in a telemetry log it
  // shares with the campaign's run and resume sessions.
  const SystemModel model = feedback_model();
  const std::vector<InjectionRecord> records = mixed_records();
  const BootstrapResampler resampler = make_resampler(model, records);
  obs::MetricsRegistry metrics;
  std::ostringstream events;
  obs::NdjsonSink sink(events);
  const obs::Telemetry telemetry{&metrics, &sink, nullptr};
  const BootstrapResult result = resampler.run(small_options(2), &telemetry);

  EXPECT_EQ(result.replicates, 64u);
  EXPECT_EQ(result.record_count, records.size());
  EXPECT_EQ(result.cell_count, resampler.cell_count());
  EXPECT_GT(result.cell_count, 0u);
  EXPECT_GT(result.wall_seconds, 0.0);
  // 64 replicates at each of the fractions 0.5 and 1.0.
  EXPECT_EQ(metrics.counter("bootstrap.replicates").value(), 128u);
  EXPECT_GT(metrics.gauge("bootstrap.replicates_per_s").value(), 0.0);
  // One observation per replicate in each histogram, and the resampling
  // share of a replicate cannot exceed its whole (which is truncated to
  // whole microseconds, hence one microsecond of slack per replicate).
  const obs::MetricsSnapshot snapshot = metrics.snapshot();
  const obs::HistogramSnapshot& replicate =
      snapshot.histograms.at("bootstrap.replicate.us");
  const obs::HistogramSnapshot& resample =
      snapshot.histograms.at("bootstrap.resample.us");
  EXPECT_EQ(replicate.count, 64u);
  EXPECT_EQ(resample.count, 64u);
  EXPECT_LE(resample.sum, replicate.sum + 64.0);
  const std::string log = events.str();
  EXPECT_EQ(log.rfind("{\"event\":\"bootstrap.plan\"", 0), 0u) << log;
  EXPECT_NE(log.find("\"event\":\"bootstrap.done\""), std::string::npos);
}

TEST(Bootstrap, RecordArrivalOrderDoesNotChangeTheDraws) {
  const SystemModel model = feedback_model();
  std::vector<InjectionRecord> records = mixed_records();
  const BootstrapResampler forward = make_resampler(model, records);
  std::reverse(records.begin(), records.end());
  const BootstrapResampler backward = make_resampler(model, records);

  EXPECT_EQ(exp::bootstrap_summary_json(forward.run(small_options(2))),
            exp::bootstrap_summary_json(backward.run(small_options(2))));
}

TEST(Bootstrap, SeedChangesTheDraws) {
  const SystemModel model = feedback_model();
  const BootstrapResampler resampler = make_resampler(model, mixed_records());
  BootstrapOptions other_seed = small_options(2);
  other_seed.seed = 43;
  EXPECT_NE(exp::bootstrap_summary_json(resampler.run(small_options(2))),
            exp::bootstrap_summary_json(resampler.run(other_seed)));
}

TEST(Bootstrap, BandCoversTheKnownPermeability) {
  // 40 injections into x with P(a diverges) = 1/2 exactly: the bootstrap
  // band of A's xin->a permeability must straddle 0.5 with real spread.
  const SystemModel model = feedback_model();
  std::vector<InjectionRecord> records;
  for (int i = 0; i < 40; ++i) {
    records.push_back(make_record(
        0, 0, {1, (i % 2 == 0) ? std::size_t{4} : SIZE_MAX, SIZE_MAX}));
  }
  const BootstrapResampler resampler = make_resampler(model, records);
  BootstrapOptions options;
  options.replicates = 400;
  options.seed = 7;
  const BootstrapResult result = resampler.run(options);

  const auto cloud = std::find_if(
      result.pairs.begin(), result.pairs.end(), [](const PairCloud& p) {
        return p.module_name == "A" && p.input_name == "x" &&
               p.output_name == "a";
      });
  ASSERT_NE(cloud, result.pairs.end());
  EXPECT_DOUBLE_EQ(cloud->permeability.point, 0.5);
  EXPECT_EQ(cloud->injections, 40u);
  EXPECT_LT(cloud->permeability.band.p2_5, 0.5);
  EXPECT_GT(cloud->permeability.band.p97_5, 0.5);
  EXPECT_GT(cloud->permeability.band.stddev, 0.0);
  // Binomial(40, 0.5)/40 has sd ~= 0.079; the bootstrap 95% band should be
  // in that ballpark, not degenerate and not absurdly wide.
  EXPECT_GT(cloud->permeability.band.p2_5, 0.25);
  EXPECT_LT(cloud->permeability.band.p97_5, 0.75);
}

TEST(Bootstrap, DegenerateCellsYieldTightBandsAndNoNaN) {
  // One cell with every record diverging, one with none: bands collapse to
  // the point value; nothing in any artifact may be NaN.
  const SystemModel model = feedback_model();
  std::vector<InjectionRecord> records;
  for (int i = 0; i < 8; ++i) {
    records.push_back(make_record(0, 0, {1, 5, SIZE_MAX}));        // all err
    records.push_back(make_record(1, 0, {SIZE_MAX, 2, SIZE_MAX}));  // none
  }
  const BootstrapResampler resampler = make_resampler(model, records);
  BootstrapOptions options;
  options.replicates = 100;
  const BootstrapResult result = resampler.run(options);

  for (const PairCloud& pair : result.pairs) {
    EXPECT_TRUE(std::isfinite(pair.permeability.band.stddev));
    EXPECT_DOUBLE_EQ(pair.permeability.band.p2_5, pair.permeability.point);
    EXPECT_DOUBLE_EQ(pair.permeability.band.p97_5, pair.permeability.point);
  }
  const std::string json = exp::bootstrap_summary_json(result);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
  // Module A has no incoming internal arcs (OB1): Eq. 4 must serialise as
  // null, not NaN.
  EXPECT_NE(json.find("\"exposure\": null"), std::string::npos);
}

TEST(Bootstrap, RankingStabilityIsAProbabilityDistribution) {
  const SystemModel model = feedback_model();
  const BootstrapResampler resampler = make_resampler(model, mixed_records());
  const BootstrapResult result = resampler.run(small_options(2));

  double top1_sum = 0.0;
  for (const ModuleCloud& m : result.modules) {
    top1_sum += m.p_top1_exposure;
    EXPECT_GE(m.p_topk_exposure, m.p_top1_exposure);
    EXPECT_LE(m.p_topk_exposure, 1.0);
  }
  EXPECT_NEAR(top1_sum, 1.0, 1e-12);

  double path_top1_sum = 0.0;
  for (const PathCloud& p : result.paths) path_top1_sum += p.p_top1;
  EXPECT_NEAR(path_top1_sum, 1.0, 1e-12);

  // The point-estimate EDM/ERM winners carry their own top-1 stability.
  EXPECT_FALSE(result.edm_module.empty());
  EXPECT_GE(result.edm_p_top1, 0.0);
  EXPECT_LE(result.edm_p_top1, 1.0);
}

TEST(Bootstrap, ConvergenceLadderEndsAtTheFullCampaign) {
  const SystemModel model = feedback_model();
  const std::vector<InjectionRecord> records = mixed_records();
  const BootstrapResampler resampler = make_resampler(model, records);
  BootstrapOptions options;
  options.replicates = 64;
  options.run_fractions = {0.25, 0.5, 0.25};  // duplicates collapse
  const BootstrapResult result = resampler.run(options);

  ASSERT_EQ(result.convergence.size(), 3u);
  EXPECT_DOUBLE_EQ(result.convergence[0].fraction, 0.25);
  EXPECT_DOUBLE_EQ(result.convergence[1].fraction, 0.5);
  EXPECT_DOUBLE_EQ(result.convergence[2].fraction, 1.0);
  EXPECT_LT(result.convergence[0].draws, result.convergence[2].draws);
  // The full-size point restates the main clouds' Eq. 5 bands exactly.
  EXPECT_EQ(result.convergence[2].draws, records.size());
  for (std::size_t m = 0; m < result.modules.size(); ++m) {
    EXPECT_DOUBLE_EQ(result.convergence[2].module_exposure[m].band.p50,
                     result.modules[m].nonweighted_exposure.band.p50);
  }
}

/// Model whose module C has two outputs, so one injected signal reaches two
/// consumer pairs (bus: x=0, a=1, c1=2, c2=3, b=4):
///   system input "x" -> A -> "a" -> C -> {"c1", "c2"} -> B{in1, in2} ->
///   "b" (system out).
SystemModel fanout_model() {
  SystemModelBuilder builder;
  builder.add_module("A", {"xin"}, {"a"});
  builder.add_module("C", {"cin"}, {"c1", "c2"});
  builder.add_module("B", {"in1", "in2"}, {"b"});
  builder.add_system_input("x");
  builder.connect_system_input("x", "A", "xin");
  builder.connect("A", "a", "C", "cin");
  builder.connect("C", "c1", "B", "in1");
  builder.connect("C", "c2", "B", "in2");
  builder.add_system_output("out", "B", "b");
  return std::move(builder).build();
}

/// Cells of every resampling shape over fanout_model(): x under test case 0
/// never reaches a (one all-clean mask), x under test case 1 always does
/// (one always-erring mask), a reaches c1 and c2 in four distinct patterns
/// over C's two pairs, and c1 reaches b in half its runs.
std::vector<InjectionRecord> fanout_records() {
  constexpr std::size_t kClean = SIZE_MAX;
  std::vector<InjectionRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(make_record(0, 0, {1, kClean, kClean, kClean, kClean}));
    records.push_back(make_record(0, 1, {1, 2, kClean, kClean, kClean}));
    records.push_back(make_record(
        2, 0,
        {kClean, kClean, 3, kClean, (i % 2 == 0) ? std::size_t{5} : kClean}));
  }
  for (int i = 0; i < 12; ++i) {
    records.push_back(make_record(
        1, 0,
        {kClean, 2, (i % 3 != 0) ? std::size_t{3} : kClean,
         (i % 4 == 0) ? std::size_t{4} : kClean, kClean}));
  }
  return records;
}

std::uint64_t digest(const std::string& text) {
  return fnv1a64(text.data(), text.size());
}

TEST(Bootstrap, ArtifactsMatchPinnedDigests) {
  // Pins the artifacts' bytes, not only their agreement across runs: a
  // change to how a replicate draws must leave every draw where it was.
  const SystemModel model = fanout_model();
  const SignalBinding binding =
      SignalBinding::by_name(model, {"x", "a", "c1", "c2", "b"});
  BootstrapResampler resampler(model, binding, 5);
  for (const InjectionRecord& record : fanout_records()) {
    resampler.add(record);
  }
  ASSERT_EQ(resampler.cell_count(), 4u);
  BootstrapOptions options;
  options.replicates = 64;
  options.seed = 42;
  options.top_k = 2;
  options.threads = 2;
  options.run_fractions = {0.25, 0.5, 0.75};
  const BootstrapResult result = resampler.run(options);

  EXPECT_EQ(digest(exp::bootstrap_summary_json(result)),
            0x58F8FD16555D5612ULL)
      << std::hex << digest(exp::bootstrap_summary_json(result));
  EXPECT_EQ(digest(exp::bootstrap_bands_svg(result)), 0x1A0F0125263BB3F4ULL)
      << std::hex << digest(exp::bootstrap_bands_svg(result));
  EXPECT_EQ(digest(exp::bootstrap_confidence_dot(model, result)),
            0xC6689697028C5B2FULL)
      << std::hex << digest(exp::bootstrap_confidence_dot(model, result));
}

TEST(Bootstrap, RunWithoutRecordsViolatesContract) {
  const SystemModel model = feedback_model();
  const SignalBinding binding =
      SignalBinding::by_name(model, {"x", "a", "b"});
  const BootstrapResampler empty(model, binding, 3);
  EXPECT_THROW(empty.run(BootstrapOptions{}), ContractViolation);

  const BootstrapResampler loaded = make_resampler(model, mixed_records());
  BootstrapOptions zero;
  zero.replicates = 0;
  EXPECT_THROW(loaded.run(zero), ContractViolation);
}

}  // namespace
}  // namespace propane::fi

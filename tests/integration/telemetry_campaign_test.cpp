// Telemetry must be pure observation: a campaign with metrics, events,
// spans and a progress reporter attached must produce a byte-identical
// permeability CSV to one with everything disabled, and every NDJSON line
// it streams must parse back. The log describes what the engine executes
// -- golden runs, kernel requests, sessions -- so no event's count grows
// with the injection runs. The trace exported from a journal's sessions
// must parent every golden run and batch under its session's campaign
// span.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "arrestment/batch_runner.hpp"
#include "arrestment/model.hpp"
#include "arrestment/testcase.hpp"
#include "core/system_model.hpp"
#include "obs/metrics.hpp"
#include "obs/ndjson.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "store/result_cache.hpp"
#include "store/resume.hpp"

namespace propane::store {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;  // the campaign creates it
}

/// The toy system of tests/store/resume_test.cpp: "src" is freshly
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

core::SystemModel toy_model() {
  core::SystemModelBuilder builder;
  builder.add_module("M", {"in"}, {"dst"});
  builder.add_system_input("src");
  builder.connect_system_input("src", "M", "in");
  builder.add_system_output("out", "M", "dst");
  return std::move(builder).build();
}

/// A plain journaled run of the toy campaign: the one journaled entry
/// point with an empty baseline, exactly as `campaign run` executes it.
DeltaJournalSummary run_journaled(const fs::path& dir,
                                  const JournalRunOptions& options = {}) {
  const core::SystemModel model = toy_model();
  DeltaRunOptions delta;
  delta.base = options;
  return run_delta_journaled_campaign(
      toy_run, toy_config(), model,
      fi::SignalBinding::by_name(model, {"src", "dst"}), dir, ResultCache{},
      delta);
}

std::string journal_csv(const fs::path& dir) {
  const core::SystemModel model = toy_model();
  std::ostringstream out;
  write_permeability_csv_from_journal(
      out, dir, model, fi::SignalBinding::by_name(model, {"src", "dst"}));
  return out.str();
}

/// Every injectable arrestment signal x 2 models x 2 instants x 2 test
/// cases = 104 runs: the production batched runner at smoke scale.
fi::CampaignConfig arrestment_config() {
  fi::CampaignConfig config;
  config.test_case_count = 2;
  config.seed = 0x7E1E;
  config.threads = 2;
  const std::vector<fi::ErrorModel> models = {fi::bit_flip(3),
                                              fi::bit_flip(12)};
  const std::vector<sim::SimTime> instants = {50 * sim::kMillisecond,
                                              150 * sim::kMillisecond};
  for (const fi::BusSignalId target : arr::injection_target_bus_ids()) {
    const auto plan = fi::cross_product_plan(target, models, instants);
    config.injections.insert(config.injections.end(), plan.begin(),
                             plan.end());
  }
  return config;
}

/// A journaled arrestment campaign through the batched runner, with the
/// same telemetry bundle handed to the runner and the session.
DeltaJournalSummary run_arrestment(const fs::path& dir,
                                   const JournalRunOptions& options = {}) {
  const fi::CampaignConfig config = arrestment_config();
  const core::SystemModel model = arr::make_arrestment_model();
  DeltaRunOptions delta;
  delta.base = options;
  return run_delta_journaled_campaign(
      arr::batched_campaign_runner(arr::grid_test_cases(1, 2), config,
                                   300 * sim::kMillisecond,
                                   options.telemetry),
      config, model, arr::make_arrestment_binding(model), dir, ResultCache{},
      delta);
}

std::string arrestment_csv(const fs::path& dir) {
  const core::SystemModel model = arr::make_arrestment_model();
  std::ostringstream out;
  write_permeability_csv_from_journal(out, dir, model,
                                      arr::make_arrestment_binding(model));
  return out.str();
}

TEST(TelemetryCampaign, CsvIsByteIdenticalWithTelemetryOnOrOff) {
  // Plain campaign: no telemetry at all.
  const fs::path plain_dir = fresh_dir("telemetry_off");
  const DeltaJournalSummary plain = run_arrestment(plain_dir);
  ASSERT_EQ(plain.executed, 104u);

  // Fully instrumented campaign: metrics + NDJSON events (spans stream
  // into them) + HUD (forced on, rendering into a tmpfile so no terminal
  // is involved).
  const fs::path traced_dir = fresh_dir("telemetry_on");
  obs::MetricsRegistry metrics;
  std::ostringstream events_out;
  obs::NdjsonSink sink(events_out);

  std::FILE* hud_out = std::tmpfile();
  ASSERT_NE(hud_out, nullptr);
  obs::ProgressReporter::Options hud_options;
  hud_options.total_runs = plain.total_runs;
  hud_options.force = true;
  hud_options.min_interval_us = 0;
  hud_options.out = hud_out;
  obs::ProgressReporter hud(metrics, hud_options);
  obs::Telemetry telemetry{&metrics, &sink, &hud};

  JournalRunOptions options;
  options.telemetry = &telemetry;
  options.shard_count = 2;
  const DeltaJournalSummary traced = run_arrestment(traced_dir, options);
  hud.finish();
  std::fclose(hud_out);

  EXPECT_EQ(traced.executed, plain.executed);
  EXPECT_EQ(traced.total_runs, plain.total_runs);

  // The observable artefact -- the permeability CSV -- must not differ by
  // a single byte.
  EXPECT_EQ(arrestment_csv(plain_dir), arrestment_csv(traced_dir));

  // The registry must be consistent with the campaign...
  EXPECT_EQ(metrics.counter("campaign.runs.injection").value(),
            traced.executed);
  EXPECT_EQ(metrics.counter("campaign.runs.golden").value(), 2u);
  EXPECT_EQ(metrics.counter("campaign.runs.diverged").value(),
            traced.diverged);
  EXPECT_EQ(metrics.counter("delta.misses").value(), traced.executed);
  EXPECT_EQ(metrics.counter("journal.appends").value(),
            traced.executed + traced.replayed);
  EXPECT_EQ(metrics.counter("journal.append.bytes").value(),
            traced.journal_bytes);
  EXPECT_GT(traced.wall_seconds, 0.0);
  const std::uint64_t requests =
      metrics.snapshot().histograms.at("batch.group.lanes").count;
  EXPECT_GT(requests, 0u);
  EXPECT_LT(requests, traced.executed);  // requests pack many runs

  // ...every event line must parse back, and the log must stay
  // O(requests): one golden.done per test case, one campaign.batch.done
  // per kernel request, and otherwise only per-session events.
  const std::set<std::string> per_session = {
      "delta.plan", "journal.resume_scan", "delta.done", "span",
      "pool.queue_depth"};
  std::map<std::string, std::size_t> counts;
  std::istringstream lines(events_out.str());
  for (std::string line; std::getline(lines, line);) {
    const auto fields = obs::parse_flat_json_object(line);
    ASSERT_TRUE(fields.has_value()) << line;
    ASSERT_FALSE(fields->empty());
    ASSERT_EQ(fields->front().key, "event");
    const std::string& event = fields->front().value.as_string();
    ++counts[event];
    if (event == "span") {
      for (const obs::Field& field : *fields) {
        if (field.key == "name") ++counts["span:" + field.value.as_string()];
      }
    }
  }
  EXPECT_EQ(counts["golden.done"], 2u);
  EXPECT_EQ(counts["campaign.batch.done"], requests);
  EXPECT_EQ(counts["span:campaign"], 1u);
  for (const auto& [event, count] : counts) {
    if (event == "golden.done" || event == "campaign.batch.done" ||
        event.starts_with("span:")) {
      continue;
    }
    EXPECT_TRUE(per_session.contains(event)) << event << " x" << count;
  }
  EXPECT_LE(counts["span"], 4u);  // campaign, two phases, resume scan

  // The HUD rendered from the same registry the summary agrees with.
  EXPECT_EQ(hud.snapshot().completed, traced.executed);
  EXPECT_EQ(hud.snapshot().diverged, traced.diverged);
  EXPECT_EQ(hud.snapshot().journal_bytes, traced.journal_bytes);
}

TEST(TelemetryCampaign, ResumedSessionKeepsCsvIdenticalToo) {
  // Journal half the runs with telemetry on, the rest with it off: the
  // final CSV must still match a clean untraced run.
  const fs::path reference_dir = fresh_dir("telemetry_reference");
  run_journaled(reference_dir);

  const fs::path split_dir = fresh_dir("telemetry_split");
  {
    obs::MetricsRegistry metrics;
    obs::Telemetry telemetry{&metrics, nullptr, nullptr};
    JournalRunOptions first_half;
    first_half.process_count = 2;
    first_half.process_index = 0;
    first_half.telemetry = &telemetry;
    run_journaled(split_dir, first_half);
  }
  JournalRunOptions second_half;
  second_half.process_count = 2;
  second_half.process_index = 1;
  run_journaled(split_dir, second_half);

  EXPECT_EQ(journal_csv(reference_dir), journal_csv(split_dir));
}

/// The number after `"key":` in one rendered trace-event line; `fallback`
/// when the key is absent.
std::uint64_t number_after(const std::string& line, const std::string& key,
                           std::uint64_t fallback = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return fallback;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

std::string name_of(const std::string& line) {
  const std::string needle = "\"name\":\"";
  const std::size_t at = line.find(needle) + needle.size();
  return line.substr(at, line.find('"', at) - at);
}

TEST(TelemetryCampaign, TraceParentsEveryRunUnderItsSessionsCampaignSpan) {
  // Two sessions append to one telemetry log, as `campaign run` and a
  // later `campaign resume` do: the first executes half the plan, the
  // second the rest.
  const fs::path dir = fresh_dir("telemetry_trace");
  std::ostringstream log;
  for (std::uint32_t index = 0; index < 2; ++index) {
    obs::NdjsonSink sink(log);
    obs::Telemetry telemetry{nullptr, &sink, nullptr};
    JournalRunOptions options;
    options.process_count = 2;
    options.process_index = index;
    options.telemetry = &telemetry;
    run_journaled(dir, options);
    sink.flush();
  }

  std::istringstream in(log.str());
  obs::TelemetryLog parsed = obs::read_telemetry_log(in);
  EXPECT_EQ(parsed.torn_lines, 0u);
  const obs::TraceStream stream{"campaign", std::move(parsed.events)};
  std::ostringstream out;
  const obs::TraceExportSummary summary = obs::write_chrome_trace(out, stream);
  EXPECT_EQ(summary.sessions, 2u);

  // Span table per process track: (pid, span_id) -> (name, parent).
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::pair<std::string, std::uint64_t>>
      span_table;
  // Synthesized spans: pid, parent.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs, batches;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    const std::uint64_t pid = number_after(line, "pid");
    if (name_of(line) == "campaign.run") {
      runs.emplace_back(pid, number_after(line, "parent_span_id"));
    } else if (name_of(line) == "campaign.batch") {
      batches.emplace_back(pid, number_after(line, "parent_span_id"));
    } else if (line.find("\"span_id\":") != std::string::npos) {
      span_table[{pid, number_after(line, "span_id")}] = {
          name_of(line), number_after(line, "parent_span_id")};
    }
  }
  // 3 golden runs per session.
  EXPECT_EQ(runs.size(), 6u);
  // One batch per injection run: the toy runner is width 1.
  EXPECT_EQ(batches.size(), 12u);
  EXPECT_EQ(summary.synthesized, runs.size() + batches.size());
  runs.insert(runs.end(), batches.begin(), batches.end());
  for (const auto& [pid, first_parent] : runs) {
    std::uint64_t parent = first_parent;
    std::string reached = "detached";
    for (int hop = 0; parent != 0 && hop < 8; ++hop) {
      const auto span = span_table.find({pid, parent});
      ASSERT_NE(span, span_table.end())
          << "parent " << parent << " is not a span of process " << pid;
      reached = span->second.first;
      parent = span->second.second;
    }
    EXPECT_EQ(reached, "campaign") << "a span in process " << pid;
  }
}

}  // namespace
}  // namespace propane::store

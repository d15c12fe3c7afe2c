// Telemetry must be pure observation: a campaign with metrics, events,
// spans and a progress reporter attached must produce a byte-identical
// permeability CSV to one with everything disabled, and every NDJSON line
// it streams must parse back. The trace exported from a journal's
// sessions must parent every run under its session's campaign span.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "core/system_model.hpp"
#include "obs/metrics.hpp"
#include "obs/ndjson.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
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

TEST(TelemetryCampaign, CsvIsByteIdenticalWithTelemetryOnOrOff) {
  // Plain campaign: no telemetry at all.
  const fs::path plain_dir = fresh_dir("telemetry_off");
  const DeltaJournalSummary plain = run_journaled(plain_dir);
  ASSERT_EQ(plain.executed, 12u);

  // Fully instrumented campaign: metrics + NDJSON events + spans + HUD
  // (forced on, rendering into a tmpfile so no terminal is involved).
  const fs::path traced_dir = fresh_dir("telemetry_on");
  obs::MetricsRegistry metrics;
  std::ostringstream events_out;
  obs::NdjsonSink sink(events_out);
  obs::SpanBuffer spans;
  obs::Telemetry telemetry{&metrics, &sink, &spans};

  std::FILE* hud_out = std::tmpfile();
  ASSERT_NE(hud_out, nullptr);
  obs::ProgressReporter::Options hud_options;
  hud_options.force = true;
  hud_options.min_interval_us = 0;
  hud_options.out = hud_out;
  obs::ProgressReporter hud(hud_options);

  JournalRunOptions options;
  options.telemetry = &telemetry;
  options.progress = &hud;
  options.shard_count = 2;
  const DeltaJournalSummary traced = run_journaled(traced_dir, options);
  hud.finish();
  std::fclose(hud_out);

  EXPECT_EQ(traced.executed, plain.executed);
  EXPECT_EQ(traced.total_runs, plain.total_runs);

  // The observable artefact -- the permeability CSV -- must not differ by
  // a single byte.
  EXPECT_EQ(journal_csv(plain_dir), journal_csv(traced_dir));

  // The telemetry itself must be consistent with the campaign...
  EXPECT_EQ(metrics.counter("campaign.runs.injection").value(),
            traced.executed);
  EXPECT_EQ(metrics.counter("campaign.runs.golden").value(), 3u);
  EXPECT_EQ(metrics.counter("campaign.runs.diverged").value(),
            traced.diverged);
  EXPECT_EQ(metrics.counter("journal.appends").value(),
            traced.executed + traced.replayed);
  EXPECT_EQ(metrics.counter("journal.append.bytes").value(),
            traced.journal_bytes);
  EXPECT_GT(traced.wall_seconds, 0.0);

  // ...every event line must parse back...
  std::istringstream lines(events_out.str());
  std::size_t event_lines = 0, injection_done = 0;
  for (std::string line; std::getline(lines, line);) {
    const auto fields = obs::parse_flat_json_object(line);
    ASSERT_TRUE(fields.has_value()) << line;
    ++event_lines;
    for (const obs::Field& field : *fields) {
      if (field.key == "event" &&
          field.value == obs::Value("injection.done")) {
        ++injection_done;
      }
    }
  }
  EXPECT_GT(event_lines, 0u);
  EXPECT_EQ(injection_done, traced.executed);

  // ...and the spans must include the campaign phases.
  bool saw_campaign_span = false;
  for (const obs::FinishedSpan& span : spans.snapshot()) {
    if (span.name == "campaign") saw_campaign_span = true;
  }
  EXPECT_TRUE(saw_campaign_span);

  // The HUD tracked the same counts the summary reports.
  EXPECT_EQ(hud.snapshot().completed, traced.executed);
  EXPECT_EQ(hud.snapshot().diverged, traced.diverged);
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
  // second the rest. Each session gets its own span buffer, so both
  // number their spans from 1, as two processes would.
  const fs::path dir = fresh_dir("telemetry_trace");
  std::ostringstream log;
  for (std::uint32_t index = 0; index < 2; ++index) {
    obs::NdjsonSink sink(log);
    obs::SpanBuffer spans;
    obs::Telemetry telemetry{nullptr, &sink, &spans};
    JournalRunOptions options;
    options.process_count = 2;
    options.process_index = index;
    options.telemetry = &telemetry;
    run_journaled(dir, options);
    sink.flush();
  }

  obs::TraceStream stream;
  stream.name = "campaign";
  std::istringstream in(log.str());
  EXPECT_EQ(obs::parse_ndjson_stream(in, stream.events), 0u);
  std::ostringstream out;
  const obs::TraceExportSummary summary = obs::write_chrome_trace(out, stream);
  EXPECT_EQ(summary.sessions, 2u);

  // Span table per process track: (pid, span_id) -> (name, parent).
  std::map<std::pair<std::uint64_t, std::uint64_t>,
           std::pair<std::string, std::uint64_t>>
      span_table;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> runs;  // pid, parent
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    const std::uint64_t pid = number_after(line, "pid");
    if (name_of(line) == "campaign.run") {
      runs.emplace_back(pid, number_after(line, "parent_span_id"));
    } else if (line.find("\"span_id\":") != std::string::npos) {
      span_table[{pid, number_after(line, "span_id")}] = {
          name_of(line), number_after(line, "parent_span_id")};
    }
  }
  // 3 goldens per session plus the 12 injection runs between them.
  EXPECT_EQ(runs.size(), 18u);
  // Plus one batch per injection run: the toy runner is width 1.
  EXPECT_EQ(summary.synthesized, runs.size() + 12);
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
    EXPECT_EQ(reached, "campaign") << "a run in process " << pid;
  }
}

}  // namespace
}  // namespace propane::store

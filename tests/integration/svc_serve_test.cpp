// Dispatcher integration tests: `serve_campaign` drives real worker
// processes (the propane CLI, located via PROPANE_CLI_PATH) over pipes,
// and the resulting journal must be indistinguishable from a
// single-process campaign -- including when a worker is SIGKILLed
// mid-lease and its range is requeued to a survivor. The telemetry tests
// run the same serve with tracing on and check the cross-process span
// ancestry plus the crash flight recorder's postmortem view.
#include "svc/dispatcher.hpp"

#include <gtest/gtest.h>

#include <signal.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "arrestment/batch_runner.hpp"
#include "arrestment/model.hpp"
#include "arrestment/testcase.hpp"
#include "exp/paper_experiment.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "store/resume.hpp"

namespace propane::svc {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::string> worker_command(const fs::path& dir) {
  return {PROPANE_CLI_PATH, "campaign",  "worker",        "--journal",
          dir.string(),     "--scale",   "smoke",         "--no-telemetry"};
}

std::string serve_csv(const fs::path& dir, const core::SystemModel& model,
                      const fi::SignalBinding& binding) {
  std::ostringstream out;
  store::write_permeability_csv_from_journal(out, dir, model, binding);
  return out.str();
}

/// Single-process reference journal for the smoke scale, exactly as the
/// CLI's `campaign run --scale smoke` would produce it.
void run_reference(const exp::ExperimentScale& scale,
                   const fi::CampaignConfig& config, const fs::path& dir) {
  const std::vector<arr::TestCase> cases =
      scale.custom_cases.empty()
          ? arr::grid_test_cases(scale.mass_count, scale.velocity_count)
          : scale.custom_cases;
  store::run_journaled_campaign(
      arr::batched_campaign_runner(cases, config, scale.duration), config,
      dir);
}

TEST(ServeCampaign, TwoWorkersMatchSingleProcessByteForByte) {
  const exp::ExperimentScale scale = exp::smoke_scale();
  const fi::CampaignConfig config = exp::make_campaign_config(scale);

  const fs::path reference = fresh_dir("serve_reference");
  run_reference(scale, config, reference);

  const core::SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);

  const fs::path dir = fresh_dir("serve_two_workers");
  ServeOptions options;
  options.worker_count = 2;
  options.worker_command = worker_command(dir);
  options.model = &model;
  options.binding = &binding;
  options.bus_signal_count = binding.bus_upper_bound();
  const ServeSummary summary = serve_campaign(config, dir, options);

  EXPECT_EQ(summary.workers_spawned, 2u);
  EXPECT_EQ(summary.workers_died, 0u);
  EXPECT_EQ(summary.leases_requeued, 0u);
  EXPECT_EQ(summary.leases_completed, summary.leases_granted);
  EXPECT_EQ(summary.executed, summary.total_runs);
  EXPECT_GE(summary.partial_estimates, 1u);
  EXPECT_EQ(summary.estimated_runs, summary.total_runs);

  EXPECT_EQ(serve_csv(dir, model, binding),
            serve_csv(reference, model, binding));

  // The lease log reconstructs the session: every grant either completed
  // or was requeued (none here), nothing outstanding.
  const LeaseLogScan scan = scan_lease_log(summary.lease_log_path);
  ASSERT_TRUE(scan.has_campaign);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.campaign.total_runs, summary.total_runs);
  EXPECT_EQ(scan.grants.size(), summary.leases_granted);
  EXPECT_EQ(scan.completions.size(), summary.leases_completed);
  EXPECT_TRUE(scan.outstanding().empty());
}

TEST(ServeCampaign, SigkilledWorkerRangeIsReassignedByteIdentically) {
  const exp::ExperimentScale scale = exp::smoke_scale();
  const fi::CampaignConfig config = exp::make_campaign_config(scale);

  const fs::path reference = fresh_dir("serve_kill_reference");
  run_reference(scale, config, reference);

  const core::SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);

  const fs::path dir = fresh_dir("serve_kill");
  ServeOptions options;
  options.worker_count = 2;
  options.worker_command = worker_command(dir);
  // The test's own fault injector: SIGKILL the first worker right after it
  // is granted its first lease, mid-campaign.
  bool killed = false;
  options.on_grant = [&killed](const LeaseGrant&, std::int64_t pid) {
    if (killed) return;
    killed = true;
    ::kill(static_cast<pid_t>(pid), SIGKILL);
  };
  const ServeSummary summary = serve_campaign(config, dir, options);

  EXPECT_TRUE(killed);
  EXPECT_EQ(summary.workers_died, 1u);
  EXPECT_GE(summary.leases_requeued, 1u);

  // The survivor absorbed the requeued range; the journal holds every run
  // exactly once and the estimate is byte-identical to the uninterrupted
  // single-process campaign.
  const store::CampaignDirState state = store::scan_campaign_dir(dir);
  EXPECT_EQ(state.completed_count, summary.total_runs);
  EXPECT_EQ(serve_csv(dir, model, binding),
            serve_csv(reference, model, binding));

  // The lease log records the death: the killed lease was requeued, and
  // after the session nothing is outstanding.
  const LeaseLogScan scan = scan_lease_log(summary.lease_log_path);
  ASSERT_TRUE(scan.has_campaign);
  EXPECT_EQ(scan.requeues.size(), summary.leases_requeued);
  EXPECT_TRUE(scan.outstanding().empty());
}

std::vector<std::string> traced_worker_command(const fs::path& dir) {
  return {PROPANE_CLI_PATH, "campaign", "worker", "--journal", dir.string(),
          "--scale",        "smoke"};
}

const obs::Value* field(const std::vector<obs::Field>& row,
                        std::string_view key) {
  for (const obs::Field& f : row) {
    if (f.key == key) return &f.value;
  }
  return nullptr;
}

std::string str_field(const std::vector<obs::Field>& row,
                      std::string_view key) {
  const obs::Value* value = field(row, key);
  return value != nullptr && value->kind() == obs::Value::Kind::kString
             ? value->as_string()
             : std::string();
}

std::uint64_t u64_field(const std::vector<obs::Field>& row,
                        std::string_view key) {
  const obs::Value* value = field(row, key);
  return value != nullptr && value->is_number() ? value->as_uint() : 0;
}

obs::TraceStream load_stream(const fs::path& path, std::string name) {
  obs::TraceStream stream;
  stream.name = std::move(name);
  std::ifstream in(path);
  obs::parse_ndjson_stream(in, stream.events);
  return stream;
}

TEST(ServeCampaign, TraceStreamsCarryTheFullSpanAncestry) {
  const exp::ExperimentScale scale = exp::smoke_scale();
  const fi::CampaignConfig config = exp::make_campaign_config(scale);

  const fs::path dir = fresh_dir("serve_trace");
  fs::create_directories(dir);

  obs::MetricsRegistry metrics;
  obs::SpanBuffer spans;
  obs::NdjsonSink sink(dir / "telemetry.ndjson");
  obs::Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.events = &sink;
  telemetry.spans = &spans;

  ServeOptions options;
  options.worker_count = 2;
  options.worker_command = traced_worker_command(dir);
  options.telemetry = &telemetry;
  const ServeSummary summary = serve_campaign(config, dir, options);
  sink.flush();

  EXPECT_NE(summary.trace_id, 0u);
  EXPECT_EQ(summary.executed, summary.total_runs);

  // Dispatcher stream: one campaign.serve root carrying the trace id, and
  // one serve.lease span per completed lease, all parented by the root.
  const obs::TraceStream dispatcher =
      load_stream(dir / "telemetry.ndjson", "dispatcher");
  std::uint64_t serve_span_id = 0;
  std::set<std::uint64_t> lease_span_ids;
  for (const auto& row : dispatcher.events) {
    if (str_field(row, "event") != "span") continue;
    if (str_field(row, "name") == "campaign.serve") {
      serve_span_id = u64_field(row, "id");
      EXPECT_EQ(u64_field(row, "parent_id"), 0u);
      EXPECT_EQ(u64_field(row, "trace_id"), summary.trace_id);
    }
    if (str_field(row, "name") == "serve.lease") {
      lease_span_ids.insert(u64_field(row, "id"));
    }
  }
  ASSERT_NE(serve_span_id, 0u);
  EXPECT_EQ(lease_span_ids.size(), summary.leases_completed);
  for (const auto& row : dispatcher.events) {
    if (str_field(row, "event") == "span" &&
        str_field(row, "name") == "serve.lease") {
      EXPECT_EQ(u64_field(row, "parent_id"), serve_span_id);
    }
  }

  // The HELLO handshake dates both worker clocks.
  const auto offsets = hello_clock_offsets(dispatcher);
  ASSERT_EQ(offsets.size(), 2u);

  // Worker streams: every worker.lease span is parented by a dispatcher
  // serve.lease span (the wire-propagated id), and every run end event
  // falls inside one of its process's lease windows -- the containment
  // rule the exporter uses to parent synthesized campaign.run spans.
  std::vector<obs::TraceStream> streams = {dispatcher};
  for (std::uint32_t worker_id = 0; worker_id < 2; ++worker_id) {
    std::string label = "w";
    label += std::to_string(worker_id);
    obs::TraceStream stream =
        load_stream(dir / ("telemetry-" + label + ".ndjson"), label);
    stream.clock_offset_us = offsets.at(worker_id);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> lease_windows;
    for (const auto& row : stream.events) {
      if (str_field(row, "event") != "span" ||
          str_field(row, "name") != "worker.lease") {
        continue;
      }
      EXPECT_EQ(lease_span_ids.count(u64_field(row, "parent_id")), 1u)
          << "worker.lease parent must be a dispatcher serve.lease span";
      EXPECT_EQ(u64_field(row, "trace_id"), summary.trace_id);
      const std::uint64_t start = u64_field(row, "start_us");
      lease_windows.emplace_back(start, start + u64_field(row, "dur_us"));
    }
    EXPECT_FALSE(lease_windows.empty());
    std::size_t runs = 0;
    for (const auto& row : stream.events) {
      if (str_field(row, "event") != "campaign.run.end") continue;
      ++runs;
      const std::uint64_t t = u64_field(row, "t_us");
      bool contained = false;
      for (const auto& [begin, end] : lease_windows) {
        contained |= t >= begin && t <= end;
      }
      EXPECT_TRUE(contained) << "run at t_us=" << t << " outside every lease";
    }
    EXPECT_GT(runs, 0u);
    streams.push_back(std::move(stream));
  }

  // The merged export renders every span and synthesizes every run.
  std::ostringstream trace;
  const obs::TraceExportSummary exported =
      obs::write_chrome_trace(trace, streams);
  EXPECT_GE(exported.spans,
            1 + summary.leases_completed * 2);  // root + serve/worker leases
  EXPECT_GE(exported.synthesized, summary.total_runs);
  EXPECT_GT(exported.counter_samples, 0u);
  EXPECT_EQ(trace.str().rfind("{\"displayTimeUnit\":\"ms\"", 0), 0u);
}

TEST(ServeCampaign, PostmortemFlightRecorderMarksTheCrashedWorker) {
  const exp::ExperimentScale scale = exp::smoke_scale();
  const fi::CampaignConfig config = exp::make_campaign_config(scale);

  const fs::path dir = fresh_dir("serve_flight");
  ServeOptions options;
  options.worker_count = 2;
  options.worker_command = traced_worker_command(dir);
  // Kill a worker on its *second* grant: its first lease completed, so its
  // flight ring is guaranteed to hold that lease's span and run events.
  std::map<std::uint32_t, int> grants;
  std::optional<std::uint32_t> killed_worker;
  options.on_grant = [&](const LeaseGrant& grant, std::int64_t pid) {
    if (killed_worker.has_value()) return;
    if (++grants[grant.worker_id] < 2) return;
    killed_worker = grant.worker_id;
    ::kill(static_cast<pid_t>(pid), SIGKILL);
  };
  const ServeSummary summary = serve_campaign(config, dir, options);

  ASSERT_TRUE(killed_worker.has_value());
  EXPECT_EQ(summary.workers_died, 1u);

  for (std::uint32_t worker_id = 0; worker_id < 2; ++worker_id) {
    const auto recording = obs::read_flight_recording(
        dir / ("flight-w" + std::to_string(worker_id) + ".bin"));
    ASSERT_TRUE(recording.has_value()) << "worker " << worker_id;
    EXPECT_EQ(recording->worker_id, worker_id);
    EXPECT_EQ(recording->clean_exit, worker_id != *killed_worker);
    ASSERT_FALSE(recording->lines.empty());
    // Every surviving ring line parses -- the postmortem merge feeds them
    // straight into the trace exporter.
    bool saw_lease_span = false;
    for (const std::string& line : recording->lines) {
      const auto row = obs::parse_flat_json_object(line);
      ASSERT_TRUE(row.has_value()) << line;
      saw_lease_span |= str_field(*row, "event") == "span" &&
                        str_field(*row, "name") == "worker.lease";
    }
    EXPECT_TRUE(saw_lease_span) << "worker " << worker_id;
  }

  // The crash did not cost any runs: the journal still converges.
  const store::CampaignDirState state = store::scan_campaign_dir(dir);
  EXPECT_EQ(state.completed_count, summary.total_runs);
}

TEST(ServeCampaign, ResumesAPartialJournalWithoutReexecution) {
  const exp::ExperimentScale scale = exp::smoke_scale();
  const fi::CampaignConfig config = exp::make_campaign_config(scale);

  // First serve completes the whole plan; a second serve over the same
  // directory finds nothing left to execute but still converges cleanly.
  const fs::path dir = fresh_dir("serve_resume");
  ServeOptions options;
  options.worker_count = 2;
  options.worker_command = worker_command(dir);
  serve_campaign(config, dir, options);

  const ServeSummary again = serve_campaign(config, dir, options);
  EXPECT_EQ(again.executed, 0u);
  EXPECT_EQ(again.leases_completed, again.leases_granted);
  const store::CampaignDirState state = store::scan_campaign_dir(dir);
  EXPECT_EQ(state.completed_count, again.total_runs);
  EXPECT_EQ(state.duplicate_count, 0u);

  // Two serve sessions left two lease logs behind.
  EXPECT_EQ(LeaseLogWriter::list_logs(dir).size(), 2u);
}

}  // namespace
}  // namespace propane::svc

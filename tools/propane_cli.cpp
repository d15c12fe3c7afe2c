// propane — command-line front end for the analysis framework.
//
//   propane analyze <model.txt> [perm.csv]   full report (Tables 2-4 style)
//   propane paths   <model.txt> [perm.csv]   ranked propagation paths
//   propane advise  <model.txt> [perm.csv]   EDM/ERM placement advice
//   propane tree    <model.txt> [perm.csv]   backtrack/trace trees (ASCII)
//   propane dot     <model.txt> [perm.csv]   Graphviz DOT (model+graph+trees)
//   propane influence <model.txt> [perm.csv] max-product influence matrix
//   propane report  <model.txt> [perm.csv]   full markdown report to stdout
//   propane check   <model.txt>              validate a model file
//
// Durable campaigns against the built-in arrestment system (store/):
//
//   propane campaign run    --journal <dir> [--scale full|default|small]
//                           [--shards N] [--processes N --index I]
//                           [--metrics-out <file.ndjson>] [--no-telemetry]
//                           [--progress|--no-progress]
//   propane campaign resume --journal <dir> ...   (alias of run: a journal
//                           directory resumes wherever it left off)
//   propane campaign delta  --journal <dir> --baseline <journal-dir>
//                           [--invalidate MODULE[,...]] [--explain] ...
//                           incremental run: replays baseline records whose
//                           fingerprints still match, executes the rest
//   propane campaign merge  --journal <dest> <src-dir>...
//   propane campaign stats  --journal <dir> [--csv <perm.csv>]
//   propane campaign top    --journal <dir> [--metrics-out <file.ndjson>]
//   propane campaign trace  --journal <dir> [--out <trace.json>]
//
// Telemetry: campaign run streams NDJSON events (src/obs) to
// <journal>/telemetry.ndjson by default (--metrics-out redirects,
// --no-telemetry disables) and shows a live progress HUD on a TTY
// (--progress forces it on, --no-progress off). `campaign top` summarises
// the event log: sessions and their summed wall time, per-event counts,
// kernel requests and their latencies, executed and diverged runs, the
// journal's size and the final metric values. `campaign trace` renders
// the same log as one Chrome/Perfetto trace-event JSON, one process track
// per session.
//
// The model file uses the text format of core/model_parser.hpp; the
// optional CSV supplies permeabilities (core/permeability_io.hpp). Without
// a CSV all permeabilities are 0 and only structural outputs are useful.
#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "arrestment/batch_runner.hpp"
#include "arrestment/batch_system.hpp"
#include "arrestment/model.hpp"
#include "arrestment/system.hpp"
#include "arrestment/testcase.hpp"
#include "common/contracts.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "core/propane.hpp"
#include "exp/paper_experiment.hpp"
#include "exp/report/bootstrap_report.hpp"
#include "fi/bootstrap.hpp"
#include "fi/campaign.hpp"
#include "obs/metrics.hpp"
#include "obs/ndjson.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace_export.hpp"
#include "store/result_cache.hpp"
#include "store/resume.hpp"

namespace {

using namespace propane;
using namespace propane::core;

// The usage text is assembled from per-area blocks so every error path can
// print the block it belongs to; the concatenation (`propane --help`) must
// match the fenced usage block in tools/README.md verbatim (CI runs
// tools/check_cli_help.py against both).
constexpr char kAnalysisUsage[] =
    "usage: propane <analyze|paths|advise|tree|dot|influence|report|"
    "check> <model.txt> [perm.csv]\n";
constexpr char kCampaignUsage[] =
    "       propane campaign <run|resume> --journal <dir>"
    " [--scale full|default|small] [--shards N] [--processes N --index I]\n"
    "                        [--metrics-out <file.ndjson>] [--no-telemetry]"
    " [--progress|--no-progress]\n"
    "       propane campaign delta --journal <dir> --baseline <dir>"
    " [--invalidate MODULE[,MODULE...]] [--explain]\n"
    "                        [plus any campaign run flag]\n"
    "       propane campaign merge --journal <dest-dir> <src-dir>...\n"
    "       propane campaign stats --journal <dir> [--csv <perm.csv>]\n"
    "       propane campaign bootstrap --journal <dir> [-B N] [--seed N]"
    " [--top-k N]\n"
    "                        [--fractions F1,F2,...] [--threads N]"
    " [--out <report-dir>]\n"
    "       propane campaign top   --journal <dir>"
    " [--metrics-out <file.ndjson>]\n"
    "       propane campaign trace --journal <dir> [--out <trace.json>]\n";
constexpr char kTrailerUsage[] =
    "       propane --help\n"
    "exit codes: 0 success, 1 runtime/contract error, 2 usage error,"
    " 3 multiple worker failures\n";
const std::string kUsageText =
    std::string(kAnalysisUsage) + kCampaignUsage + kTrailerUsage;

int usage() {
  std::fputs(kUsageText.c_str(), stderr);
  return 2;
}

/// The one shape every usage error takes: the offending detail, then the
/// usage block it violated, then exit code 2. `block` defaults to the full
/// text; campaign paths pass kCampaignUsage.
int usage_error(const std::string& message, const char* block = nullptr) {
  std::fprintf(stderr, "propane: %s\n", message.c_str());
  if (block != nullptr) {
    std::fputs(block, stderr);
  } else {
    std::fputs(kUsageText.c_str(), stderr);
  }
  return 2;
}

SystemModel load_model(const char* path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "propane: cannot open model file '%s'\n", path);
    std::exit(1);
  }
  return parse_system_model(in);
}

SystemPermeability load_permeability(const SystemModel& model,
                                     const char* path) {
  if (path == nullptr) return SystemPermeability(model);
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "propane: cannot open CSV '%s'\n", path);
    std::exit(1);
  }
  return load_permeability_csv(in, model);
}

void cmd_analyze(const SystemModel& model, const AnalysisReport& report) {
  std::puts("Module measures (Eqs. 2-5):");
  std::puts(module_measures_table(report).render().c_str());
  std::puts("Signal error exposures (Eq. 6):");
  std::puts(signal_exposure_table(report).render().c_str());
  std::puts("Propagation paths (non-zero):");
  std::puts(path_table(report, true).render().c_str());
  std::puts("Placement advice:");
  std::puts(placement_table(report.placement).render().c_str());
  for (const auto& exclusion : report.placement.exclusions) {
    std::printf("do not instrument %-12s %s\n", exclusion.name.c_str(),
                exclusion.reason.c_str());
  }
  (void)model;
}

void cmd_paths(const SystemModel& model, const AnalysisReport& report) {
  (void)model;
  std::puts(path_table(report, false).render().c_str());
}

void cmd_advise(const SystemModel& model, const AnalysisReport& report) {
  (void)model;
  std::puts(placement_table(report.placement).render().c_str());
}

void cmd_tree(const SystemModel& model, const AnalysisReport& report) {
  for (std::uint32_t o = 0; o < model.system_output_count(); ++o) {
    std::printf("Backtrack tree of system output %s:\n",
                model.system_output_name(o).c_str());
    std::puts(render_ascii_tree(model, report.backtrack_trees[o]).c_str());
  }
  for (std::uint32_t i = 0; i < model.system_input_count(); ++i) {
    std::printf("Trace tree of system input %s:\n",
                model.system_input_name(i).c_str());
    std::puts(render_ascii_tree(model, report.trace_trees[i]).c_str());
  }
}

void cmd_dot(const SystemModel& model, const AnalysisReport& report) {
  std::puts(to_dot(model).c_str());
  std::puts(to_dot(model, report.graph).c_str());
  for (std::uint32_t o = 0; o < model.system_output_count(); ++o) {
    std::puts(to_dot(model, report.backtrack_trees[o],
                     "backtrack " + model.system_output_name(o))
                  .c_str());
  }
}

// --- propane campaign ----------------------------------------------------

struct CampaignArgs {
  std::string sub;
  std::filesystem::path journal;
  std::string scale_name;  // empty: defer to PROPANE_SCALE
  std::size_t shards = 4;
  std::uint32_t processes = 1;
  std::uint32_t index = 0;
  std::string csv_path;
  std::string metrics_out;   // empty: <journal>/telemetry.ndjson
  bool no_telemetry = false;
  int progress = -1;         // -1 auto (TTY), 0 off, 1 forced on
  std::filesystem::path baseline;  // delta: cached journal directory
  std::string invalidate;    // delta: comma-separated module names
  bool explain = false;      // delta: per-module hit/miss table
  std::vector<std::filesystem::path> sources;  // merge positionals
  std::string trace_out;     // trace: output path (empty: <journal>/trace.json)
  std::size_t replicates = 1000;   // bootstrap: -B
  std::uint64_t boot_seed = 42;    // bootstrap: --seed (resampling streams)
  std::size_t top_k = 3;           // bootstrap: ranking-stability threshold
  std::string fractions;           // bootstrap: convergence-study ladder
  std::size_t threads = 0;         // bootstrap: worker threads (0 = auto)
};

/// Parses a decimal count for `flag` into T: digits only (strtoull alone
/// would accept a sign or leading blanks and wrap "-1" to the maximum) and
/// no larger than T holds. Anything else is a usage error, exit 2.
template <typename T>
T parse_count(const char* flag, const char* text) {
  const auto reject = [&] {
    std::exit(usage_error(std::string(flag) +
                              " expects a whole number from 0 to " +
                              std::to_string(std::numeric_limits<T>::max()) +
                              ", got '" + text + "'",
                          kCampaignUsage));
  };
  if (*text < '0' || *text > '9') reject();
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE ||
      value > std::numeric_limits<T>::max()) {
    reject();
  }
  return static_cast<T>(value);
}

bool parse_campaign_args(int argc, char** argv, CampaignArgs& args) {
  args.sub = argv[2];
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::exit(usage_error(arg + " needs a value", kCampaignUsage));
      }
      return argv[++i];
    };
    if (arg == "--journal") {
      args.journal = value();
    } else if (arg == "--scale") {
      args.scale_name = value();
    } else if (arg == "--shards") {
      args.shards = parse_count<std::size_t>("--shards", value());
    } else if (arg == "--processes") {
      args.processes = parse_count<std::uint32_t>("--processes", value());
    } else if (arg == "--index") {
      args.index = parse_count<std::uint32_t>("--index", value());
    } else if (arg == "--csv") {
      args.csv_path = value();
    } else if (arg == "--metrics-out") {
      args.metrics_out = value();
    } else if (arg == "--no-telemetry") {
      args.no_telemetry = true;
    } else if (arg == "--baseline") {
      args.baseline = value();
    } else if (arg == "--invalidate") {
      args.invalidate = value();
    } else if (arg == "--explain") {
      args.explain = true;
    } else if (arg == "--progress") {
      args.progress = 1;
    } else if (arg == "--no-progress") {
      args.progress = 0;
    } else if (arg == "--out") {
      args.trace_out = value();
    } else if (arg == "-B" || arg == "--replicates") {
      args.replicates = parse_count<std::size_t>("-B", value());
    } else if (arg == "--seed") {
      args.boot_seed = parse_count<std::uint64_t>("--seed", value());
    } else if (arg == "--top-k") {
      args.top_k = parse_count<std::size_t>("--top-k", value());
    } else if (arg == "--fractions") {
      args.fractions = value();
    } else if (arg == "--threads") {
      args.threads = parse_count<std::size_t>("--threads", value());
    } else if (!arg.empty() && arg.front() == '-') {
      usage_error("unknown campaign flag '" + arg + "'", kCampaignUsage);
      return false;
    } else {
      args.sources.emplace_back(arg);
    }
  }
  // `campaign bootstrap --baseline <dir>` is accepted as an alias for
  // --journal: the bootstrap reads a journal the way delta reads its
  // baseline, so both spellings name the same thing.
  if (args.sub == "bootstrap" && args.journal.empty()) {
    args.journal = args.baseline;
  }
  if (args.journal.empty()) {
    usage_error("campaign commands need --journal <dir>", kCampaignUsage);
    return false;
  }
  // Checked here, before any subcommand creates the journal directory.
  if (args.processes == 0) {
    usage_error("--processes must be at least 1", kCampaignUsage);
    return false;
  }
  if (args.index >= args.processes) {
    usage_error("--index " + std::to_string(args.index) +
                    " must be below --processes " +
                    std::to_string(args.processes),
                kCampaignUsage);
    return false;
  }
  return true;
}

exp::ExperimentScale pick_scale(const std::string& name) {
  if (name.empty()) return exp::scale_from_env();
  if (name == "full" || name == "paper") return exp::paper_scale();
  if (name == "small" || name == "smoke") return exp::smoke_scale();
  if (name == "default") return exp::default_scale();
  std::exit(usage_error("unknown scale '" + name + "' (full|default|small)",
                        kCampaignUsage));
}

void print_warnings(const std::vector<std::string>& warnings) {
  for (const std::string& warning : warnings) {
    std::fprintf(stderr, "propane: warning: %s\n", warning.c_str());
  }
}

/// Batch-runner totals from the final "metric" events of the telemetry
/// log (one set per batched session; sessions sum).
struct BatchTally {
  std::uint64_t requests = 0;  // batch.group.lanes count
  double lanes = 0.0;          // batch.group.lanes sum
  double slot_ticks = 0.0;     // batch.kernel.slot_ticks
  double live_slot_ticks = 0.0;  // batch.kernel.live_slot_ticks
  double lane_ticks = 0.0;       // batch.kernel.lane_ticks
  double kernels = 0.0;          // batch.kernel.batches
  double runs = 0.0;             // batch.kernel.lanes
  double segments = 0.0;         // batch.kernel.segments
  double converged = 0.0;        // batch.retire.converged
  double exhausted = 0.0;        // batch.retire.exhausted
  // batch.kernel.step.<step>_cycles, in tick order
  std::array<double, arr::BatchedArrestmentSystem::kStepCount> step_cycles{};
  double sampled_ticks = 0.0;  // batch.kernel.step.sampled_ticks

  /// Folds in one parsed "metric" event; other metrics are ignored.
  void add(const std::vector<obs::Field>& fields);
};

/// Lane occupancy (requested lanes over requests x kernel width; above
/// 1.00 when requests hold more runs than the kernel has slots, which
/// refill then share), slot utilisation (slot-ticks holding a run over
/// slot-ticks swept), sweep efficiency (slot-ticks holding a run over
/// all lane-ticks swept, golden lanes and padding included), the segments
/// the kernels opened, the runs they retired early, by cause, and each
/// tick step's share of the sampled tick time and its timer units per
/// sampled tick. A step can get cheaper while its share rises, when the
/// others get cheaper still; the units show it. Quiet when no batched
/// session contributed.
void print_batch_occupancy(const BatchTally& tally) {
  if (tally.requests == 0) return;
  const std::size_t width = fi::kDefaultBatchSize;
  std::printf(
      "batch occupancy: %.2f (%.0f lane(s) across %llu request(s), "
      "width %zu)\n",
      tally.lanes /
          (static_cast<double>(tally.requests) * static_cast<double>(width)),
      tally.lanes, static_cast<unsigned long long>(tally.requests), width);
  if (tally.slot_ticks > 0.0) {
    std::printf("slot utilisation: %.2f (%.0f of %.0f slot-tick(s) held a "
                "run)\n",
                tally.live_slot_ticks / tally.slot_ticks,
                tally.live_slot_ticks, tally.slot_ticks);
  }
  if (tally.lane_ticks > 0.0) {
    std::printf("sweep efficiency: %.2f (%.0f of %.0f lane-tick(s) swept "
                "held a run)\n",
                tally.live_slot_ticks / tally.lane_ticks,
                tally.live_slot_ticks, tally.lane_ticks);
  }
  if (tally.kernels > 0.0) {
    std::printf("kernel segments: %.0f across %.0f kernel(s), %.2f each\n",
                tally.segments, tally.kernels,
                tally.segments / tally.kernels);
  }
  if (tally.runs > 0.0) {
    std::printf("early retirements: %.0f converged + %.0f exhausted of %.0f "
                "run(s) simulated (%.2f)\n",
                tally.converged, tally.exhausted, tally.runs,
                (tally.converged + tally.exhausted) / tally.runs);
  }
  double step_total = 0.0;
  for (const double cycles : tally.step_cycles) step_total += cycles;
  if (step_total > 0.0) {
    std::printf("kernel steps (share of sampled tick time):");
    for (std::size_t step = 0; step < tally.step_cycles.size(); ++step) {
      std::printf(" %s %.1f%%",
                  arr::BatchedArrestmentSystem::kStepNames[step],
                  100.0 * tally.step_cycles[step] / step_total);
    }
    std::printf("\n");
  }
  if (step_total > 0.0 && tally.sampled_ticks > 0.0) {
    std::printf("kernel steps (timer units per sampled tick, %.0f sampled "
                "tick(s)):",
                tally.sampled_ticks);
    for (std::size_t step = 0; step < tally.step_cycles.size(); ++step) {
      std::printf(" %s %.1f", arr::BatchedArrestmentSystem::kStepNames[step],
                  tally.step_cycles[step] / tally.sampled_ticks);
    }
    std::printf(" tick %.1f\n", step_total / tally.sampled_ticks);
  }
}

std::filesystem::path telemetry_path(const CampaignArgs& args) {
  return args.metrics_out.empty()
             ? args.journal / "telemetry.ndjson"
             : std::filesystem::path(args.metrics_out);
}

/// The telemetry log at telemetry_path(), read by obs::read_telemetry_log,
/// the one reader of the format and the one place its crash-residue rule
/// lives; nullopt when there is no log. A malformed line throws a
/// std::runtime_error naming the file and the line.
std::optional<obs::TelemetryLog> read_event_log(const CampaignArgs& args) {
  const std::filesystem::path path = telemetry_path(args);
  std::ifstream in(path);
  if (!in) return std::nullopt;
  try {
    return obs::read_telemetry_log(in);
  } catch (const obs::MalformedTelemetryLine& err) {
    throw std::runtime_error(path.string() + ": " + err.what());
  }
}

/// " (N torn line(s) skipped)" when the reader skipped crash residue.
std::string torn_note(const obs::TelemetryLog& log) {
  if (log.torn_lines == 0) return {};
  return " (" + std::to_string(log.torn_lines) + " torn line(s) skipped)";
}

/// Feeds print_batch_occupancy from the final batch-runner metrics of the
/// journal's telemetry log. Telemetry is an enrichment for `campaign
/// stats`: a missing log prints nothing, a corrupt one a single warning.
void print_batch_occupancy_from_telemetry(const CampaignArgs& args) {
  std::optional<obs::TelemetryLog> log;
  try {
    log = read_event_log(args);
  } catch (const std::runtime_error& err) {
    print_warnings({std::string(err.what()) + " (batch occupancy left out)"});
    return;
  }
  if (!log) return;
  BatchTally tally;
  for (const std::vector<obs::Field>& event : log->events) {
    if (obs::string_field(event, "event") == "metric") tally.add(event);
  }
  print_batch_occupancy(tally);
}

/// The session's event log, appended to telemetry_path(); none under
/// --no-telemetry.
std::unique_ptr<obs::NdjsonSink> open_event_log(const CampaignArgs& args) {
  if (args.no_telemetry) return nullptr;
  const std::filesystem::path events_path = telemetry_path(args);
  if (!events_path.parent_path().empty()) {
    std::filesystem::create_directories(events_path.parent_path());
  }
  return std::make_unique<obs::NdjsonSink>(events_path, /*append=*/true);
}

/// Appends the final value of every metric to the event log, one flat
/// "metric" event each, so `campaign top` can show end-of-session values
/// without re-deriving them from the raw event stream.
void emit_metric_events(obs::EventSink& sink,
                        const obs::MetricsSnapshot& snapshot) {
  for (const auto& [name, value] : snapshot.counters) {
    sink.emit(obs::make_event("metric", {{"kind", obs::Value("counter")},
                                         {"name", obs::Value(name)},
                                         {"value", obs::Value(value)}}));
  }
  for (const auto& [name, value] : snapshot.gauges) {
    sink.emit(obs::make_event("metric", {{"kind", obs::Value("gauge")},
                                         {"name", obs::Value(name)},
                                         {"value", obs::Value(value)}}));
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    sink.emit(obs::make_event(
        "metric", {{"kind", obs::Value("histogram")},
                   {"name", obs::Value(name)},
                   {"count", obs::Value(histogram.count)},
                   {"sum", obs::Value(histogram.sum)},
                   {"p50", obs::Value(histogram.quantile(0.50))},
                   {"p90", obs::Value(histogram.quantile(0.90))},
                   {"p99", obs::Value(histogram.quantile(0.99))}}));
  }
}

/// `campaign run|resume` and `campaign delta` share this body: a plain run
/// is a delta run against an empty baseline (every lookup misses), which
/// also means every CLI-written journal carries fingerprints and can serve
/// as a later delta's baseline.
int cmd_campaign_execute(const CampaignArgs& args, bool delta_mode) {
  const exp::ExperimentScale scale = pick_scale(args.scale_name);
  std::printf("%s\n", exp::describe(scale).c_str());
  const fi::CampaignConfig config = exp::make_campaign_config(scale);
  const std::vector<arr::TestCase> cases =
      scale.custom_cases.empty()
          ? arr::grid_test_cases(scale.mass_count, scale.velocity_count)
          : scale.custom_cases;
  const SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);

  store::ResultCache baseline;
  if (delta_mode) {
    if (args.baseline.empty()) {
      return usage_error("campaign delta needs --baseline <journal-dir>",
                         kCampaignUsage);
    }
    baseline = store::ResultCache::load(args.baseline);
    std::printf("baseline %s: %zu cached record(s), %zu without "
                "fingerprints\n",
                args.baseline.string().c_str(), baseline.record_count(),
                baseline.unfingerprinted());
  }

  fi::ModuleVersionMap versions = arr::module_version_tokens();
  if (!args.invalidate.empty()) {
    // Simulate "module M changed" by perturbing its version token: every
    // cached run whose target feeds M now misses. The code itself is
    // unchanged, so the re-executed runs reproduce the cached outcomes --
    // which is exactly what makes this a safe what-if flag.
    std::string names = args.invalidate;
    for (std::size_t start = 0; start < names.size();) {
      std::size_t comma = names.find(',', start);
      if (comma == std::string::npos) comma = names.size();
      const std::string name = names.substr(start, comma - start);
      bool found = false;
      for (fi::ModuleVersion& entry : versions) {
        if (entry.module == name) {
          entry.token ^= 0x5EED5EED5EED5EEDULL;
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "propane: --invalidate: unknown module '%s'\n",
                     name.c_str());
        return 2;
      }
      start = comma + 1;
    }
  }

  // Telemetry is on by default and appends to <journal>/telemetry.ndjson,
  // so resumed sessions concatenate into one log and `campaign top` works
  // without extra flags. The HUD renders from the same registry, so
  // metrics are wired only when the log or the HUD is on: a non-TTY
  // --no-telemetry run takes the null-telemetry path. Observation-only:
  // results are bit-identical with --no-telemetry.
  obs::MetricsRegistry metrics;
  const std::unique_ptr<obs::NdjsonSink> sink = open_event_log(args);
  obs::Telemetry telemetry;
  telemetry.events = sink.get();
  obs::ProgressReporter::Options hud_options;
  hud_options.total_runs =
      static_cast<std::size_t>(config.test_case_count) *
      config.injections.size();
  hud_options.force = args.progress == 1;
  std::optional<obs::ProgressReporter> hud;
  if (args.progress != 0) hud.emplace(metrics, hud_options);
  if (hud.has_value() && hud->enabled()) telemetry.progress = &*hud;
  if (telemetry.enabled()) telemetry.metrics = &metrics;

  store::DeltaRunOptions options;
  options.base.shard_count = args.shards;
  options.base.process_count = args.processes;
  options.base.process_index = args.index;
  options.base.telemetry = telemetry.enabled() ? &telemetry : nullptr;
  options.module_versions = versions;
  const store::DeltaJournalSummary summary =
      store::run_delta_journaled_campaign(
          arr::batched_campaign_runner(cases, config, scale.duration,
                                       options.base.telemetry),
          config, model, binding, args.journal, baseline, options);
  if (hud.has_value()) hud->finish();
  print_warnings(summary.warnings);
  if (!summary.invalidated_modules.empty()) {
    std::string names;
    for (core::ModuleId m : summary.invalidated_modules) {
      if (!names.empty()) names += ", ";
      names += model.module_name(m);
    }
    std::printf("invalidated module(s): %s\n", names.c_str());
  }
  std::printf(
      "journal %s: %zu run(s) executed, %zu replayed from baseline, "
      "%zu already journaled, %zu owned by other process(es), %zu planned\n",
      args.journal.string().c_str(), summary.executed, summary.replayed,
      summary.skipped_completed, summary.skipped_foreign, summary.total_runs);
  const double hit_rate =
      summary.executed > 0 ? 100.0 * static_cast<double>(summary.diverged) /
                                 static_cast<double>(summary.executed)
                           : 0.0;
  std::printf(
      "campaign summary: %.2fs wall, %zu executed, %zu replayed, "
      "%zu skipped, %zu diverged (%.1f%% of executed), journal +%llu bytes\n",
      summary.wall_seconds, summary.executed, summary.replayed,
      summary.skipped_completed + summary.skipped_foreign, summary.diverged,
      hit_rate, static_cast<unsigned long long>(summary.journal_bytes));
  if (args.explain) {
    TextTable table({"Module", "Replayed", "Executed", "Invalidated"});
    for (const store::ModuleDeltaExplain& row : summary.per_module) {
      table.add_row({row.module, std::to_string(row.replayed),
                     std::to_string(row.executed),
                     row.invalidated ? "yes" : ""});
    }
    std::puts(table.render().c_str());
  }
  if (sink != nullptr) {
    emit_metric_events(*sink, metrics.snapshot());
    sink->flush();
    std::printf("telemetry: %zu event(s) appended to %s\n",
                sink->event_count(), telemetry_path(args).string().c_str());
  }
  return 0;
}

int cmd_campaign_merge(const CampaignArgs& args) {
  if (args.sources.empty()) {
    return usage_error("campaign merge needs source directories",
                       kCampaignUsage);
  }
  const store::MergeSummary summary =
      store::merge_journals(args.journal, args.sources);
  print_warnings(summary.warnings);
  std::printf("merged into %s: %zu unique record(s), %zu duplicate(s) dropped\n",
              args.journal.string().c_str(), summary.record_count,
              summary.duplicate_count);
  return 0;
}

int cmd_campaign_stats(const CampaignArgs& args) {
  const SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);
  store::JournalStats stats = [&] {
    if (args.csv_path.empty()) {
      return store::estimate_from_journal(args.journal, model, binding);
    }
    std::ofstream out(args.csv_path);
    if (!out) {
      std::fprintf(stderr, "propane: cannot write CSV '%s'\n",
                   args.csv_path.c_str());
      std::exit(1);
    }
    return store::write_permeability_csv_from_journal(out, args.journal,
                                                      model, binding);
  }();
  print_warnings(stats.warnings);
  std::printf("journal %s: plan 0x%016llx, seed 0x%016llx, %zu of %zu "
              "run(s) journaled (%zu replayed from a delta baseline), "
              "%zu duplicate(s)\n",
              args.journal.string().c_str(),
              static_cast<unsigned long long>(stats.manifest.plan_hash),
              static_cast<unsigned long long>(stats.manifest.seed),
              stats.record_count, stats.manifest.total_runs(),
              stats.replayed_count, stats.duplicate_count);
  std::puts("Estimated permeabilities (Table 1 style):");
  std::puts(exp::table1_permeability(model, stats.estimation).render().c_str());
  print_batch_occupancy_from_telemetry(args);
  if (!args.csv_path.empty()) {
    std::printf("permeability CSV written to %s\n", args.csv_path.c_str());
  }
  return 0;
}

// --- propane campaign bootstrap ------------------------------------------

/// Parses the --fractions ladder ("0.25,0.5,0.75"); exits with a usage
/// error on anything that is not a comma-separated list of numbers.
std::vector<double> parse_fractions(const std::string& text) {
  std::vector<double> fractions;
  for (std::size_t start = 0; start < text.size();) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string field = text.substr(start, comma - start);
    char* end = nullptr;
    const double value = std::strtod(field.c_str(), &end);
    if (end == field.c_str() || *end != '\0' || !(value > 0.0) ||
        value > 1.0) {
      std::exit(usage_error("--fractions expects numbers in (0,1], got '" +
                                field + "'",
                            kCampaignUsage));
    }
    fractions.push_back(value);
    start = comma + 1;
  }
  return fractions;
}

/// `campaign bootstrap`: resamples the journal's records (no re-simulation)
/// into replicate permeability draws and propagates each through the whole
/// analysis pipeline; prints confidence tables and writes the summary.json
/// / bands.svg / confidence.dot artifact set.
int cmd_campaign_bootstrap(const CampaignArgs& args) {
  const SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);

  // Same telemetry arrangement as every other campaign subcommand: append
  // to <journal>/telemetry.ndjson unless told otherwise. Observation-only;
  // the artifacts are bit-identical with --no-telemetry.
  obs::MetricsRegistry metrics;
  const std::unique_ptr<obs::NdjsonSink> sink = open_event_log(args);
  obs::Telemetry telemetry;
  if (sink != nullptr) {
    telemetry.metrics = &metrics;
    telemetry.events = sink.get();
  }

  // Stream the journal once; the resampler's bus width comes from the
  // first record's report, as in store::estimate_from_journal.
  std::optional<fi::BootstrapResampler> resampler;
  const store::CampaignDirState state = store::for_each_journal_record(
      args.journal, [&](const fi::InjectionRecord& record, std::size_t) {
        if (!resampler.has_value()) {
          const std::size_t bus_count = std::max(
              binding.bus_upper_bound(), record.report.per_signal.size());
          resampler.emplace(model, binding, bus_count);
        }
        resampler->add(record);
      });
  print_warnings(state.warnings);
  if (!resampler.has_value() || resampler->record_count() == 0) {
    std::fprintf(stderr,
                 "propane: journal '%s' holds no injection records to "
                 "bootstrap\n",
                 args.journal.string().c_str());
    return 1;
  }
  std::printf("journal %s: plan 0x%016llx, seed 0x%016llx, %zu record(s) in "
              "%zu (signal, test case) cell(s)\n",
              args.journal.string().c_str(),
              static_cast<unsigned long long>(state.manifest.plan_hash),
              static_cast<unsigned long long>(state.manifest.seed),
              resampler->record_count(), resampler->cell_count());

  fi::BootstrapOptions options;
  options.replicates = args.replicates;
  options.seed = args.boot_seed;
  options.top_k = args.top_k;
  options.threads = args.threads;
  if (!args.fractions.empty()) {
    options.run_fractions = parse_fractions(args.fractions);
  }
  const fi::BootstrapResult result =
      resampler->run(options, telemetry.enabled() ? &telemetry : nullptr);

  std::printf("bootstrap: %zu replicate(s), seed %llu, top-k %zu, "
              "%zu convergence point(s)\n",
              result.replicates,
              static_cast<unsigned long long>(result.seed), result.top_k,
              result.convergence.size());

  std::puts("Module uncertainty (Eq. 5 exposure and rankings):");
  TextTable modules({"Module", "X~ (Eq.5)", "2.5%", "97.5%", "P(top1 EDM)",
                     "P~ (Eq.3)", "P(top1 ERM)"});
  for (const fi::ModuleCloud& m : result.modules) {
    modules.add_row(
        {m.name, format_double(m.nonweighted_exposure.point, 3),
         format_double(m.nonweighted_exposure.band.p2_5, 3),
         format_double(m.nonweighted_exposure.band.p97_5, 3),
         format_double(m.p_top1_exposure, 2),
         format_double(m.nonweighted_permeability.point, 3),
         format_double(m.p_top1_permeability, 2)});
  }
  std::puts(modules.render().c_str());

  std::puts("Propagation-path ranking stability (Table 4 with bands):");
  TextTable paths({"#", "Propagation path", "Weight", "2.5%", "97.5%",
                   "P(top1)", "P(topk)"});
  paths.set_align(1, Align::kLeft);
  std::size_t rank = 0;
  for (const fi::PathCloud& p : result.paths) {
    if (p.weight.point <= 0.0) continue;
    ++rank;
    if (rank > 10) break;
    paths.add_row({std::to_string(rank), p.description,
                   format_double(p.weight.point, 3),
                   format_double(p.weight.band.p2_5, 3),
                   format_double(p.weight.band.p97_5, 3),
                   format_double(p.p_top1, 2), format_double(p.p_topk, 2)});
  }
  std::puts(paths.render().c_str());

  std::puts("Convergence (\"how many runs is enough?\"):");
  TextTable conv({"Fraction", "Draws/replicate", "EDM pick", "P(top-1)"});
  for (const fi::ConvergencePoint& cp : result.convergence) {
    // The module most often ranked first at this campaign size.
    std::size_t best = 0;
    for (std::size_t m = 1; m < cp.module_p_top1.size(); ++m) {
      if (cp.module_p_top1[m] > cp.module_p_top1[best]) best = m;
    }
    conv.add_row({format_double(cp.fraction, 2), std::to_string(cp.draws),
                  result.module_names[best],
                  format_double(cp.module_p_top1[best], 2)});
  }
  std::puts(conv.render().c_str());

  std::printf("placement confidence: EDM %s P(top-1)=%s, ERM %s "
              "P(top-1)=%s\n",
              result.edm_module.c_str(),
              format_double(result.edm_p_top1, 2).c_str(),
              result.erm_module.c_str(),
              format_double(result.erm_p_top1, 2).c_str());

  const std::filesystem::path out_dir = args.trace_out.empty()
                                            ? args.journal / "bootstrap"
                                            : std::filesystem::path(
                                                  args.trace_out);
  const exp::BootstrapArtifactPaths artifacts =
      exp::write_bootstrap_artifacts(out_dir, model, result);
  std::printf("bootstrap artifacts: %s, %s, %s\n",
              artifacts.json.string().c_str(),
              artifacts.svg.string().c_str(),
              artifacts.dot.string().c_str());
  const double replicates_per_s =
      result.wall_seconds > 0.0
          ? static_cast<double>(result.replicates *
                                result.convergence.size()) /
                result.wall_seconds
          : 0.0;
  std::printf("bootstrap summary: %.2fs wall, %.0f replicate(s)/s\n",
              result.wall_seconds, replicates_per_s);

  if (sink != nullptr) {
    emit_metric_events(*sink, metrics.snapshot());
    sink->flush();
    std::printf("telemetry: %zu event(s) appended to %s\n",
                sink->event_count(), telemetry_path(args).string().c_str());
  }
  return 0;
}

// --- propane campaign top ------------------------------------------------

std::string render_value(const obs::Value& value) {
  char buffer[64];
  switch (value.kind()) {
    case obs::Value::Kind::kNull:
      return "null";
    case obs::Value::Kind::kBool:
      return value.as_bool() ? "true" : "false";
    case obs::Value::Kind::kInt:
      std::snprintf(buffer, sizeof(buffer), "%lld",
                    static_cast<long long>(value.as_int()));
      return buffer;
    case obs::Value::Kind::kUint:
      std::snprintf(buffer, sizeof(buffer), "%llu",
                    static_cast<unsigned long long>(value.as_uint()));
      return buffer;
    case obs::Value::Kind::kDouble:
      std::snprintf(buffer, sizeof(buffer), "%g", value.as_double());
      return buffer;
    case obs::Value::Kind::kString:
      return value.as_string();
  }
  return "?";
}

void BatchTally::add(const std::vector<obs::Field>& fields) {
  const std::string name = obs::string_field(fields, "name");
  const auto number = [&](const char* key) -> const obs::Value* {
    const obs::Value* v = obs::find_field(fields, key);
    return v != nullptr && v->is_number() ? v : nullptr;
  };
  if (name == "batch.group.lanes") {
    const obs::Value* count = number("count");
    const obs::Value* sum = number("sum");
    if (count != nullptr && sum != nullptr) {
      requests += count->as_uint();
      lanes += sum->as_double();
    }
  } else if (const obs::Value* v = number("value")) {
    const std::pair<std::string_view, double*> counters[] = {
        {"batch.kernel.slot_ticks", &slot_ticks},
        {"batch.kernel.live_slot_ticks", &live_slot_ticks},
        {"batch.kernel.lane_ticks", &lane_ticks},
        {"batch.kernel.batches", &kernels},
        {"batch.kernel.lanes", &runs},
        {"batch.kernel.segments", &segments},
        {"batch.retire.converged", &converged},
        {"batch.retire.exhausted", &exhausted},
        {"batch.kernel.step.sampled_ticks", &sampled_ticks}};
    for (const auto& [counter, total] : counters) {
      if (name == counter) *total += v->as_double();
    }
    for (std::size_t step = 0; step < step_cycles.size(); ++step) {
      if (name == arr::step_cycles_counter(step)) {
        step_cycles[step] += v->as_double();
      }
    }
  }
}

/// Summarises the campaign telemetry log. Doubles as an NDJSON validity
/// check: any malformed line other than crash residue is a hard error.
int cmd_campaign_top(const CampaignArgs& args) {
  const std::optional<obs::TelemetryLog> log = read_event_log(args);
  if (!log) {
    std::fprintf(stderr,
                 "propane: no telemetry log at '%s' (campaign run writes it; "
                 "--metrics-out overrides the location)\n",
                 telemetry_path(args).string().c_str());
    return 1;
  }
  const std::vector<std::vector<obs::Field>>& events = log->events;

  std::map<std::string, std::size_t> event_counts;
  std::size_t requests = 0;
  std::uint64_t request_lanes = 0;
  double request_dur_sum_us = 0.0, request_dur_max_us = 0.0;
  std::uint64_t executed = 0, diverged = 0;  // summed over sessions
  std::vector<obs::Field> last_done;   // most recent delta.done
  std::map<std::string, std::string> final_metrics;  // last metric events
  BatchTally batch;                    // summed across sessions

  for (const std::vector<obs::Field>& fields : events) {
    const std::string event = obs::string_field(fields, "event");
    ++event_counts[event];
    if (event == "campaign.batch.done") {
      ++requests;
      if (const obs::Value* lanes = obs::find_field(fields, "lanes");
          lanes != nullptr && lanes->is_number()) {
        request_lanes += lanes->as_uint();
      }
      if (const obs::Value* dur = obs::find_field(fields, "dur_us");
          dur != nullptr && dur->is_number()) {
        request_dur_sum_us += dur->as_double();
        request_dur_max_us = std::max(request_dur_max_us, dur->as_double());
      }
    } else if (event == "delta.done") {
      last_done = fields;
    } else if (event == "metric") {
      batch.add(fields);
      const std::string metric = obs::string_field(fields, "name");
      if (metric.empty()) continue;
      const obs::Value* value = obs::find_field(fields, "value");
      if (obs::string_field(fields, "kind") == "histogram") {
        std::string cell;
        for (const char* key : {"count", "sum", "p50", "p90", "p99"}) {
          const obs::Value* v = obs::find_field(fields, key);
          if (v == nullptr) continue;
          if (!cell.empty()) cell += ", ";
          cell += std::string(key) + "=" + render_value(*v);
        }
        final_metrics[metric] = cell;
      } else if (value != nullptr) {
        final_metrics[metric] = render_value(*value);
        if (value->is_number() && metric == "campaign.runs.injection") {
          executed += value->as_uint();
        } else if (value->is_number() && metric == "campaign.runs.diverged") {
          diverged += value->as_uint();
        }
      }
    }
  }

  // Every session's clock starts at its own process epoch (obs/clock.hpp),
  // so the wall time is the sum of the per-session spans, split by the
  // rule the trace exporter uses.
  std::vector<std::size_t> starts = obs::session_starts(events);
  const std::size_t sessions = events.empty() ? 0 : starts.size();
  starts.push_back(events.size());
  double span_s = 0.0;
  for (std::size_t session = 0; session + 1 < starts.size(); ++session) {
    bool any_time = false;
    std::uint64_t t_first = 0, t_last = 0;
    for (std::size_t i = starts[session]; i < starts[session + 1]; ++i) {
      const obs::Value* t_us = obs::find_field(events[i], "t_us");
      if (t_us == nullptr || !t_us->is_number()) continue;
      const std::uint64_t t = t_us->as_uint();
      t_first = any_time ? std::min(t_first, t) : t;
      t_last = any_time ? std::max(t_last, t) : t;
      any_time = true;
    }
    span_s += static_cast<double>(t_last - t_first) / 1e6;
  }
  std::printf("telemetry %s: %zu event(s) in %zu session(s), %.2fs%s\n",
              args.journal.string().c_str(), events.size(), sessions, span_s,
              torn_note(*log).c_str());

  TextTable events_table({"Event", "Count"});
  for (const auto& [event, count] : event_counts) {
    events_table.add_row({event, std::to_string(count)});
  }
  std::puts(events_table.render().c_str());

  if (requests > 0) {
    std::printf("requests: %zu, %llu lane(s), mean %.1f ms, max %.1f ms\n",
                requests, static_cast<unsigned long long>(request_lanes),
                request_dur_sum_us / static_cast<double>(requests) / 1e3,
                request_dur_max_us / 1e3);
  }
  if (executed > 0) {
    std::printf("runs: %llu executed, %llu diverged (%.1f%%)\n",
                static_cast<unsigned long long>(executed),
                static_cast<unsigned long long>(diverged),
                100.0 * static_cast<double>(diverged) /
                    static_cast<double>(executed));
  }
  const std::vector<std::filesystem::path> shards =
      store::ShardedJournalWriter::list_shards(args.journal);
  if (!shards.empty()) {
    std::uintmax_t bytes = 0;
    for (const std::filesystem::path& shard : shards) {
      bytes += std::filesystem::file_size(shard);
    }
    std::printf("journal: %llu bytes across %zu shard(s)\n",
                static_cast<unsigned long long>(bytes), shards.size());
  }
  print_batch_occupancy(batch);
  if (!last_done.empty()) {
    std::string line = "last session:";
    for (const obs::Field& field : last_done) {
      if (field.key == "event" || field.key == "t_us") continue;
      line += " " + field.key + "=" + render_value(field.value);
    }
    std::puts(line.c_str());
  }
  if (!final_metrics.empty()) {
    TextTable metrics_table({"Metric", "Value"});
    for (const auto& [metric, value] : final_metrics) {
      metrics_table.add_row({metric, value});
    }
    std::puts(metrics_table.render().c_str());
  }
  return 0;
}

// --- propane campaign trace ----------------------------------------------

/// Renders the journal's telemetry log as one Chrome/Perfetto trace-event
/// JSON, each session that appended to it as its own process track.
int cmd_campaign_trace(const CampaignArgs& args) {
  std::optional<obs::TelemetryLog> log = read_event_log(args);
  if (!log) {
    std::fprintf(stderr,
                 "propane: no telemetry log at '%s' -- `campaign trace` "
                 "needs the NDJSON log a telemetry-enabled campaign "
                 "writes\n",
                 telemetry_path(args).string().c_str());
    return 1;
  }
  const obs::TraceStream stream{"campaign", std::move(log->events)};

  const std::filesystem::path out_path =
      args.trace_out.empty() ? args.journal / "trace.json"
                             : std::filesystem::path(args.trace_out);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "propane: cannot write trace '%s'\n",
                 out_path.string().c_str());
    return 1;
  }
  const obs::TraceExportSummary summary =
      obs::write_chrome_trace(out, stream);
  out.flush();
  if (!out) {
    std::fprintf(stderr, "propane: write failed for trace '%s'\n",
                 out_path.string().c_str());
    return 1;
  }
  std::printf(
      "trace %s: %zu event(s) from %zu session(s) -- %zu span(s), "
      "%zu synthesized, %zu counter sample(s), %zu instant(s)%s\n",
      out_path.string().c_str(), summary.trace_events, summary.sessions,
      summary.spans, summary.synthesized, summary.counter_samples,
      summary.instants, torn_note(*log).c_str());
  std::printf("open in ui.perfetto.dev or chrome://tracing\n");
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  if (argc < 3) return usage();
  CampaignArgs args;
  if (!parse_campaign_args(argc, argv, args)) return 2;
  if (args.sub == "run" || args.sub == "resume") {
    return cmd_campaign_execute(args, /*delta_mode=*/false);
  }
  if (args.sub == "delta") return cmd_campaign_execute(args, /*delta_mode=*/true);
  if (args.sub == "merge") return cmd_campaign_merge(args);
  if (args.sub == "stats") return cmd_campaign_stats(args);
  if (args.sub == "bootstrap") return cmd_campaign_bootstrap(args);
  if (args.sub == "top") return cmd_campaign_top(args);
  if (args.sub == "trace") return cmd_campaign_trace(args);
  return usage_error("unknown campaign subcommand '" + args.sub + "'",
                     kCampaignUsage);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2) {
    const std::string first = argv[1];
    if (first == "--help" || first == "-h" || first == "help") {
      std::fputs(kUsageText.c_str(), stdout);  // asked-for help is not an error
      return 0;
    }
  }
  if (argc < 3) return usage();
  const std::string command = argv[1];
  try {
    if (command == "campaign") return cmd_campaign(argc, argv);
    const SystemModel model = load_model(argv[2]);
    if (command == "check") {
      std::printf("OK: %zu modules, %zu system inputs, %zu system outputs, "
                  "%zu I/O pairs\n",
                  model.module_count(), model.system_input_count(),
                  model.system_output_count(), model.io_pair_count());
      return 0;
    }
    const SystemPermeability permeability =
        load_permeability(model, argc >= 4 ? argv[3] : nullptr);
    const AnalysisReport report = analyze(model, permeability);
    if (command == "analyze") {
      cmd_analyze(model, report);
    } else if (command == "paths") {
      cmd_paths(model, report);
    } else if (command == "advise") {
      cmd_advise(model, report);
    } else if (command == "tree") {
      cmd_tree(model, report);
    } else if (command == "dot") {
      cmd_dot(model, report);
    } else if (command == "report") {
      ReportOptions report_options;
      report_options.title =
          std::string("Error propagation analysis: ") + argv[2];
      write_markdown_report(std::cout, model, report, report_options);
    } else if (command == "influence") {
      const InfluenceMatrix matrix(model, permeability);
      std::puts("Strongest-route influence, system inputs x outputs:");
      std::puts(matrix.boundary_table(model).render().c_str());
      std::puts("Full signal x signal matrix:");
      std::puts(matrix.full_table().render().c_str());
    } else {
      return usage();
    }
  } catch (const propane::TaskGroupError& err) {
    // Worker threads raised more than one exception; the campaign's result
    // is incomplete in a way a single error message cannot fully convey, so
    // this exits with a code distinct from ordinary failures.
    std::fprintf(stderr, "propane: %s\n", err.what());
    return 3;
  } catch (const propane::ContractViolation& err) {
    // A check's message is for the user; a check without one is an
    // internal bug, reported with its expression and source location.
    std::fprintf(stderr, "propane: %s\n",
                 err.message().empty() ? err.what() : err.message().c_str());
    return 1;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "propane: %s\n", err.what());
    return 1;
  }
  return 0;
}

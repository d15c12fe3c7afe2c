// Paper-scale end-to-end benchmark: one workload per process (run.py runs
// one process per workload and turns the JSON this prints into metrics).
//
// A repetition drives the public calls behind `propane campaign
// run|delta|stats|bootstrap` and the Tables 1-4 report, in order: runner
// construction, result-cache load, the journaled (delta) campaign, the
// permeability CSV streamed from the journal, the bootstrap (reanalyse
// only), core::analyze and the table renderers. Each repetition writes a
// fresh journal directory. Load comes from one client in a closed loop in
// one process with T = min(nproc, 4) worker threads: set-up, one warm-up
// repetition, then timed repetitions back to back until --seconds have
// passed. Set-up is timed many times, in short rounds between the timed
// repetitions.
//
// A repetition fails when it throws, when its journal does not hold one
// record per planned run, when its CSV digest differs from the first
// repetition's, or when it differs from --reference-digest. After timing,
// 64 seeded flat run indices are re-run through the cold scalar oracle
// (arr::campaign_runner + fi::compare_to_golden) and compared field by
// field with the records read back from the journal.
//
// --trace-out adds a traced pass of a few more repetitions: a wrapped
// fi::CampaignRunner times every golden (run) and kernel (batch) call,
// scoped timers time every other call, each thread buffers its spans
// without locks, and the spans are merged into a Chrome trace-event file.
// An obs::MetricsRegistry handed to the runner's telemetry argument counts
// lane retirements and kernel ticks in this pass only.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arrestment/batch_runner.hpp"
#include "arrestment/model.hpp"
#include "arrestment/system.hpp"
#include "arrestment/testcase.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/analysis.hpp"
#include "exp/paper_experiment.hpp"
#include "fi/bootstrap.hpp"
#include "fi/golden.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "store/resume.hpp"
#include "store/result_cache.hpp"
#include "store/sharded_writer.hpp"

namespace propane::bench_e2e {

// Defined in isa_probe.cpp, which is compiled with the batch kernel's flags.
const char* screen_isa_path();

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// The seed whose plans are the canonical ones README.md describes.
constexpr std::uint64_t kDefaultSeed = 0;
constexpr std::size_t kMaxThreads = 4;
constexpr std::size_t kMinTimedReps = 3;
constexpr std::size_t kTracedReps = 3;
/// Set-up is timed in rounds of at least kSetupRoundS (and one set-up),
/// spread over the run while set-up has taken under kSetupShare of it, and
/// at least kMinSetups times in all.
constexpr std::size_t kMinSetups = 3;
constexpr double kSetupRoundS = 0.02;
constexpr double kSetupShare = 0.1;
constexpr std::size_t kOracleRuns = 64;
constexpr std::size_t kBootstrapReplicates = 1000;
constexpr std::size_t kSmokeBootstrapReplicates = 100;
constexpr std::size_t kSparseInstants = 160;
/// Reanalyse's "one module changed": V_REG's version token, perturbed.
constexpr std::uint64_t kPerturbedToken = 0x5EED5EED5EED5EEDULL;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// ---- options ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = -1.0;  // required
  bool smoke = false;
  fs::path work_dir;
  fs::path trace_out;  // empty = no traced pass
  std::optional<std::uint64_t> reference_digest;
};

constexpr const char* kUsage =
    "usage: bench_e2e --workload paper|stuck_at|sparse|reanalyse "
    "--work-dir DIR --seconds S [--seed N] [--smoke] [--trace-out FILE] "
    "[--reference-digest HEX]\n";

std::uint64_t parse_u64(const std::string& text, int base) {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  if (base == 16 && text.starts_with("0x")) first += 2;
  const auto [end, ec] = std::from_chars(first, last, value, base);
  if (ec != std::errc() || end != last || first == last) {
    throw std::invalid_argument("not an unsigned integer: '" + text + "'");
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      o.workload = value();
    } else if (flag == "--seed") {
      o.seed = parse_u64(value(), 10);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value());
    } else if (flag == "--smoke") {
      o.smoke = true;
    } else if (flag == "--work-dir") {
      o.work_dir = value();
    } else if (flag == "--trace-out") {
      o.trace_out = value();
    } else if (flag == "--reference-digest") {
      o.reference_digest = parse_u64(value(), 16);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload != "paper" && o.workload != "stuck_at" &&
      o.workload != "sparse" && o.workload != "reanalyse") {
    throw std::invalid_argument("unknown workload '" + o.workload + "'");
  }
  if (o.work_dir.empty()) throw std::invalid_argument("--work-dir is required");
  if (!(o.seconds >= 0.0)) {
    throw std::invalid_argument("--seconds S (>= 0) is required");
  }
  return o;
}

std::size_t worker_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::size_t cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::clamp<std::size_t>(cpus, 1, kMaxThreads);
}

// ---- workloads -------------------------------------------------------------

/// Error models and injection instants of one workload's plan; every
/// injection target is crossed with all of them. The default seed gives
/// the canonical plan; any other seed varies it as README.md describes.
struct PlanShape {
  std::vector<fi::ErrorModel> models;
  std::vector<sim::SimTime> instants;
};

PlanShape plan_shape(const std::string& workload, std::uint64_t seed,
                     bool smoke) {
  const bool canonical = seed == kDefaultSeed;
  Rng rng(seed);
  PlanShape shape;
  const std::vector<sim::SimTime> paper = fi::paper_injection_instants();
  if (workload == "paper" || workload == "reanalyse") {
    const sim::SimTime offset =
        canonical ? 0
                  : static_cast<sim::SimTime>(1 + rng.bounded(499)) *
                        sim::kMillisecond;
    for (const sim::SimTime when : paper) {
      shape.instants.push_back(when + offset);
    }
    shape.models = fi::all_bit_flips();
  } else if (workload == "stuck_at") {
    // Five of the paper's ten instants; canonically 1, 2, 3, 4 and 5 s.
    std::vector<std::size_t> pick = {1, 3, 5, 7, 9};
    if (!canonical) {
      std::vector<std::size_t> all(paper.size());
      for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
      for (std::size_t i = 0; i < pick.size(); ++i) {
        std::swap(all[i], all[i + rng.bounded(all.size() - i)]);
        pick[i] = all[i];
      }
      std::sort(pick.begin(), pick.end());
    }
    for (const std::size_t i : pick) shape.instants.push_back(paper[i]);
    shape.models = fi::all_stuck_at_zero();
    const std::vector<fi::ErrorModel> ones = fi::all_stuck_at_one();
    shape.models.insert(shape.models.end(), ones.begin(), ones.end());
  } else {  // sparse
    // One bit, 160 distinct instants 30 ms apart: 160 fire ticks per test
    // case, so the planner must pack across ticks. A non-default seed
    // draws the bit and jitters each instant inside its 30 ms slot.
    const unsigned bit =
        canonical ? 3u : static_cast<unsigned>(rng.bounded(16));
    for (std::size_t i = 0; i < kSparseInstants; ++i) {
      const std::uint64_t jitter = canonical ? 0 : rng.bounded(30);
      shape.instants.push_back(
          static_cast<sim::SimTime>(50 + 30 * i + jitter) * sim::kMillisecond);
    }
    shape.models = {fi::bit_flip(bit)};
  }
  if (smoke) {
    // Every fourth model (sparse: every fourth instant) keeps each smoke
    // plan under 2,000 runs on three test cases.
    const auto every_fourth = [](auto& items) {
      std::remove_reference_t<decltype(items)> kept;
      for (std::size_t i = 0; i < items.size(); i += 4) {
        kept.push_back(items[i]);
      }
      items = std::move(kept);
    };
    if (workload == "sparse") {
      every_fourth(shape.instants);
    } else {
      every_fourth(shape.models);
    }
  }
  return shape;
}

struct Workload {
  std::string name;
  core::SystemModel model;
  fi::SignalBinding binding;
  std::vector<arr::TestCase> cases;
  fi::CampaignConfig config;
  store::DeltaRunOptions delta;
  fs::path baseline;  // reanalyse: the journal every repetition reuses
  std::size_t bootstrap_replicates = 0;  // 0 = no bootstrap stage

  std::size_t planned_runs() const {
    return config.injections.size() * config.test_case_count;
  }
};

/// Model, binding, test cases and plan; on reanalyse also the baseline
/// journal (a cold `paper` campaign written into `baseline_dir`).
Workload set_up(const Options& o, std::size_t threads,
                const fs::path& baseline_dir) {
  Workload w{o.workload, arr::make_arrestment_model(), {}, {}, {}, {}, {}, 0};
  w.binding = arr::make_arrestment_binding(w.model);
  w.cases = o.smoke ? arr::grid_test_cases(1, 3) : arr::grid_test_cases(5, 5);
  const PlanShape shape = plan_shape(o.workload, o.seed, o.smoke);
  w.config.test_case_count = static_cast<std::uint32_t>(w.cases.size());
  w.config.threads = threads;
  for (const fi::BusSignalId target : arr::injection_target_bus_ids()) {
    const auto plan =
        fi::cross_product_plan(target, shape.models, shape.instants);
    w.config.injections.insert(w.config.injections.end(), plan.begin(),
                               plan.end());
  }
  w.delta.base.shard_count = 0;  // one shard per worker thread
  w.delta.module_versions = arr::module_version_tokens();
  if (o.workload == "reanalyse") {
    fs::remove_all(baseline_dir);
    store::run_delta_journaled_campaign(
        arr::batched_campaign_runner(w.cases, w.config, arr::kRunDuration),
        w.config, w.model, w.binding, baseline_dir, store::ResultCache{},
        w.delta);
    w.baseline = baseline_dir;
    w.delta.module_versions =
        arr::module_version_tokens({{"V_REG", kPerturbedToken}});
    w.bootstrap_replicates =
        o.smoke ? kSmokeBootstrapReplicates : kBootstrapReplicates;
  }
  return w;
}

// ---- tracing ---------------------------------------------------------------

/// Span recorder: each thread appends to its own buffer, so recording takes
/// no lock (a thread's first span registers its buffer once). Read the
/// spans back only after every recording thread has been joined.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::uint32_t tid = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    Clock::time_point start;
    Clock::time_point end;
    std::size_t lanes = 0;  // batch spans: lanes in the call
    /// Batch spans: ticks from the earliest live fire tick to the horizon,
    /// which the kernel runs unless every lane of the batch retires first.
    std::uint64_t horizon_ticks = 0;
  };

  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A span id unique within this tracer (thread ordinal in the high bits).
  std::uint64_t new_id() {
    Buffer& buffer = local();
    return (std::uint64_t{buffer.tid} + 1) << 40 | ++buffer.seq;
  }

  void record(Span span) {
    Buffer& buffer = local();
    span.tid = buffer.tid;
    buffer.spans.push_back(span);
  }

  std::vector<Span> merged() const {
    std::vector<Span> all;
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    }
    return all;
  }

 private:
  struct Buffer {
    std::uint32_t tid = 0;
    std::uint64_t seq = 0;
    std::vector<Span> spans;
  };

  Buffer& local() {
    // Keyed by a process-unique generation, not the address, so a later
    // Tracer at a reused address never inherits a stale buffer.
    thread_local std::uint64_t owner = 0;
    thread_local Buffer* buffer = nullptr;
    if (owner != generation_) {
      const std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffer = buffers_.back().get();
      buffer->tid = static_cast<std::uint32_t>(buffers_.size() - 1);
      owner = generation_;
    }
    return *buffer;
  }

  static inline std::atomic<std::uint64_t> generations_{0};
  const std::uint64_t generation_ = ++generations_;
  std::mutex mu_;  // guards buffers_ while threads register
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Ticks from a batch's earliest live fire tick to the horizon. Lanes that
/// fire at or after the horizon are answered without simulation.
std::uint64_t horizon_ticks(const fi::BatchRunRequest& request) {
  const std::uint64_t horizon = sim::to_milliseconds(arr::kRunDuration);
  std::uint64_t start = horizon;
  for (const fi::BatchLaneRequest& lane : request.lanes) {
    start = std::min(start, fi::injection_fire_ms(lane.spec->when));
  }
  return horizon - start;
}

/// Wraps the runner so every golden (run) and kernel (batch) call becomes a
/// span under the campaign span `parent`.
fi::CampaignRunner traced_runner(fi::CampaignRunner inner, Tracer& tracer,
                                 std::uint64_t parent) {
  return fi::CampaignRunner(
      [run = std::move(inner.run), &tracer,
       parent](const fi::RunRequest& request) {
        const Clock::time_point start = Clock::now();
        fi::TraceSet trace = run(request);
        tracer.record({request.injection ? "run" : "golden", 0,
                       tracer.new_id(), parent, start, Clock::now(), 0, 0});
        return trace;
      },
      [batch = std::move(inner.batch), &tracer,
       parent](const fi::BatchRunRequest& request) {
        const Clock::time_point start = Clock::now();
        std::vector<fi::DivergenceReport> reports = batch(request);
        tracer.record({"batch", 0, tracer.new_id(), parent, start,
                       Clock::now(), request.lanes.size(),
                       horizon_ticks(request)});
        return reports;
      });
}

/// The production runner; `telemetry` is non-null in the traced pass only.
fi::CampaignRunner make_runner(const Workload& w,
                               const obs::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    return arr::batched_campaign_runner(w.cases, w.config, arr::kRunDuration);
  }
  return arr::batched_campaign_runner(w.cases, w.config, arr::kRunDuration,
                                      nullptr, nullptr, telemetry);
}

// ---- one repetition --------------------------------------------------------

enum Stage : std::size_t {
  kRunnerBuild,
  kCacheLoad,
  kCampaign,
  kEstimate,
  kBootstrap,
  kAnalyze,
  kRender,
  kStageCount
};
constexpr std::array<const char*, kStageCount> kStageNames = {
    "runner_build", "cache_load", "campaign", "estimate",
    "bootstrap",    "analyze",    "render"};

struct RepResult {
  double report_s = 0.0;
  std::array<double, kStageCount> stage_s{};
  Clock::time_point campaign_start;
  Clock::time_point campaign_end;
  std::uint64_t campaign_span = 0;
  std::size_t planned = 0;
  std::size_t executed = 0;
  std::size_t replayed = 0;
  std::size_t journal_records = 0;
  std::size_t cache_records = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t csv_digest = 0;
  std::size_t table_bytes = 0;
  double bootstrap_replicates_per_s = 0.0;

  double runs_per_s() const {
    return static_cast<double>(executed + replayed) / stage_s[kCampaign];
  }
};

/// `campaign bootstrap`: streams the journal into a resampler and runs B
/// replicates on the campaign's thread count. Returns replicates/s.
double run_bootstrap(const Workload& w, const fs::path& dir) {
  std::optional<fi::BootstrapResampler> resampler;
  store::for_each_journal_record(
      dir, [&](const fi::InjectionRecord& record, std::size_t) {
        if (!resampler.has_value()) {
          resampler.emplace(w.model, w.binding,
                            std::max(w.binding.bus_upper_bound(),
                                     record.report.per_signal.size()));
        }
        resampler->add(record);
      });
  if (!resampler.has_value()) throw std::runtime_error("nothing to bootstrap");
  fi::BootstrapOptions options;
  options.replicates = w.bootstrap_replicates;
  options.threads = w.config.threads;
  const fi::BootstrapResult result = resampler->run(options);
  if (result.replicates != w.bootstrap_replicates) {
    throw std::runtime_error("bootstrap ran " +
                             std::to_string(result.replicates) + " replicates");
  }
  return static_cast<double>(result.replicates) / result.wall_seconds;
}

/// Tables 1-4 as `campaign stats` and `analyze` print them.
std::string render_tables(const Workload& w,
                          const fi::EstimationResult& estimation,
                          const core::AnalysisReport& report) {
  return exp::table1_permeability(w.model, estimation).render() +
         core::module_measures_table(report).render() +
         core::signal_exposure_table(report).render() +
         core::path_table(report, true).render();
}

/// One repetition into the fresh journal directory `dir`. With a tracer,
/// the runner is wrapped and every stage becomes a span; `telemetry` goes
/// to the runner only.
RepResult run_rep(const Workload& w, const fs::path& dir, Tracer* tracer,
                  const obs::Telemetry* telemetry) {
  RepResult out;
  const std::uint64_t rep_span = tracer != nullptr ? tracer->new_id() : 0;
  out.campaign_span = tracer != nullptr ? tracer->new_id() : 0;
  const auto stage = [&](Stage s, auto&& body) {
    const Clock::time_point start = Clock::now();
    auto value = body();
    const Clock::time_point end = Clock::now();
    out.stage_s[s] = seconds(end - start);
    if (s == kCampaign) {
      out.campaign_start = start;
      out.campaign_end = end;
    }
    if (tracer != nullptr) {
      tracer->record({kStageNames[s], 0,
                      s == kCampaign ? out.campaign_span : tracer->new_id(),
                      rep_span, start, end, 0, 0});
    }
    return value;
  };

  const Clock::time_point rep_start = Clock::now();
  const fi::CampaignRunner runner = stage(kRunnerBuild, [&] {
    fi::CampaignRunner built = make_runner(w, telemetry);
    if (tracer != nullptr) {
      built = traced_runner(std::move(built), *tracer, out.campaign_span);
    }
    return built;
  });
  const store::ResultCache cache = stage(kCacheLoad, [&] {
    return w.baseline.empty() ? store::ResultCache{}
                              : store::ResultCache::load(w.baseline);
  });
  const store::DeltaJournalSummary summary = stage(kCampaign, [&] {
    return store::run_delta_journaled_campaign(runner, w.config, w.model,
                                               w.binding, dir, cache, w.delta);
  });
  std::string csv;
  const store::JournalStats stats = stage(kEstimate, [&] {
    std::ostringstream text;
    store::JournalStats streamed = store::write_permeability_csv_from_journal(
        text, dir, w.model, w.binding);
    csv = std::move(text).str();
    return streamed;
  });
  out.bootstrap_replicates_per_s = stage(kBootstrap, [&] {
    return w.bootstrap_replicates > 0 ? run_bootstrap(w, dir) : 0.0;
  });
  const core::AnalysisReport report = stage(kAnalyze, [&] {
    return core::analyze(w.model, stats.estimation.permeability);
  });
  const std::string tables = stage(
      kRender, [&] { return render_tables(w, stats.estimation, report); });
  const Clock::time_point rep_end = Clock::now();
  out.report_s = seconds(rep_end - rep_start);
  if (tracer != nullptr) {
    tracer->record({"rep", 0, rep_span, 0, rep_start, rep_end, 0, 0});
  }

  out.planned = summary.total_runs;
  out.executed = summary.executed;
  out.replayed = summary.replayed;
  out.journal_records = stats.record_count;
  out.cache_records = cache.record_count();
  out.journal_bytes = summary.journal_bytes;
  out.csv_digest = fnv1a64(csv.data(), csv.size());
  out.table_bytes = tables.size();
  return out;
}

/// The output checks; returns an empty string when the repetition passed.
class Checker {
 public:
  Checker(std::size_t planned, std::optional<std::uint64_t> reference)
      : planned_(planned), reference_(reference) {}

  std::string check(const RepResult& rep) {
    if (rep.planned != planned_ || rep.journal_records != planned_ ||
        rep.executed + rep.replayed != planned_) {
      return "journal holds " + std::to_string(rep.journal_records) +
             " records (" + std::to_string(rep.executed) + " executed, " +
             std::to_string(rep.replayed) + " replayed) for " +
             std::to_string(planned_) + " planned runs";
    }
    if (rep.table_bytes == 0) return "rendered no tables";
    if (!first_digest_.has_value()) first_digest_ = rep.csv_digest;
    if (rep.csv_digest != *first_digest_) {
      return "CSV digest " + hex(rep.csv_digest) + " differs from repetition "
             "1's " + hex(*first_digest_);
    }
    if (reference_.has_value() && rep.csv_digest != *reference_) {
      return "CSV digest " + hex(rep.csv_digest) + " differs from the "
             "reference " + hex(*reference_);
    }
    return {};
  }

  std::optional<std::uint64_t> first_digest() const { return first_digest_; }

  static std::string hex(std::uint64_t value) {
    char buf[19];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
  }

 private:
  std::size_t planned_;
  std::optional<std::uint64_t> reference_;
  std::optional<std::uint64_t> first_digest_;
};

// ---- oracle ----------------------------------------------------------------

bool same_divergence(const fi::Divergence& a, const fi::Divergence& b) {
  return a.diverged == b.diverged && a.first_ms == b.first_ms &&
         a.golden_value == b.golden_value &&
         a.observed_value == b.observed_value;
}

/// Re-runs `count` seeded flat indices on the cold scalar system and
/// compares each journaled record with the oracle's report. Returns one
/// line per mismatching run.
std::vector<std::string> oracle_mismatches(const Workload& w,
                                           const fs::path& dir,
                                           std::uint64_t seed,
                                           std::size_t count) {
  const std::size_t total = w.planned_runs();
  Rng rng(seed ^ 0x0AC1E5EEDULL);
  std::map<std::size_t, std::optional<fi::InjectionRecord>> picked;
  while (picked.size() < std::min(count, total)) {
    picked.emplace(rng.bounded(total), std::nullopt);
  }
  store::for_each_journal_record(
      dir, [&](const fi::InjectionRecord& record, std::size_t flat) {
        const auto it = picked.find(flat);
        if (it != picked.end()) it->second = record;
      });

  const fi::RunFunction oracle = arr::campaign_runner(w.cases);
  std::map<std::uint32_t, fi::TraceSet> goldens;
  std::vector<std::string> mismatches;
  for (const auto& [flat, record] : picked) {
    const auto test_case =
        static_cast<std::uint32_t>(flat % w.config.test_case_count);
    const auto injection =
        static_cast<std::uint32_t>(flat / w.config.test_case_count);
    const fi::InjectionSpec& spec = w.config.injections[injection];
    auto golden = goldens.find(test_case);
    if (golden == goldens.end()) {
      golden = goldens
                   .emplace(test_case,
                            oracle({test_case, std::nullopt,
                                    fi::golden_run_seed(w.config, test_case)}))
                   .first;
    }
    const fi::DivergenceReport expected = fi::compare_to_golden(
        golden->second,
        oracle({test_case, spec, fi::injection_run_seed(w.config, flat)}));

    std::string why;
    if (!record.has_value()) {
      why = "not in the journal";
    } else if (record->injection_index != injection ||
               record->test_case != test_case ||
               record->target != spec.target || record->when != spec.when) {
      why = "identity differs";
    } else if (record->report.per_signal.size() != expected.per_signal.size()) {
      why = "report covers " +
            std::to_string(record->report.per_signal.size()) +
            " signals, oracle " + std::to_string(expected.per_signal.size());
    } else {
      for (std::size_t s = 0; s < expected.per_signal.size(); ++s) {
        if (!same_divergence(record->report.per_signal[s],
                             expected.per_signal[s])) {
          why = "signal " + std::to_string(s) + " differs";
          break;
        }
      }
    }
    if (!why.empty()) {
      mismatches.push_back("flat " + std::to_string(flat) + ": " + why);
    }
  }
  return mismatches;
}

// ---- per-layer metrics -----------------------------------------------------

/// Thread-nanoseconds per record of one repetition's records appended
/// through a fresh ShardedJournalWriter from `threads` threads. Thread t
/// appends the flat indices congruent to t, which all land in shard t, so
/// the figure is the journal's own cost without lock contention.
double append_ns_per_record(const fs::path& journal, const fs::path& out_dir,
                            std::size_t threads) {
  std::vector<std::vector<fi::InjectionRecord>> records(threads);
  std::size_t total_records = 0;
  const store::CampaignDirState state = store::for_each_journal_record(
      journal, [&](const fi::InjectionRecord& record, std::size_t flat) {
        records[flat % threads].push_back(record);
        ++total_records;
      });
  fs::remove_all(out_dir);
  store::ShardedJournalWriter writer(out_dir, state.manifest, threads);
  std::vector<double> busy_ns(threads, 0.0);
  {
    std::vector<std::jthread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const Clock::time_point start = Clock::now();
        for (const fi::InjectionRecord& record : records[t]) {
          writer.append(record);
        }
        busy_ns[t] = std::chrono::duration<double, std::nano>(
                         Clock::now() - start)
                         .count();
      });
    }
  }
  writer.flush_all();
  double total_ns = 0.0;
  for (const double ns : busy_ns) total_ns += ns;
  return total_records == 0 ? 0.0
                            : total_ns / static_cast<double>(total_records);
}

struct TracedRep {
  RepResult rep;
  double untraced_report_s = 0.0;  // the untraced repetition just before
  std::uint64_t retired_lanes = 0;
  std::uint64_t kernel_ticks = 0;
};

/// Per-layer metrics: the median over the traced repetitions of each
/// per-repetition value; batch-call percentiles pool every traced call.
std::map<std::string, double> layer_metrics(
    const std::vector<TracedRep>& traced,
    const std::vector<Tracer::Span>& spans, std::size_t threads,
    double append_ns) {
  std::map<std::string, std::vector<double>> per_rep;
  std::vector<double> call_ms;
  for (const TracedRep& t : traced) {
    const RepResult& r = t.rep;
    std::size_t golden_calls = 0, batch_calls = 0, lanes = 0;
    std::uint64_t horizon_ticks = 0;
    double golden_busy = 0.0, batch_busy = 0.0;
    Clock::time_point first_golden = r.campaign_end;
    Clock::time_point first_batch = r.campaign_end;
    Clock::time_point last_batch = r.campaign_start;
    for (const Tracer::Span& s : spans) {
      if (s.parent != r.campaign_span) continue;
      const double d = seconds(s.end - s.start);
      if (std::string_view(s.name) == "batch") {
        ++batch_calls;
        lanes += s.lanes;
        horizon_ticks += s.horizon_ticks;
        batch_busy += d;
        first_batch = std::min(first_batch, s.start);
        last_batch = std::max(last_batch, s.end);
        call_ms.push_back(d * 1e3);
      } else if (std::string_view(s.name) == "golden") {
        ++golden_calls;
        golden_busy += d;
        first_golden = std::min(first_golden, s.start);
      }
    }
    // Keep the four campaign stages contiguous when a kind of call is absent.
    if (batch_calls == 0) last_batch = first_batch;
    if (golden_calls == 0) first_golden = first_batch;
    const double inject_s = seconds(last_batch - first_batch);
    const auto add = [&](const std::string& name, double value) {
      per_rep[name].push_back(value);
    };
    add("stage.runner_build_s", r.stage_s[kRunnerBuild]);
    add("stage.cache_load_s", r.stage_s[kCacheLoad]);
    add("stage.pre_s", seconds(first_golden - r.campaign_start));
    add("stage.golden_s", seconds(first_batch - first_golden));
    add("stage.inject_s", inject_s);
    add("stage.tail_s", seconds(r.campaign_end - last_batch));
    add("stage.estimate_s", r.stage_s[kEstimate]);
    add("stage.bootstrap_s", r.stage_s[kBootstrap]);
    add("stage.analyze_s", r.stage_s[kAnalyze]);
    add("stage.render_s", r.stage_s[kRender]);
    double staged = 0.0;
    for (const double s : r.stage_s) staged += s;
    add("stage.unattributed_s", r.report_s - staged);

    const double lane_count = static_cast<double>(lanes);
    add("arrestment.batch.calls", static_cast<double>(batch_calls));
    add("arrestment.batch.lanes", lane_count);
    add("arrestment.batch.lanes_per_call",
        batch_calls > 0 ? lane_count / static_cast<double>(batch_calls) : 0.0);
    add("arrestment.batch.busy_s", batch_busy);
    add("arrestment.batch.us_per_lane",
        lanes > 0 ? batch_busy * 1e6 / lane_count : 0.0);
    add("arrestment.batch.util",
        inject_s > 0.0
            ? batch_busy / (static_cast<double>(threads) * inject_s)
            : 0.0);
    add("arrestment.batch.retired_lanes", static_cast<double>(t.retired_lanes));
    add("arrestment.batch.retired_frac",
        lanes > 0 ? static_cast<double>(t.retired_lanes) / lane_count : 0.0);
    add("arrestment.batch.kernel_ticks", static_cast<double>(t.kernel_ticks));
    // Retired lanes are still swept; only a batch whose lanes all retire
    // stops before the horizon and saves kernel time.
    add("arrestment.batch.horizon_frac",
        horizon_ticks > 0 ? static_cast<double>(t.kernel_ticks) /
                                static_cast<double>(horizon_ticks)
                          : 0.0);
    add("arrestment.golden.calls", static_cast<double>(golden_calls));
    add("arrestment.golden.busy_s", golden_busy);
    add("fi.executor.outside_batch_s",
        static_cast<double>(threads) * inject_s - batch_busy);
    add("fi.bootstrap.replicates_per_s", r.bootstrap_replicates_per_s);
    add("store.executed", static_cast<double>(r.executed));
    add("store.replayed", static_cast<double>(r.replayed));
    add("store.journal_bytes", static_cast<double>(r.journal_bytes));
    add("store.cache_records_per_s",
        r.cache_records > 0
            ? static_cast<double>(r.cache_records) / r.stage_s[kCacheLoad]
            : 0.0);
    add("store.estimate_records_per_s",
        static_cast<double>(r.journal_records) / r.stage_s[kEstimate]);
    add("core.analyze_s", r.stage_s[kAnalyze]);
    add("exp.render_s", r.stage_s[kRender]);
    add("obs.trace_overhead_frac", r.report_s / t.untraced_report_s - 1.0);
  }

  std::map<std::string, double> out;
  for (auto& [name, values] : per_rep) out[name] = median(values);
  std::sort(call_ms.begin(), call_ms.end());
  out["arrestment.batch.p50_ms"] =
      call_ms.empty() ? 0.0 : quantile_sorted(call_ms, 0.50);
  out["arrestment.batch.p99_ms"] =
      call_ms.empty() ? 0.0 : quantile_sorted(call_ms, 0.99);
  out["store.append_ns_per_record"] = append_ns;
  return out;
}

void write_chrome_trace(const fs::path& path,
                        const std::vector<Tracer::Span>& spans,
                        Clock::time_point origin) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Tracer::Span& s : spans) {
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "%s\n{\"name\":\"%s\",\"cat\":\"bench_e2e\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"lanes\":%zu}}",
        first ? "" : ",", s.name, s.tid,
        std::chrono::duration<double, std::micro>(s.start - origin).count(),
        std::chrono::duration<double, std::micro>(s.end - s.start).count(),
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent), s.lanes);
    out << line;
    first = false;
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

// ---- provenance and output -------------------------------------------------

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, end);
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? "," : "") + json_number(values[i]);
  }
  return out + "]";
}

/// Everything that must match for two results to be comparable.
std::string provenance_json(std::size_t threads) {
  std::string model = "unknown";
  std::vector<std::string> flags;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string value =
        colon + 2 <= line.size() ? line.substr(colon + 2) : std::string();
    if (line.starts_with("model name") && model == "unknown") {
      model = value;
    } else if (line.starts_with("flags") && flags.empty()) {
      std::istringstream words(value);
      for (std::string flag; words >> flag;) {
        if (flag == "avx512bw" || flag == "avx2" || flag == "bmi2") {
          flags.push_back(flag);
        }
      }
      std::sort(flags.begin(), flags.end());
    }
  }
  std::string flag_list = "[";
  for (std::size_t i = 0; i < flags.size(); ++i) {
    flag_list += (i > 0 ? "," : "") + json_string(flags[i]);
  }
  flag_list += "]";
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  return "{\"nproc\":" + std::to_string(nproc) +
         ",\"threads\":" + std::to_string(threads) +
         ",\"cpu_model\":" + json_string(model) +
         ",\"cpu_flags\":" + flag_list +
         ",\"build_type\":" + json_string(PROPANE_E2E_BUILD_TYPE) +
         ",\"batch_native\":" + json_string(PROPANE_E2E_BATCH_NATIVE) +
         ",\"screen_isa\":" + json_string(screen_isa_path()) + "}";
}

/// Removes its directory tree on destruction, so no journal outlives the
/// process, whichever way it ends.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

 private:
  fs::path path_;
};

int run(const Options& o) {
  const Clock::time_point origin = Clock::now();
  const std::size_t threads = worker_threads();
  const ScratchDir scratch(o.work_dir);
  const fs::path& work = o.work_dir;

  // Set-up is timed in rounds: one before the warm-up, whose workload the
  // repetitions use, then more between the timed repetitions, so the
  // median sees the host over the whole run and not only as it was in the
  // process's first moments.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  const auto setup_round = [&](const fs::path& baseline) {
    std::optional<Workload> last;
    const Clock::time_point round_start = Clock::now();
    do {
      last.reset();
      fs::remove_all(baseline);
      const Clock::time_point start = Clock::now();
      last.emplace(set_up(o, threads, baseline));
      setup_s.push_back(seconds(Clock::now() - start));
    } while (!o.smoke && seconds(Clock::now() - round_start) < kSetupRoundS);
    setup_total_s += seconds(Clock::now() - round_start);
    return std::move(*last);
  };
  const fs::path spare_baseline = work / "spare-baseline";
  const auto spare_setup_round = [&] {
    setup_round(spare_baseline);
    fs::remove_all(spare_baseline);
  };
  const Workload w = setup_round(work / "baseline");
  std::fprintf(stderr, "bench_e2e %s: %zu test cases x %zu injections = %zu "
               "runs, T=%zu\n",
               w.name.c_str(), w.cases.size(), w.config.injections.size(),
               w.planned_runs(), threads);

  Checker checker(w.planned_runs(), o.reference_digest);
  std::size_t attempted = 0;
  std::vector<std::string> failures;
  const fs::path rep_dir = work / "rep";
  const auto attempt =
      [&](Tracer* tracer,
          const obs::Telemetry* telemetry) -> std::optional<RepResult> {
    ++attempted;
    try {
      fs::remove_all(rep_dir);
      RepResult rep = run_rep(w, rep_dir, tracer, telemetry);
      const std::string failure = checker.check(rep);
      if (failure.empty()) return rep;
      failures.push_back("repetition " + std::to_string(attempted) + ": " +
                         failure);
    } catch (const std::exception& e) {
      failures.push_back("repetition " + std::to_string(attempted) +
                         " threw: " + e.what());
    }
    return std::nullopt;
  };

  attempt(nullptr, nullptr);  // warm-up: fills caches, sets the digest
  std::vector<double> report_s, runs_per_s, cpu_s_per_krun;
  const Clock::time_point timed_start = Clock::now();
  const std::size_t min_reps = o.smoke ? 1 : kMinTimedReps;
  while (attempted - 1 < min_reps ||
         seconds(Clock::now() - timed_start) < o.seconds) {
    if (!o.smoke &&
        setup_total_s < kSetupShare * seconds(Clock::now() - origin)) {
      spare_setup_round();
    }
    const double cpu_before = cpu_seconds();
    const std::optional<RepResult> rep = attempt(nullptr, nullptr);
    const double cpu = cpu_seconds() - cpu_before;
    if (!rep.has_value()) continue;
    report_s.push_back(rep->report_s);
    runs_per_s.push_back(rep->runs_per_s());
    cpu_s_per_krun.push_back(
        cpu * 1000.0 / static_cast<double>(rep->executed + rep->replayed));
  }
  while (setup_s.size() < (o.smoke ? 1 : kMinSetups)) spare_setup_round();
  const double rss_mb = peak_rss_mb();
  std::fprintf(stderr, "bench_e2e %s: %zu timed repetition(s), median "
               "report %.3f s, set-up x%zu\n",
               w.name.c_str(), report_s.size(), median(report_s),
               setup_s.size());

  std::vector<std::string> mismatches;
  try {
    mismatches = oracle_mismatches(w, rep_dir, o.seed, kOracleRuns);
  } catch (const std::exception& e) {
    mismatches.push_back(std::string("the oracle check could not run: ") +
                         e.what());
  }
  for (const std::string& m : mismatches) {
    std::fprintf(stderr, "bench_e2e %s: oracle mismatch, %s\n",
                 w.name.c_str(), m.c_str());
  }

  std::string layers_json;
  if (!o.trace_out.empty()) {
    Tracer tracer;
    std::vector<TracedRep> traced;
    for (std::size_t i = 0; i < (o.smoke ? 1 : kTracedReps); ++i) {
      // Each traced repetition follows an untraced one, so the overhead
      // ratio compares neighbours and the host's drift cancels.
      const std::optional<RepResult> plain = attempt(nullptr, nullptr);
      obs::MetricsRegistry metrics;
      const obs::Telemetry telemetry{&metrics, nullptr, nullptr};
      std::optional<RepResult> rep = attempt(&tracer, &telemetry);
      if (!plain.has_value() || !rep.has_value()) continue;
      const obs::MetricsSnapshot snapshot = metrics.snapshot();
      const auto retired = snapshot.histograms.find("batch.retire.ticks");
      const auto ticks = snapshot.counters.find("batch.kernel.ticks");
      traced.push_back(
          {*rep, plain->report_s,
           retired != snapshot.histograms.end() ? retired->second.count : 0,
           ticks != snapshot.counters.end() ? ticks->second : 0});
    }
    const std::vector<Tracer::Span> spans = tracer.merged();
    write_chrome_trace(o.trace_out, spans, origin);
    const double append_ns =
        traced.empty()
            ? 0.0
            : append_ns_per_record(rep_dir, work / "append", threads);
    layers_json = "{";
    for (const auto& [name, value] :
         layer_metrics(traced, spans, threads, append_ns)) {
      layers_json += (layers_json.size() > 1 ? "," : "") + json_string(name) +
                     ":" + json_number(value);
    }
    layers_json += "}";
  }

  const bool correct = failures.empty() && mismatches.empty();
  std::string json = "{\"workload\":" + json_string(w.name) +
                     ",\"seed\":" + std::to_string(o.seed) +
                     ",\"smoke\":" + (o.smoke ? "true" : "false") +
                     ",\"runs\":" + std::to_string(w.planned_runs()) +
                     ",\"provenance\":" + provenance_json(threads) +
                     ",\"correct\":" + (correct ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failures.size()) +
                     ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    json += (i > 0 ? "," : "") + json_string(failures[i]);
  }
  const std::optional<std::uint64_t> digest = checker.first_digest();
  json += "],\"oracle\":{\"checked\":" +
          std::to_string(std::min(kOracleRuns, w.planned_runs())) +
          ",\"mismatches\":" + std::to_string(mismatches.size()) + "}" +
          ",\"csv_digest\":" +
          (digest.has_value() ? json_string(Checker::hex(*digest)) : "null") +
          ",\"e2e\":{\"setup_s\":" + json_numbers(setup_s) +
          ",\"report_s\":" + json_numbers(report_s) +
          ",\"runs_per_s\":" + json_numbers(runs_per_s) +
          ",\"cpu_s_per_krun\":" + json_numbers(cpu_s_per_krun) +
          ",\"peak_rss_mb\":" + json_numbers({rss_mb}) + "}";
  if (!layers_json.empty()) json += ",\"layers\":" + layers_json;
  json += "}\n";
  std::fputs(json.c_str(), stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace propane::bench_e2e

int main(int argc, char** argv) {
  using namespace propane::bench_e2e;
  Options options;
  try {
    options = parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n%s", e.what(), kUsage);
    return 2;
  }
  try {
    return run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}

// Campaign throughput bench: end-to-end runs/s (the cold scalar reference
// vs the batched production runner), trace-recording ns/sample with heap
// allocations counted, and golden-comparison ns/sample. Writes
// BENCH_campaign.json including the pre-optimisation baseline measured on
// the same workload, so the speedup is tracked in-repo.
//
// PROPANE_SCALE=small runs a smoke workload whose sections time fixed
// costs more than throughput; default (what CI runs, and the scale the
// checked-in reference is recorded at) and full reproduce the measured
// workload (speedup is only reported for the default scale, which the
// baseline numbers were captured on).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "arrestment/batch_runner.hpp"
#include "arrestment/batch_system.hpp"
#include "arrestment/model.hpp"
#include "arrestment/testcase.hpp"
#include "bench_util.hpp"
#include "exp/paper_experiment.hpp"
#include "fi/bootstrap.hpp"
#include "fi/golden.hpp"
#include "obs/telemetry.hpp"
#include "store/resume.hpp"
#include "store/result_cache.hpp"

// ---- global allocation counter ------------------------------------------
// Counts every heap allocation in the process so the bench can prove the
// per-sample hot path performs none.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// GCC warns about free() inside a replaced operator delete even though
// the matching replaced operator new allocates with malloc; both halves
// are replaced together here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace propane {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The fixed workload the baseline below was measured on (default scale):
/// 2x2 test cases, pulscnt + PACNT targets, all 16 bit-flips x the paper's
/// injection instants, full 15 s runs.
struct Workload {
  std::string scale;
  std::vector<arr::TestCase> cases;
  fi::CampaignConfig config;
  sim::SimTime duration = arr::kRunDuration;
  // Kept for the delta scenario, which crosses them with all 13 targets.
  std::vector<fi::ErrorModel> models;
  std::vector<sim::SimTime> instants;
};

Workload make_workload(const exp::ExperimentScale& scale) {
  Workload w;
  fi::SignalBus bus;
  arr::build_bus(bus);

  std::vector<fi::BusSignalId> targets = {*bus.find("pulscnt")};
  std::vector<fi::ErrorModel> models;
  std::vector<sim::SimTime> instants;
  if (scale.name == "smoke") {
    w.scale = "smoke";
    w.cases = arr::grid_test_cases(1, 1);
    models = {fi::bit_flip(0), fi::bit_flip(5), fi::bit_flip(10),
              fi::bit_flip(15)};
    instants = {1 * sim::kSecond, 3 * sim::kSecond};
  } else {
    w.scale = scale.name;  // "default" or "paper"
    w.cases = scale.name == "paper" ? arr::grid_test_cases(5, 5)
                                    : arr::grid_test_cases(2, 2);
    targets.push_back(*bus.find("PACNT"));
    models = fi::all_bit_flips();
    instants = fi::paper_injection_instants();
  }

  w.config.test_case_count = static_cast<std::uint32_t>(w.cases.size());
  w.config.seed = 0xBE7C;
  for (const fi::BusSignalId target : targets) {
    const auto plan = fi::cross_product_plan(target, models, instants);
    w.config.injections.insert(w.config.injections.end(), plan.begin(),
                               plan.end());
  }
  w.models = std::move(models);
  w.instants = std::move(instants);
  return w;
}

/// The batched runner's counters over one campaign, read back from the
/// telemetry registry the runner was built with.
struct BatchCounts {
  std::uint64_t requests = 0;        // batch.group.lanes count
  std::uint64_t request_lanes = 0;   // batch.group.lanes sum
  std::uint64_t kernels = 0;         // one per request with a live run
  std::uint64_t lanes = 0;           // runs the kernels simulated
  std::uint64_t never_fire = 0;
  std::uint64_t retired = 0;
  std::uint64_t refilled = 0;

  /// Lane occupancy: requested lanes over requests x configured lane
  /// width, the same figure `propane campaign stats` prints. A request
  /// may hold more runs than the kernel has slots (refill shares them),
  /// so this may exceed 1.0.
  double occupancy(std::size_t lane_width) const {
    if (requests == 0) return 0.0;
    return static_cast<double>(request_lanes) /
           static_cast<double>(requests * lane_width);
  }

  /// The fields tools/check_bench_guard.py checks, as a JSON fragment.
  /// `test_cases` is the number of per-test-case pools the planner saw
  /// (each bench section plans one range).
  std::string json_fields(std::size_t lane_width,
                          std::size_t test_cases) const {
    std::ostringstream out;
    out << "\"requests\":" << requests
        << ",\"request_lanes\":" << request_lanes
        << ",\"kernels\":" << kernels << ",\"batched_lanes\":" << lanes
        << ",\"refilled_lanes\":" << refilled
        << ",\"test_cases\":" << test_cases
        << ",\"lane_width\":" << lane_width
        << ",\"lane_occupancy\":" << std::setprecision(17)
        << occupancy(lane_width);
    return out.str();
  }
};

/// A registry plus the telemetry bundle that feeds it, for one runner.
struct BatchTelemetry {
  obs::MetricsRegistry metrics;
  const obs::Telemetry telemetry{&metrics, nullptr, nullptr};

  BatchCounts counts() const {
    const obs::MetricsSnapshot snapshot = metrics.snapshot();
    const auto counter = [&](const char* name) -> std::uint64_t {
      const auto it = snapshot.counters.find(name);
      return it == snapshot.counters.end() ? 0 : it->second;
    };
    const auto histogram = [&](const char* name) -> obs::HistogramSnapshot {
      const auto it = snapshot.histograms.find(name);
      return it == snapshot.histograms.end() ? obs::HistogramSnapshot{}
                                             : it->second;
    };
    const obs::HistogramSnapshot requests = histogram("batch.group.lanes");
    return {requests.count,
            static_cast<std::uint64_t>(requests.sum),
            counter("batch.kernel.batches"),
            counter("batch.kernel.lanes"),
            counter("batch.never_fire.lanes"),
            histogram("batch.retire.ticks").count,
            counter("batch.refill.lanes")};
  }
};

/// Delta-campaign measurement: a cold run of the full 13-target plan into
/// a baseline journal, then an incremental re-run with one module (V_REG)
/// invalidated. Reports the wall-clock ratio -- the payoff of
/// content-addressed reuse when one of six modules changes -- plus the
/// batch-path stats of the incremental phase: the invalidated subset is a
/// thin slice of the plan, so it exercises the planner's cross-test-case
/// packing rather than the dense fan-out.
struct DeltaBench {
  std::size_t total_runs = 0;
  double cold_wall_s = 0.0;
  std::size_t delta_executed = 0;
  std::size_t delta_replayed = 0;
  double delta_wall_s = 0.0;
  double speedup = 0.0;
  BatchCounts delta_counts;
};

DeltaBench run_delta_bench(const Workload& w) {
  namespace fs = std::filesystem;
  const core::SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);

  fi::CampaignConfig config;
  config.test_case_count = static_cast<std::uint32_t>(w.cases.size());
  config.seed = 0xDE17A;
  for (const fi::BusSignalId target : arr::injection_target_bus_ids()) {
    const auto plan = fi::cross_product_plan(target, w.models, w.instants);
    config.injections.insert(config.injections.end(), plan.begin(),
                             plan.end());
  }

  const fs::path base_dir = "bench_delta_baseline";
  const fs::path delta_dir = "bench_delta_incremental";
  fs::remove_all(base_dir);
  fs::remove_all(delta_dir);

  DeltaBench out;
  store::DeltaRunOptions options;
  options.module_versions = arr::module_version_tokens();
  {
    const auto start = Clock::now();
    const store::DeltaJournalSummary cold = store::run_delta_journaled_campaign(
        arr::batched_campaign_runner(w.cases, config, w.duration), config,
        model, binding, base_dir, store::ResultCache{}, options);
    out.cold_wall_s = seconds_since(start);
    out.total_runs = cold.total_runs;
  }
  {
    const store::ResultCache baseline = store::ResultCache::load(base_dir);
    // Simulate an edit to V_REG: a perturbed version token invalidates
    // exactly the cached runs whose outcome V_REG could have changed.
    options.module_versions =
        arr::module_version_tokens({{"V_REG", 0x5EED5EED5EED5EEDULL}});
    // The cache misses execute through the lockstep batch path; the
    // counters prove it (and measure how well the thin invalidated set
    // packed).
    BatchTelemetry telemetry;
    const auto start = Clock::now();
    const store::DeltaJournalSummary delta =
        store::run_delta_journaled_campaign(
            arr::batched_campaign_runner(w.cases, config, w.duration,
                                         &telemetry.telemetry),
            config, model, binding, delta_dir, baseline, options);
    out.delta_wall_s = seconds_since(start);
    out.delta_executed = delta.executed;
    out.delta_replayed = delta.replayed;
    out.delta_counts = telemetry.counts();
  }
  out.speedup = out.delta_wall_s > 0.0 ? out.cold_wall_s / out.delta_wall_s
                                       : 0.0;
  fs::remove_all(base_dir);
  fs::remove_all(delta_dir);
  return out;
}

struct EndToEnd {
  double wall_s = 0.0;
  double runs_per_s = 0.0;
  std::size_t runs = 0;
};

/// End-to-end campaign through the cold scalar reference
/// (arr::campaign_runner): every run simulated alone from t=0.
EndToEnd run_end_to_end_cold(const Workload& w) {
  const auto start = Clock::now();
  const fi::CampaignResult result = fi::run_campaign(
      arr::campaign_runner(w.cases, w.duration), w.config);
  EndToEnd out;
  out.wall_s = seconds_since(start);
  out.runs = result.run_count();
  out.runs_per_s = static_cast<double>(out.runs) / out.wall_s;
  return out;
}

/// Bootstrap resampling throughput over the batched campaign's records: no
/// re-simulation, just mask redraws + graph propagation per replicate.
struct BootstrapBench {
  std::size_t replicates = 0;
  std::size_t records = 0;
  std::size_t cells = 0;
  double wall_s = 0.0;
  double replicates_per_s = 0.0;
};

BootstrapBench run_bootstrap_bench(const fi::CampaignResult& campaign,
                                   std::size_t replicates) {
  const core::SystemModel model = arr::make_arrestment_model();
  const fi::SignalBinding binding = arr::make_arrestment_binding(model);
  fi::BootstrapResampler resampler(model, binding,
                                   binding.bus_upper_bound());
  for (const fi::InjectionRecord& record : campaign.records) {
    resampler.add(record);
  }
  fi::BootstrapOptions options;
  options.replicates = replicates;
  const fi::BootstrapResult result = resampler.run(options);
  BootstrapBench out;
  out.replicates = result.replicates;
  out.records = result.record_count;
  out.cells = result.cell_count;
  out.wall_s = result.wall_seconds;
  out.replicates_per_s = result.wall_seconds > 0.0
                             ? static_cast<double>(result.replicates) /
                                   result.wall_seconds
                             : 0.0;
  return out;
}

/// Lockstep batched campaign, the production path: same workload, but
/// injection runs execute as SoA batches started from golden-run
/// checkpoints, with divergence-masked early exit.
EndToEnd run_end_to_end_batched(const Workload& w, BatchCounts& counts_out,
                                fi::CampaignResult& result_out) {
  BatchTelemetry telemetry;
  const auto start = Clock::now();
  result_out = fi::run_campaign(
      arr::batched_campaign_runner(w.cases, w.config, w.duration,
                                   &telemetry.telemetry),
      w.config);
  EndToEnd out;
  out.wall_s = seconds_since(start);
  out.runs = result_out.run_count();
  out.runs_per_s = static_cast<double>(out.runs) / out.wall_s;
  counts_out = telemetry.counts();
  return out;
}

/// Sparse plan: ONE error model on ONE target, swept across many distinct
/// injection instants. Every (test case, fire tick) group holds exactly
/// one run -- the worst case for a planner that only batches within a
/// group (lane occupancy 1/width), and the scenario cross-test-case /
/// cross-fire-tick packing exists for.
struct SparseBench {
  std::size_t runs = 0;
  std::size_t instants = 0;
  double batch_wall_s = 0.0;
  double batch_runs_per_s = 0.0;
  BatchCounts counts;
};

SparseBench run_sparse_bench(const Workload& w) {
  fi::SignalBus bus;
  arr::build_bus(bus);
  fi::CampaignConfig config;
  config.test_case_count = static_cast<std::uint32_t>(w.cases.size());
  config.seed = 0x5BA25E;
  // One bit, many instants: 100 ms apart so neighbouring instants land in
  // the same packed batch with a sub-second stagger span.
  const std::size_t instants = w.scale == "smoke" ? 16 : 128;
  const fi::BusSignalId pulscnt = *bus.find("pulscnt");
  for (std::size_t i = 0; i < instants; ++i) {
    config.injections.push_back(fi::InjectionSpec{
        pulscnt, (50 + 100 * static_cast<sim::SimTime>(i)) * sim::kMillisecond,
        fi::bit_flip(3)});
  }

  SparseBench out;
  out.instants = instants;
  BatchTelemetry telemetry;
  const auto start = Clock::now();
  const fi::CampaignResult result = fi::run_campaign(
      arr::batched_campaign_runner(w.cases, config, w.duration,
                                   &telemetry.telemetry),
      config);
  out.batch_wall_s = seconds_since(start);
  out.runs = result.run_count();
  out.batch_runs_per_s = static_cast<double>(out.runs) / out.batch_wall_s;
  out.counts = telemetry.counts();
  return out;
}

}  // namespace
}  // namespace propane

int main() {
  using namespace propane;
  bench::banner("campaign throughput (flat traces, memcmp compare, "
                "checkpointed lockstep batches)");

  const exp::ExperimentScale scale = exp::scale_from_env();
  const Workload w = make_workload(scale);
  const std::size_t samples = sim::to_milliseconds(w.duration);
  std::printf("workload: scale '%s', %zu test cases, %zu injections, "
              "%zu samples/run\n\n",
              w.scale.c_str(), w.cases.size(), w.config.injections.size(),
              samples);

  // --- trace recording: ns/sample and allocations/sample ------------------
  arr::ArrestmentSystem system(w.cases[0]);
  double record_ns = 0.0;
  double record_allocs = 0.0;
  {
    fi::TraceRecorder recorder(system.bus(), samples);
    const std::uint64_t alloc0 =
        g_allocations.load(std::memory_order_relaxed);
    const auto start = Clock::now();
    for (std::size_t s = 0; s < samples; ++s) recorder.sample();
    const double wall = seconds_since(start);
    const std::uint64_t alloc1 =
        g_allocations.load(std::memory_order_relaxed);
    record_ns = wall * 1e9 / static_cast<double>(samples);
    record_allocs = static_cast<double>(alloc1 - alloc0) /
                    static_cast<double>(samples);
    std::printf("record:  %.1f ns/sample, %.3f heap allocations/sample "
                "(%zu samples)\n",
                record_ns, record_allocs, samples);
  }

  // --- golden comparison: identical and diverged traces -------------------
  arr::RunOptions golden_options;
  golden_options.duration = w.duration;
  const fi::TraceSet golden = arr::run_arrestment(w.cases[0], golden_options).trace;
  fi::TraceSet identical = golden;
  fi::TraceSet diverged = golden;
  {
    // Corrupt one signal from mid-run onward, like a propagated error.
    fi::TraceSet rebuilt(identical.names());
    rebuilt.reserve(golden.sample_count());
    for (std::size_t ms = 0; ms < golden.sample_count(); ++ms) {
      auto row = std::vector<std::uint16_t>(golden.row(ms).begin(),
                                            golden.row(ms).end());
      if (ms >= golden.sample_count() / 2) row[0] ^= 0x0400;
      rebuilt.append(row);
    }
    diverged = std::move(rebuilt);
  }
  constexpr int kCompareReps = 50;
  double compare_identical_ns = 0.0;
  double compare_diverged_ns = 0.0;
  {
    volatile std::size_t sink = 0;  // keep the compare results observable
    auto time_compare = [&](const fi::TraceSet& injected) {
      const auto start = Clock::now();
      for (int rep = 0; rep < kCompareReps; ++rep) {
        sink = sink + fi::compare_to_golden(golden, injected)
                          .divergence_count();
      }
      const double wall = seconds_since(start);
      return wall * 1e9 /
             static_cast<double>(samples * static_cast<std::size_t>(kCompareReps));
    };
    compare_identical_ns = time_compare(identical);
    compare_diverged_ns = time_compare(diverged);
    std::printf("compare: %.1f ns/sample identical, %.1f ns/sample "
                "diverged (x%d reps)\n\n",
                compare_identical_ns, compare_diverged_ns, kCompareReps);
  }

  // --- end-to-end campaign: cold scalar reference vs batched ---------------
  const EndToEnd cold = run_end_to_end_cold(w);
  std::printf("cold scalar campaign: %zu runs in %.2f s  =>  %.0f runs/s\n",
              cold.runs, cold.wall_s, cold.runs_per_s);

  const std::size_t lane_width = fi::kDefaultBatchSize;
  const std::size_t test_cases = w.cases.size();
  BatchCounts batch_counts;
  fi::CampaignResult batch_campaign;
  const EndToEnd batch = run_end_to_end_batched(w, batch_counts, batch_campaign);
  std::printf("batch campaign: %zu runs in %.2f s  =>  %.0f runs/s "
              "(%llu requests in %llu kernels, %llu lanes, occupancy %.2f, "
              "%llu retired early, %llu never-fire; %.2fx vs cold "
              "scalar)\n",
              batch.runs, batch.wall_s, batch.runs_per_s,
              static_cast<unsigned long long>(batch_counts.requests),
              static_cast<unsigned long long>(batch_counts.kernels),
              static_cast<unsigned long long>(batch_counts.lanes),
              batch_counts.occupancy(lane_width),
              static_cast<unsigned long long>(batch_counts.retired),
              static_cast<unsigned long long>(batch_counts.never_fire),
              batch.runs_per_s / cold.runs_per_s);

  // --- sparse plan: 1 bit x many instants (cross-group packing) -----------
  const SparseBench sparse = run_sparse_bench(w);
  std::printf("sparse campaign (1 bit x %zu instants): batch %zu runs in "
              "%.2f s  =>  %.0f runs/s (%zu requests in %zu kernels, %zu "
              "lanes, occupancy %.2f)\n",
              sparse.instants, sparse.runs, sparse.batch_wall_s,
              sparse.batch_runs_per_s,
              static_cast<std::size_t>(sparse.counts.requests),
              static_cast<std::size_t>(sparse.counts.kernels),
              static_cast<std::size_t>(sparse.counts.lanes),
              sparse.counts.occupancy(lane_width));

  // --- delta campaign: cold baseline vs incremental re-run ----------------
  const DeltaBench delta = run_delta_bench(w);
  std::printf("delta campaign (13 targets, V_REG invalidated): cold %zu runs "
              "in %.2f s; delta %zu executed + %zu replayed in %.2f s  =>  "
              "%.1fx (%zu requests in %zu kernels, %zu lanes, occupancy "
              "%.2f)\n",
              delta.total_runs, delta.cold_wall_s, delta.delta_executed,
              delta.delta_replayed, delta.delta_wall_s, delta.speedup,
              static_cast<std::size_t>(delta.delta_counts.requests),
              static_cast<std::size_t>(delta.delta_counts.kernels),
              static_cast<std::size_t>(delta.delta_counts.lanes),
              delta.delta_counts.occupancy(lane_width));

  // --- bootstrap resampling over the batched campaign's records -----------
  const std::size_t boot_replicates = w.scale == "smoke" ? 200 : 1000;
  const BootstrapBench boot =
      run_bootstrap_bench(batch_campaign, boot_replicates);
  std::printf("bootstrap resample: %zu replicates over %zu records "
              "(%zu cells) in %.2f s  =>  %.0f replicates/s\n",
              boot.replicates, boot.records, boot.cells, boot.wall_s,
              boot.replicates_per_s);

  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());

  // Pre-optimisation baseline: seed commit d9e9c5d, this file's default
  // workload (1284 runs, 15000 samples/run), same container. Measured with
  // the then-current per-row TraceSet, per-signal compare and cold-only
  // runner.
  constexpr double kBaselineRunsPerS = 273.0;
  constexpr double kBaselineRecordNs = 66.0;
  constexpr double kBaselineRecordAllocs = 1.0;
  constexpr double kBaselineCompareIdenticalNs = 70.0;
  const bool comparable = w.scale == "default";
  const double speedup =
      comparable ? batch.runs_per_s / kBaselineRunsPerS : 0.0;
  if (comparable) {
    std::printf("\nspeedup vs baseline (%.0f runs/s at d9e9c5d): %.2fx\n",
                kBaselineRunsPerS, speedup);
  } else {
    std::printf("\n(baseline comparison only valid at the default scale)\n");
  }

  // --- machine-readable summary -------------------------------------------
  {
    std::ofstream json("BENCH_campaign.json");
    json << "{\"scale\":\"" << w.scale << "\""
         << ",\"screen_isa\":\"" << arr::BatchedArrestmentSystem::screen_isa()
         << "\",\"nproc\":" << cpus
         << ",\"runs\":" << batch.runs
         << ",\"samples_per_run\":" << samples
         << ",\"record_ns_per_sample\":" << record_ns
         << ",\"record_allocs_per_sample\":" << record_allocs
         << ",\"compare_identical_ns_per_sample\":" << compare_identical_ns
         << ",\"compare_diverged_ns_per_sample\":" << compare_diverged_ns
         << ",\"cold\":{\"wall_s\":" << cold.wall_s
         << ",\"runs_per_s\":" << cold.runs_per_s << "}"
         << ",\"batch\":{\"wall_s\":" << batch.wall_s
         << ",\"runs_per_s\":" << batch.runs_per_s
         << "," << batch_counts.json_fields(lane_width, test_cases)
         << ",\"retired_lanes\":" << batch_counts.retired
         << ",\"never_fire_lanes\":" << batch_counts.never_fire
         << ",\"speedup_vs_cold\":" << batch.runs_per_s / cold.runs_per_s
         << "}"
         << ",\"sparse\":{\"runs\":" << sparse.runs
         << ",\"instants\":" << sparse.instants
         << ",\"batch\":{\"wall_s\":" << sparse.batch_wall_s
         << ",\"runs_per_s\":" << sparse.batch_runs_per_s
         << "," << sparse.counts.json_fields(lane_width, test_cases) << "}}"
         << ",\"delta\":{\"total_runs\":" << delta.total_runs
         << ",\"cold_wall_s\":" << delta.cold_wall_s
         << ",\"executed\":" << delta.delta_executed
         << ",\"replayed\":" << delta.delta_replayed
         << ",\"delta_wall_s\":" << delta.delta_wall_s
         << ",\"invalidated\":\"V_REG\""
         << ",\"speedup_vs_cold\":" << delta.speedup
         << ",\"batch\":{"
         << delta.delta_counts.json_fields(lane_width, test_cases)
         << "}}"
         << ",\"bootstrap\":{\"replicates\":" << boot.replicates
         << ",\"records\":" << boot.records
         << ",\"cells\":" << boot.cells
         << ",\"wall_s\":" << boot.wall_s
         << ",\"replicates_per_s\":" << boot.replicates_per_s << "}"
         << ",\"baseline\":{\"commit\":\"d9e9c5d\",\"scale\":\"default\""
         << ",\"runs_per_s\":" << kBaselineRunsPerS
         << ",\"record_ns_per_sample\":" << kBaselineRecordNs
         << ",\"record_allocs_per_sample\":" << kBaselineRecordAllocs
         << ",\"compare_identical_ns_per_sample\":"
         << kBaselineCompareIdenticalNs << "}"
         << ",\"speedup_vs_baseline\":";
    if (comparable) {
      json << speedup;
    } else {
      json << "null";
    }
    json << "}\n";
    std::printf("wrote BENCH_campaign.json\n");
  }
  return 0;
}

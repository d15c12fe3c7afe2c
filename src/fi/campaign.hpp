// Fault-injection campaign orchestration (Sections 6, 7.3).
//
// A campaign executes, for every workload test case, one Golden Run plus
// one Injection Run per planned injection, then reduces each IR trace to a
// per-signal first-divergence report against that test case's GR.
//
// The system under test is supplied as a CampaignRunner: golden runs plus
// lockstep batches of injection runs, or simply a RunFunction that builds
// a *fresh* system instance, runs it to completion and returns the trace.
// Both must be callable concurrently from multiple threads; determinism
// comes from the per-run seed in the request, never from shared state.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "fi/golden.hpp"
#include "fi/injection.hpp"
#include "fi/trace.hpp"

namespace propane::obs {
struct Telemetry;
}  // namespace propane::obs

namespace propane::fi {

/// One run order handed to the system under test.
struct RunRequest {
  std::uint32_t test_case = 0;
  std::optional<InjectionSpec> injection;  // nullopt = golden run
  std::uint64_t rng_seed = 0;  // stream for stochastic error models
};

using RunFunction = std::function<TraceSet(const RunRequest&)>;

/// One lane of a lockstep batch: an injection run plus its identity in the
/// campaign's flat run enumeration (so records and journal entries keep
/// the exact same identity whatever batch a run lands in).
struct BatchLaneRequest {
  std::size_t flat = 0;
  std::uint32_t injection_index = 0;
  std::uint32_t test_case = 0;
  std::uint64_t rng_seed = 0;
  /// Borrowed from CampaignConfig::injections; valid for the call.
  const InjectionSpec* spec = nullptr;
};

/// A lockstep batch request: injection runs of one test case, simulated
/// together and tracked against that test case's golden run. The planner
/// never puts two test cases in one request, and the batched runner
/// rejects a request that mixes them. Lanes may mix fire ticks freely;
/// per-lane identity and fire time travel in the lane entries, and there
/// may be more lanes than the runner's kernel width (the runner shares its
/// slots among them). A lane whose injection fires at/after the run
/// horizon never fires (all-clear report).
struct BatchRunRequest {
  std::vector<BatchLaneRequest> lanes;
  /// The campaign's golden traces, indexed by test case; borrowed for the
  /// call. Null when the caller has none (direct calls in tests).
  const std::vector<TraceSet>* goldens = nullptr;
};

/// Executes a whole batch and returns one DivergenceReport per lane, in
/// lane order, each bit-identical to compare_to_golden of that run's
/// scalar trace against its test case's golden trace.
using BatchRunFunction =
    std::function<std::vector<DivergenceReport>(const BatchRunRequest&)>;

/// The system under test, as handed to the campaign: `run` executes the
/// golden runs, `batch` executes every injection run.
///
/// Scalar-only systems (one trace per call) convert implicitly from a
/// RunFunction into a width-1 batch adaptor: `run` serves the goldens, and
/// each one-lane batch is one `run` call whose trace is compared against
/// BatchRunRequest::goldens. The cold scalar reference
/// (arr::campaign_runner) executes this way.
struct CampaignRunner {
  RunFunction run;
  BatchRunFunction batch;
  /// Upper bound on lanes per request and on the kernel width (0 = no
  /// bound). The width-1 adaptor sets 1: a request is the unit a crash
  /// loses and the unit the pool schedules, so scalar runs stay journaled
  /// and spread over the threads one by one.
  std::size_t max_lanes = 0;

  CampaignRunner() = default;
  /// The width-1 adaptor, implicit from anything a RunFunction can hold
  /// (lambda, function pointer, RunFunction itself).
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, CampaignRunner> &&
                std::is_constructible_v<RunFunction, F&&>>>
  CampaignRunner(F&& scalar_run)  // NOLINT(google-explicit-constructor)
      : CampaignRunner(
            from_scalar(RunFunction(std::forward<F>(scalar_run)))) {}
  CampaignRunner(RunFunction golden_run, BatchRunFunction batch_run)
      : run(std::move(golden_run)), batch(std::move(batch_run)) {}

 private:
  static CampaignRunner from_scalar(RunFunction scalar_run);
};

struct CampaignConfig {
  /// Number of workload test cases (the paper uses 25: 5 masses x 5
  /// velocities).
  std::uint32_t test_case_count = 1;
  /// Injection plan; every entry is run once per test case.
  std::vector<InjectionSpec> injections;
  /// Master seed; each run gets an independent derived stream.
  std::uint64_t seed = 0x9E3779B9;
  /// Worker threads (0 = hardware concurrency).
  std::size_t threads = 0;
  /// Kernel width: the most runs one lockstep kernel holds at a time, in
  /// slots (0 = kDefaultBatchSize; CampaignRunner::max_lanes caps it). The
  /// planner deals runs into requests by this width. Every kernel also
  /// sweeps one golden lane per open segment and is capped at 64 lanes in
  /// all, so it holds at most 63 runs whatever the width. Pure execution
  /// knob: results and journals are bit-identical for every batch size,
  /// and the journal plan hash deliberately excludes it, so a campaign may
  /// be resumed under a different batch size (or on the scalar reference)
  /// without invalidation.
  std::size_t batch_size = 0;
};

/// Kernel width (slots) used when CampaignConfig::batch_size is 0: a
/// 64-lane kernel (two 32-lane vector rows) minus one golden lane.
inline constexpr std::size_t kDefaultBatchSize = 63;

/// The kernel width `config` asks for: its batch_size, or the default.
inline std::size_t kernel_width(const CampaignConfig& config) {
  return config.batch_size > 0 ? config.batch_size : kDefaultBatchSize;
}

/// Outcome of one injection run, reduced to first divergences. The
/// injection identity (index into the plan, target, time) is embedded so
/// results can be analysed without the originating config; the error-model
/// name is resolved through CampaignResult::injection_model_names (one
/// string per *injection*, not one per record).
struct InjectionRecord {
  std::uint32_t injection_index = 0;  // into CampaignConfig::injections
  std::uint32_t test_case = 0;
  BusSignalId target = 0;
  sim::SimTime when = 0;
  /// Content address of the run (fi/delta_campaign.hpp); 0 = not
  /// fingerprinted (plain run_campaign, or a record read from a pre-v3
  /// journal). Pure metadata: estimation never consults it.
  std::uint64_t fingerprint = 0;
  /// True when this record was replayed from a baseline cache instead of
  /// executed by the session that produced it. Pure metadata as well.
  bool replayed = false;
  DivergenceReport report;
};

struct CampaignResult {
  /// Signal names in bus order (defines DivergenceReport indexing).
  std::vector<std::string> signal_names;
  /// Error-model name of each planned injection, indexed by
  /// InjectionRecord::injection_index.
  std::vector<std::string> injection_model_names;
  /// Golden runs, indexed by test case.
  std::vector<TraceSet> goldens;
  /// One record per (injection, test case), injection-major order.
  std::vector<InjectionRecord> records;

  std::size_t run_count() const { return goldens.size() + records.size(); }
  std::optional<BusSignalId> find_signal(std::string_view name) const;
  /// Model name for a record (empty when the index is out of range, e.g.
  /// hand-built results).
  std::string_view model_name_of(const InjectionRecord& record) const {
    return record.injection_index < injection_model_names.size()
               ? std::string_view(injection_model_names[record.injection_index])
               : std::string_view();
  }
};

/// Observation and filtering hooks for run_campaign, the seam the durable
/// journal (src/store) plugs into. All hooks may be null.
struct CampaignHooks {
  /// Decides per injection run whether to execute it. Returning false skips
  /// the run entirely (used for runs already journaled, or owned by another
  /// process of a split campaign). Golden runs always execute -- they are
  /// the comparison baseline and are cheap relative to the injection fan-out.
  /// Called once per run, in flat order, on the calling thread while the
  /// runs are planned (after the golden runs, before any injection run).
  std::function<bool(std::uint32_t injection_index, std::uint32_t test_case)>
      should_run;
  /// Called once per *executed* injection run with its finished record,
  /// from the worker thread that ran it; must be thread-safe. The record is
  /// handed over, so the sink may move it. This is where a journal sink
  /// appends.
  std::function<void(InjectionRecord&& record)> on_record;
  /// Optional telemetry (non-owning, must outlive the campaign). Purely
  /// observational: the campaign.runs.* counters, the campaign and phase
  /// spans, one golden.done event per golden run, one campaign.batch.done
  /// event per request, and a HUD frame after the golden phase and after
  /// each request. Never consulted for scheduling or seeding, so enabling
  /// it cannot change any result.
  const obs::Telemetry* telemetry = nullptr;
};

/// Executes the campaign. Golden runs execute first (in parallel), then all
/// injection runs that hooks.should_run keeps are planned into batch
/// requests and fan out over the worker pool.
///
/// The in-memory overload runs every injection and collects each record
/// into CampaignResult::records. The hooks overload streams: records go
/// only to hooks.on_record, and CampaignResult::records stays empty, so
/// memory stays O(goldens), not O(runs).
///
/// Determinism: per-run RNG seeds are a pure function of (config.seed, run
/// identity), never of thread count, execution order or which runs
/// should_run filtered out, and every lane's report is bit-identical to
/// its scalar run whatever request it lands in. So a journal-resumed or
/// process-split campaign, under any batch size, reproduces the exact
/// records of a single uninterrupted session.
CampaignResult run_campaign(const CampaignRunner& runner,
                            const CampaignConfig& config);
CampaignResult run_campaign(const CampaignRunner& runner,
                            const CampaignConfig& config,
                            const CampaignHooks& hooks);

/// The campaign's flat enumeration of injection runs:
/// flat = injection_index * test_case_count + test_case.
inline std::size_t campaign_flat_index(const CampaignConfig& config,
                                       std::uint32_t injection_index,
                                       std::uint32_t test_case) {
  return static_cast<std::size_t>(injection_index) * config.test_case_count +
         test_case;
}

/// Per-run RNG seed derivation -- a pure function of (config.seed, run
/// identity), shared by run_campaign and the delta-campaign fingerprints
/// (fi/delta_campaign.hpp). Changing the master seed therefore changes
/// every run's seed, and with it every run fingerprint.
std::uint64_t golden_run_seed(const CampaignConfig& config,
                              std::uint32_t test_case);
std::uint64_t injection_run_seed(const CampaignConfig& config,
                                 std::size_t flat);

}  // namespace propane::fi

// Bootstrap uncertainty propagation (ROADMAP item 4).
//
// Wilson intervals (common/stats.hpp) qualify each *single* permeability
// estimate, but everything derived from the permeability matrix -- Eqs. 4-6
// exposures, Table-4 path rankings, EDM/ERM placement -- was a point
// estimate. The bootstrap closes that gap without re-simulating anything:
// journaled injection records are resampled with replacement, stratified
// per (injected signal, test case) cell so every replicate preserves the
// campaign's injection design, and each of the B replicate record sets is
// folded into permeability draws (via the estimator's own record
// classification, PermeabilityAccumulator::classify) and pushed through the
// full analysis pipeline: permeability graph, backtrack trees, signal
// exposures, ranked propagation paths.
//
// The result is a sample cloud per derived quantity (percentile bands) plus
// ranking-stability probabilities -- P(module/signal/path stays in the
// top-k across replicates) -- and a run-count convergence study: the same
// bootstrap at subsampled cell sizes shows how wide the bands would be had
// the campaign run fewer injections ("how many runs until the ranking is
// stable?").
//
// Determinism: every replicate draws from an Rng stream that is a pure
// function of (seed, fraction index, replicate index, cell index), and
// replicate samples land in preallocated slots, so results are
// bit-identical regardless of thread count -- the same contract the
// campaign itself honours.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/system_model.hpp"
#include "fi/estimator.hpp"

namespace propane::obs {
struct Telemetry;
}  // namespace propane::obs

namespace propane::fi {

struct BootstrapOptions {
  /// Number of bootstrap replicates B.
  std::size_t replicates = 1000;
  /// Master seed for the resampling streams (independent of the campaign
  /// seed: resampling never re-executes runs).
  std::uint64_t seed = 42;
  /// "Stays in the top k" threshold for the ranking-stability
  /// probabilities (clamped to the respective list length).
  std::size_t top_k = 3;
  /// Worker threads for replicate evaluation (0 = hardware concurrency).
  /// Pure execution knob: results are bit-identical for any value.
  std::size_t threads = 0;
  /// Cell-subsample fractions for the convergence study, each answering
  /// "what if every cell had only ceil(f * n) of its runs?". Values are
  /// clamped to (0, 1]; duplicates and the implicit full-size run (1.0,
  /// always last) are deduplicated.
  std::vector<double> run_fractions = {0.25, 0.5, 0.75};
};

/// Point estimate plus the percentile band of its B replicate draws.
struct BootstrapBand {
  double point = 0.0;
  PercentileBand band;
};

/// One (module, input, output) permeability with its replicate cloud.
struct PairCloud {
  core::ArcId pair;
  std::string module_name;
  std::string input_name;
  std::string output_name;
  std::size_t injections = 0;  // per replicate and in the point estimate
  std::size_t errors = 0;      // in the point estimate
  BootstrapBand permeability;
};

/// Module measures (Eqs. 2-5) with replicate clouds and ranking stability.
struct ModuleCloud {
  core::ModuleId module = 0;
  std::string name;
  BootstrapBand relative_permeability;     // Eq. 2
  BootstrapBand nonweighted_permeability;  // Eq. 3
  /// Eq. 4; meaningless when incoming_arcs == 0 (the paper's OB1: modules
  /// fed only by system inputs have no error exposure) -- band is all
  /// zeros then and renderers must treat it as absent.
  BootstrapBand exposure;
  BootstrapBand nonweighted_exposure;  // Eq. 5
  std::size_t incoming_arcs = 0;
  /// P(this module ranks first / within top-k by Eq. 5 exposure) -- the
  /// EDM placement criterion.
  double p_top1_exposure = 0.0;
  double p_topk_exposure = 0.0;
  /// P(this module ranks first / within top-k by Eq. 3 permeability) --
  /// the ERM placement criterion.
  double p_top1_permeability = 0.0;
  double p_topk_permeability = 0.0;
};

/// Signal error exposure (Eq. 6) cloud; module-output signals only
/// (matching Table 3, which omits system inputs).
struct SignalCloud {
  std::string name;
  BootstrapBand exposure;
  double p_top1 = 0.0;
  double p_topk = 0.0;
};

/// One Table-4 propagation path with its weight cloud and the probability
/// that it keeps its top ranking across replicates.
struct PathCloud {
  std::uint32_t tree = 0;
  std::string description;
  bool ends_in_feedback = false;
  BootstrapBand weight;
  double p_top1 = 0.0;
  double p_topk = 0.0;
};

/// One convergence-study point: the bootstrap re-run with every cell
/// subsampled to ceil(fraction * n) records per replicate.
struct ConvergencePoint {
  double fraction = 1.0;
  /// Total records drawn per replicate (sum of per-cell draw counts).
  std::size_t draws = 0;
  /// Eq. 5 exposure band per module (indexed by ModuleId).
  std::vector<BootstrapBand> module_exposure;
  /// P(module ranks first by Eq. 5) per module at this campaign size.
  std::vector<double> module_p_top1;
};

struct BootstrapResult {
  std::size_t replicates = 0;
  std::uint64_t seed = 0;
  std::size_t top_k = 0;
  std::size_t record_count = 0;
  std::size_t cell_count = 0;

  std::vector<std::string> module_names;  // by ModuleId
  std::vector<PairCloud> pairs;      // injected pairs, pair-table order
  std::vector<ModuleCloud> modules;  // by ModuleId
  std::vector<SignalCloud> signals;  // sorted by point exposure (desc)
  std::vector<PathCloud> paths;      // sorted by point weight (desc)

  /// Placement confidence: the point-estimate winner of each criterion and
  /// the fraction of replicates in which it kept first place.
  std::string edm_module;  // argmax Eq. 5 exposure
  double edm_p_top1 = 0.0;
  std::string erm_module;  // argmax Eq. 3 permeability
  double erm_p_top1 = 0.0;

  /// Ascending by fraction; the last entry is always the full-size run
  /// (fraction 1.0) and restates the main clouds' Eq. 5 bands.
  std::vector<ConvergencePoint> convergence;

  /// Wall time of run() -- never serialised into artifacts (they must be
  /// byte-identical across runs); surfaced via stdout/metrics only.
  double wall_seconds = 0.0;
};

/// Collects journal records (no re-simulation) and evaluates the bootstrap.
///
/// Usage: construct, add() every record once (any order -- cells key on
/// record identity, not arrival), then run(). add() folds each record into
/// a point-estimate accumulator AND stores its per-pair error pattern as a
/// bitmask in its (target, test case) cell -- O(records) memory, no record
/// copies.
///
/// run() groups each cell's sorted masks into runs of equal values before
/// the replicate loop. A cell with one distinct mask (all-clean or always
/// erring) adds its draw count to each of that mask's pairs and draws no
/// random number. Any other cell draws record indices from its stream as
/// a with-replacement resample would, but counts only the group each index
/// falls in; the group counts times their mask bits give the cell's error
/// counts. Per draw that is one RNG step and one increment.
class BootstrapResampler {
 public:
  BootstrapResampler(const core::SystemModel& model,
                     const SignalBinding& binding,
                     std::size_t bus_signal_count);

  /// Folds one record, under the same contract as
  /// PermeabilityAccumulator::add.
  void add(const InjectionRecord& record);

  std::size_t record_count() const { return accumulator_.record_count(); }
  std::size_t cell_count() const { return cells_.size(); }

  /// The point estimate over every record added so far.
  EstimationResult point_estimate() const { return accumulator_.finish(); }

  /// Evaluates B replicates (and the convergence fractions) over the
  /// collected records. Requires at least one record.
  /// `telemetry` (optional) receives bootstrap.* counters and the
  /// bootstrap.replicate.us and bootstrap.resample.us histograms;
  /// observation-only.
  BootstrapResult run(const BootstrapOptions& options,
                      const obs::Telemetry* telemetry = nullptr) const;

 private:
  /// One resampling stratum: every record that injected `target` under
  /// `test_case`. All its records touch the same consumer pairs, so a
  /// record reduces to one error bit per pair.
  struct Cell {
    BusSignalId target = 0;
    std::uint32_t test_case = 0;
    /// The consumer pairs of `target`, in classify() order (<= 64).
    std::vector<std::uint32_t> pair_indices;
    /// One mask per record: bit j set when the record counted a direct
    /// error for pair_indices[j] (Section 7.3).
    std::vector<std::uint64_t> error_masks;
  };

  const core::SystemModel& model_;
  PermeabilityAccumulator accumulator_;  // point estimate
  std::map<std::pair<BusSignalId, std::uint32_t>, std::size_t> cell_index_;
  std::vector<Cell> cells_;  // in first-seen order; index is the RNG salt
  std::vector<PairContribution> scratch_;
};

}  // namespace propane::fi

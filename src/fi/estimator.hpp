// Experimental estimation of error permeability (Section 6).
//
// "Suppose, for module M, we inject n_inj distinct errors in input i, and
// at output k observe n_err differences compared to the GR's, then we can
// directly estimate the error permeability P_{i,k} to be n_err / n_inj."
//
// Attribution follows Section 7.3: "We only took into account the direct
// errors on the outputs" -- an output divergence is credited to the
// injected input only if no *other* input of the module diverged strictly
// earlier (otherwise the error re-entered through a different input, e.g.
// via a feedback loop, and is not a direct permeation of the injection).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "core/permeability.hpp"
#include "core/permeability_graph.hpp"
#include "core/system_model.hpp"
#include "fi/campaign.hpp"

namespace propane::fi {

/// Maps the analysis model's signals (system inputs and module outputs) to
/// runtime bus signals. The campaign speaks BusSignalId; the estimator
/// needs to know which bus variable realises which model signal.
class SignalBinding {
 public:
  void bind(const core::SignalRef& signal, BusSignalId bus);
  /// Convenience: binds by matching signal display names against bus names.
  static SignalBinding by_name(const core::SystemModel& model,
                               const std::vector<std::string>& bus_names);

  BusSignalId bus_for(const core::SignalRef& signal) const;
  bool is_bound(const core::SignalRef& signal) const;
  std::size_t size() const { return map_.size(); }
  /// One past the largest bound bus id (0 when nothing is bound); the
  /// minimum bus-signal count a divergence report must cover.
  std::size_t bus_upper_bound() const;

 private:
  static std::pair<std::uint64_t, std::uint64_t> key(
      const core::SignalRef& signal);
  std::map<std::pair<std::uint64_t, std::uint64_t>, BusSignalId> map_;
};

/// Raw counts for one (module, input, output) pair.
struct PairEstimate {
  core::ArcId pair;
  std::string input_name;   // name of the signal driving the input
  std::string output_name;  // name of the output signal
  std::size_t injections = 0;
  std::size_t errors = 0;          // direct errors (used for P)
  std::size_t indirect_errors = 0; // excluded by the direct-only rule

  // Propagation latency (extension beyond the paper): milliseconds from
  // the injection instant to the output's first divergence, over the
  // direct errors.
  std::uint64_t latency_min_ms = 0;
  std::uint64_t latency_max_ms = 0;
  double latency_sum_ms = 0.0;
  std::size_t latency_count = 0;

  double permeability() const {
    return injections == 0
               ? 0.0
               : static_cast<double>(errors) / static_cast<double>(injections);
  }
  /// Mean input->output propagation latency of the direct errors [ms];
  /// 0 when no direct error was observed.
  double mean_latency_ms() const {
    return latency_count == 0
               ? 0.0
               : latency_sum_ms / static_cast<double>(latency_count);
  }
  /// 95% Wilson score interval for the estimate.
  Interval confidence() const;
};

struct EstimationResult {
  core::SystemPermeability permeability;
  std::vector<PairEstimate> pairs;  // module-major, input-major, output-major

  const PairEstimate& pair(core::ModuleId module, core::PortIndex input,
                           core::PortIndex output) const;
};

/// What one injection record contributes to one (module, input, output)
/// pair: an injection always, plus (optionally) an output divergence with
/// its Section-7.3 direct/indirect attribution. Produced by
/// PermeabilityAccumulator::classify so other consumers of the record
/// stream -- notably the bootstrap resampler (fi/bootstrap.hpp) -- count
/// errors exactly as the estimator does.
struct PairContribution {
  std::size_t pair_index = 0;  ///< into the accumulator's pair table
  bool diverged = false;       ///< the pair's output diverged
  bool direct = false;         ///< attribution credited the injected input
  std::uint64_t latency_ms = 0;  ///< injection -> first divergence (direct)
};

/// Record-stream permeability estimation: folds injection records one at a
/// time into per-pair counts, so estimates can be derived from a campaign
/// journal (src/store) -- or any other record stream -- without ever
/// materialising a CampaignResult. All counts are order-independent, so
/// folding records in journal-shard order, resume order or merge order
/// yields identical estimates.
class PermeabilityAccumulator {
 public:
  /// `bus_signal_count` sizes the target lookup (number of bus signals the
  /// campaign traced; records' reports index into that range).
  PermeabilityAccumulator(const core::SystemModel& model,
                          const SignalBinding& binding,
                          std::size_t bus_signal_count);

  /// Folds one injection record into the counts: classify(), then fold().
  void add(const InjectionRecord& record);

  /// Classifies one record into its per-pair contributions (appended to
  /// `out`) without folding anything: one entry per (consumer input,
  /// output) pair of the injected signal, in pair-table order. Resampling
  /// record contributions (fi/bootstrap.hpp) therefore reproduces the
  /// estimator's attribution bit for bit. A report that covers fewer
  /// signals than the binding, width 0 included, is a contract error.
  void classify(const InjectionRecord& record,
                std::vector<PairContribution>& out) const;

  /// Counts one executed record whose contributions classify() produced.
  void fold(std::span<const PairContribution> contributions);

  /// The accumulator's pair table (module-major / input-major /
  /// output-major); PairContribution::pair_index indexes into it.
  std::span<const PairEstimate> pairs() const { return pairs_; }

  std::size_t record_count() const { return record_count_; }

  /// Builds the estimation result from the counts folded so far.
  EstimationResult finish() const;

 private:
  const core::SystemModel& model_;
  std::size_t record_count_ = 0;
  std::vector<PairEstimate> pairs_;  // module/input/output-major
  std::vector<std::size_t> first_pair_of_module_;
  /// Module inputs driven by each bus signal (injection targets).
  std::vector<std::vector<core::InputRef>> consumers_of_bus_;
  /// Bus id of the signal driving each module input / of each output.
  std::vector<std::vector<BusSignalId>> input_bus_;
  std::vector<std::vector<BusSignalId>> output_bus_;
  /// Whether each module input is fed back from the module's own output.
  std::vector<std::vector<bool>> self_feedback_;
  /// Smallest report size every folded record must cover (max bound bus id
  /// + 1); guards against records from a different campaign layout.
  std::size_t min_report_size_ = 0;
  /// add()'s classify scratch, kept to avoid a per-record allocation.
  std::vector<PairContribution> scratch_;
};

/// Reduces a campaign into permeability estimates for every I/O pair whose
/// driving signal was an injection target. Pairs never injected keep
/// P = 0 with injections == 0. (Batch wrapper over PermeabilityAccumulator.)
EstimationResult estimate_permeability(const core::SystemModel& model,
                                       const SignalBinding& binding,
                                       const CampaignResult& campaign);

/// Uniform-propagation statistics (related-work check against [12]): for
/// every injection *location* -- a (target signal, error model) pair -- the
/// fraction of its injections whose error reached any system output.
/// [12] predicts these fractions cluster at 0 and 1; the paper disagrees.
struct LocationPropagation {
  std::string signal_name;
  std::string model_name;
  std::size_t injections = 0;
  std::size_t propagated = 0;  // reached a system output signal

  double fraction() const {
    return injections == 0 ? 0.0
                           : static_cast<double>(propagated) /
                                 static_cast<double>(injections);
  }
};

std::vector<LocationPropagation> location_propagation_stats(
    const core::SystemModel& model, const SignalBinding& binding,
    const CampaignResult& campaign);

}  // namespace propane::fi

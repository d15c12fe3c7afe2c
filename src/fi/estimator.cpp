#include "fi/estimator.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace propane::fi {

namespace {
using core::InputRef;
using core::ModuleId;
using core::OutputRef;
using core::PortIndex;
using core::SignalRef;
using core::SourceKind;
using core::SystemModel;
}  // namespace

std::pair<std::uint64_t, std::uint64_t> SignalBinding::key(
    const SignalRef& signal) {
  if (signal.kind == SourceKind::kSystemInput) {
    return {0, signal.system_input};
  }
  return {1, (static_cast<std::uint64_t>(signal.output.module) << 32) |
                 signal.output.port};
}

void SignalBinding::bind(const SignalRef& signal, BusSignalId bus) {
  map_[key(signal)] = bus;
}

SignalBinding SignalBinding::by_name(
    const SystemModel& model, const std::vector<std::string>& bus_names) {
  SignalBinding binding;
  for (const SignalRef& signal : model.all_signals()) {
    const std::string name = model.signal_name(signal);
    const auto it = std::find(bus_names.begin(), bus_names.end(), name);
    PROPANE_REQUIRE_MSG(it != bus_names.end(), "no bus signal named: " + name);
    binding.bind(signal, static_cast<BusSignalId>(it - bus_names.begin()));
  }
  return binding;
}

BusSignalId SignalBinding::bus_for(const SignalRef& signal) const {
  const auto it = map_.find(key(signal));
  PROPANE_REQUIRE_MSG(it != map_.end(), "signal not bound to a bus signal");
  return it->second;
}

bool SignalBinding::is_bound(const SignalRef& signal) const {
  return map_.contains(key(signal));
}

std::size_t SignalBinding::bus_upper_bound() const {
  std::size_t upper = 0;
  for (const auto& [key, bus] : map_) {
    upper = std::max(upper, std::size_t{bus} + 1);
  }
  return upper;
}

Interval PairEstimate::confidence() const {
  if (injections == 0) return Interval{0.0, 1.0};
  return wilson_interval(errors, injections);
}

const PairEstimate& EstimationResult::pair(ModuleId module, PortIndex input,
                                           PortIndex output) const {
  for (const PairEstimate& p : pairs) {
    if (p.pair.module == module && p.pair.input == input &&
        p.pair.output == output) {
      return p;
    }
  }
  PROPANE_CHECK_MSG(false, "no estimate for the requested pair");
  return pairs.front();  // unreachable; PROPANE_CHECK_MSG throws
}

PermeabilityAccumulator::PermeabilityAccumulator(
    const SystemModel& model, const SignalBinding& binding,
    std::size_t bus_signal_count)
    : model_(model) {
  // Pair table, module-major / input-major / output-major.
  first_pair_of_module_.resize(model.module_count());
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    const core::ModuleInfo& info = model.module(m);
    first_pair_of_module_[m] = pairs_.size();
    for (PortIndex i = 0; i < info.input_count(); ++i) {
      for (PortIndex k = 0; k < info.output_count(); ++k) {
        PairEstimate estimate;
        estimate.pair = core::ArcId{m, i, static_cast<PortIndex>(k)};
        estimate.input_name =
            model.signal_name(model.input_source(InputRef{m, i}));
        estimate.output_name =
            model.signal_name(SignalRef::from_output(OutputRef{m, k}));
        pairs_.push_back(std::move(estimate));
      }
    }
  }

  // Map each bus signal to the module inputs it drives.
  consumers_of_bus_.resize(bus_signal_count);
  for (std::uint32_t s = 0; s < model.system_input_count(); ++s) {
    const BusSignalId bus = binding.bus_for(SignalRef::from_system_input(s));
    for (const InputRef& in : model.system_input_consumers(s)) {
      consumers_of_bus_.at(bus).push_back(in);
    }
  }
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    for (PortIndex k = 0; k < model.module(m).output_count(); ++k) {
      const OutputRef out{m, k};
      const BusSignalId bus = binding.bus_for(SignalRef::from_output(out));
      for (const InputRef& in : model.output_consumers(out)) {
        consumers_of_bus_.at(bus).push_back(in);
      }
    }
  }

  // Caches: bus id of the signal driving each module input, bus id of each
  // output, and whether an input is the module's own feedback.
  input_bus_.resize(model.module_count());
  output_bus_.resize(model.module_count());
  self_feedback_.resize(model.module_count());
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    const core::ModuleInfo& info = model.module(m);
    input_bus_[m].resize(info.input_count());
    self_feedback_[m].resize(info.input_count());
    for (PortIndex i = 0; i < info.input_count(); ++i) {
      const core::Source& src = model.input_source(InputRef{m, i});
      input_bus_[m][i] = binding.bus_for(src);
      self_feedback_[m][i] =
          src.kind == SourceKind::kModuleOutput && src.output.module == m;
    }
    output_bus_[m].resize(info.output_count());
    for (PortIndex k = 0; k < info.output_count(); ++k) {
      output_bus_[m][k] =
          binding.bus_for(SignalRef::from_output(OutputRef{m, k}));
    }
  }
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    for (const BusSignalId bus : input_bus_[m]) {
      min_report_size_ = std::max(min_report_size_, std::size_t{bus} + 1);
    }
    for (const BusSignalId bus : output_bus_[m]) {
      min_report_size_ = std::max(min_report_size_, std::size_t{bus} + 1);
    }
  }
}

void PermeabilityAccumulator::classify(const InjectionRecord& record,
                                       std::vector<PairContribution>& out) const {
  PROPANE_CHECK_MSG(
      record.report.per_signal.size() >= min_report_size_,
      "injection record's divergence report covers fewer signals than the "
      "model binding");
  PROPANE_CHECK(record.target < consumers_of_bus_.size());

  for (const InputRef& in : consumers_of_bus_[record.target]) {
    const ModuleId m = in.module;
    const core::ModuleInfo& info = model_.module(m);
    for (PortIndex k = 0; k < info.output_count(); ++k) {
      PairContribution contribution;
      contribution.pair_index =
          first_pair_of_module_[m] + in.port * info.output_count() + k;

      const Divergence& out_div = record.report.per_signal[output_bus_[m][k]];
      if (!out_div.diverged) {
        out.push_back(contribution);
        continue;
      }
      contribution.diverged = true;

      // Direct-error attribution (Section 7.3): discard the divergence
      // if a *different* input of M diverged strictly before it -- the
      // error then re-entered the module on another input.
      bool direct = true;
      for (PortIndex j = 0; j < info.input_count(); ++j) {
        if (j == in.port) continue;
        const BusSignalId other = input_bus_[m][j];
        // Inputs fed by the injected signal count as injected too.
        if (other == record.target) continue;
        const Divergence& in_div = record.report.per_signal[other];
        if (!in_div.diverged) continue;
        // An input corrupted in an *earlier* tick was definitely consumed
        // before the output diverged: re-entry, not direct permeation.
        // For a *co-timed* divergence it depends on who wrote the input:
        // another producer runs earlier in the same tick (its corruption
        // was visible: re-entry), whereas the module's own feedback is
        // written after its inputs were read (the co-timed change is the
        // module's own output, so the permeation is still direct).
        const bool earlier = in_div.first_ms < out_div.first_ms;
        const bool cotimed = in_div.first_ms == out_div.first_ms;
        if (earlier || (cotimed && !self_feedback_[m][j])) {
          direct = false;
          break;
        }
      }
      contribution.direct = direct;
      if (direct) {
        const std::uint64_t injected_ms = sim::to_milliseconds(record.when);
        contribution.latency_ms = out_div.first_ms >= injected_ms
                                      ? out_div.first_ms - injected_ms
                                      : 0;
      }
      out.push_back(contribution);
    }
  }
}

void PermeabilityAccumulator::add(const InjectionRecord& record) {
  scratch_.clear();
  classify(record, scratch_);
  fold(scratch_);
}

void PermeabilityAccumulator::fold(
    std::span<const PairContribution> contributions) {
  ++record_count_;
  for (const PairContribution& contribution : contributions) {
    PairEstimate& estimate = pairs_[contribution.pair_index];
    ++estimate.injections;
    if (!contribution.diverged) continue;
    if (contribution.direct) {
      ++estimate.errors;
      const std::uint64_t latency = contribution.latency_ms;
      if (estimate.latency_count == 0) {
        estimate.latency_min_ms = estimate.latency_max_ms = latency;
      } else {
        estimate.latency_min_ms = std::min(estimate.latency_min_ms, latency);
        estimate.latency_max_ms = std::max(estimate.latency_max_ms, latency);
      }
      estimate.latency_sum_ms += static_cast<double>(latency);
      ++estimate.latency_count;
    } else {
      ++estimate.indirect_errors;
    }
  }
}

EstimationResult PermeabilityAccumulator::finish() const {
  EstimationResult result{core::SystemPermeability(model_), pairs_};
  for (const PairEstimate& estimate : result.pairs) {
    if (estimate.injections == 0) continue;
    result.permeability.set(estimate.pair.module, estimate.pair.input,
                            estimate.pair.output, estimate.permeability());
  }
  return result;
}

EstimationResult estimate_permeability(const SystemModel& model,
                                       const SignalBinding& binding,
                                       const CampaignResult& campaign) {
  PermeabilityAccumulator accumulator(model, binding,
                                      campaign.signal_names.size());
  for (const InjectionRecord& record : campaign.records) {
    accumulator.add(record);
  }
  return accumulator.finish();
}

std::vector<LocationPropagation> location_propagation_stats(
    const SystemModel& model, const SignalBinding& binding,
    const CampaignResult& campaign) {
  // System output signals on the bus.
  std::vector<BusSignalId> system_outputs;
  for (std::uint32_t o = 0; o < model.system_output_count(); ++o) {
    system_outputs.push_back(binding.bus_for(
        SignalRef::from_output(model.system_output_source(o))));
  }

  std::map<std::pair<BusSignalId, std::string>, LocationPropagation> stats;
  for (const InjectionRecord& record : campaign.records) {
    const std::string model_name(campaign.model_name_of(record));
    const auto key = std::make_pair(record.target, model_name);
    auto [it, inserted] = stats.emplace(key, LocationPropagation{});
    if (inserted) {
      it->second.signal_name = campaign.signal_names[record.target];
      it->second.model_name = model_name;
    }
    ++it->second.injections;
    const bool reached = std::any_of(
        system_outputs.begin(), system_outputs.end(), [&](BusSignalId s) {
          return record.report.per_signal[s].diverged;
        });
    if (reached) ++it->second.propagated;
  }

  std::vector<LocationPropagation> out;
  out.reserve(stats.size());
  for (auto& [key, value] : stats) out.push_back(std::move(value));
  return out;
}

}  // namespace propane::fi

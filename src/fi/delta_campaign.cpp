#include "fi/delta_campaign.hpp"

#include <algorithm>
#include <map>

#include "common/bytes.hpp"
#include "common/contracts.hpp"

namespace propane::fi {

namespace {

using core::InputRef;
using core::ModuleId;
using core::PortIndex;

/// Tag mixed into every run fingerprint; bump if the fingerprint recipe
/// ever changes, so old caches miss instead of matching wrongly.
constexpr std::string_view kFingerprintTag = "propane.run-fp.v1";

}  // namespace

std::vector<std::vector<ModuleId>> consumers_by_bus(
    const core::SystemModel& model, const SignalBinding& binding,
    std::size_t bus_count) {
  std::vector<std::vector<ModuleId>> consumers(bus_count);
  for (ModuleId m = 0; m < model.module_count(); ++m) {
    const core::ModuleInfo& info = model.module(m);
    for (PortIndex i = 0; i < info.input_count(); ++i) {
      const core::Source& src = model.input_source(InputRef{m, i});
      if (!binding.is_bound(src)) continue;
      const BusSignalId bus = binding.bus_for(src);
      if (bus < bus_count) consumers[bus].push_back(m);
    }
  }
  for (auto& modules : consumers) {
    std::sort(modules.begin(), modules.end());
    modules.erase(std::unique(modules.begin(), modules.end()), modules.end());
  }
  return consumers;
}

std::vector<std::uint64_t> run_fingerprints(const CampaignConfig& config,
                                            const core::SystemModel& model,
                                            const SignalBinding& binding,
                                            const ModuleVersionMap& versions) {
  PROPANE_REQUIRE(config.test_case_count > 0);
  std::map<std::string_view, std::uint64_t> token_of;
  for (const ModuleVersion& v : versions) token_of[v.module] = v.token;

  // The widest bus id any injection targets bounds the consumer table.
  std::size_t bus_count = binding.bus_upper_bound();
  for (const InjectionSpec& spec : config.injections) {
    bus_count = std::max(bus_count, std::size_t{spec.target} + 1);
  }
  const auto consumers = consumers_by_bus(model, binding, bus_count);

  // Per-injection prefix: everything except the test case and the derived
  // seed is shared by the injection's test-case row, including the sorted
  // (consumer name, version token) sequence.
  std::vector<std::vector<std::uint8_t>> prefixes;
  prefixes.reserve(config.injections.size());
  for (const InjectionSpec& spec : config.injections) {
    ByteWriter writer;
    writer.str(kFingerprintTag);
    writer.u64(config.seed);
    writer.u32(spec.target);
    writer.u64(spec.when);
    writer.u8(static_cast<std::uint8_t>(spec.phase));
    writer.str(spec.model.name);
    const auto& modules = consumers[spec.target];
    writer.u32(static_cast<std::uint32_t>(modules.size()));
    for (ModuleId m : modules) {  // ModuleIds ascend with sorted-name order
      const std::string& name = model.module_name(m);
      const auto it = token_of.find(std::string_view(name));
      writer.str(name);
      writer.u64(it == token_of.end() ? 0 : it->second);
    }
    prefixes.push_back(writer.take());
  }

  const std::size_t total =
      static_cast<std::size_t>(config.test_case_count) *
      config.injections.size();
  std::vector<std::uint64_t> fingerprints(total);
  for (std::size_t flat = 0; flat < total; ++flat) {
    const std::size_t inj = flat / config.test_case_count;
    const std::size_t tc = flat % config.test_case_count;
    ByteWriter writer;
    writer.u32(static_cast<std::uint32_t>(tc));
    writer.u64(injection_run_seed(config, flat));
    std::uint64_t fp = fnv1a64(prefixes[inj].data(),
                                      prefixes[inj].size());
    fp = fnv1a64(writer.bytes().data(), writer.bytes().size(), fp);
    // 0 is reserved for "not fingerprinted"; remap the (1 in 2^64) collision.
    fingerprints[flat] = fp == 0 ? 1 : fp;
  }
  return fingerprints;
}

}  // namespace propane::fi

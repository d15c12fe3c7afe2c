#include "fi/assertion_synthesis.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace propane::fi {

std::vector<SignalProfile> profile_signals(
    std::span<const TraceSet> goldens) {
  PROPANE_REQUIRE(!goldens.empty());
  const std::size_t signals = goldens.front().signal_count();
  std::vector<SignalProfile> profiles(signals);
  std::vector<bool> seen(signals, false);

  for (const TraceSet& golden : goldens) {
    PROPANE_REQUIRE(golden.signal_count() == signals);
    for (BusSignalId s = 0; s < signals; ++s) {
      SignalProfile& profile = profiles[s];
      std::uint16_t previous = 0;
      for (std::size_t ms = 0; ms < golden.sample_count(); ++ms) {
        const std::uint16_t value = golden.value(ms, s);
        if (!seen[s]) {
          profile.min = profile.max = value;
          seen[s] = true;
        } else {
          profile.min = std::min(profile.min, value);
          profile.max = std::max(profile.max, value);
          if (ms > 0) {
            const auto up = static_cast<std::uint16_t>(value - previous);
            const auto down = static_cast<std::uint16_t>(previous - value);
            profile.max_delta =
                std::max(profile.max_delta, std::min(up, down));
          }
        }
        previous = value;
      }
    }
  }
  return profiles;
}

namespace {

std::uint16_t saturating_sub(std::uint16_t a, std::uint16_t b) {
  return a > b ? static_cast<std::uint16_t>(a - b) : 0;
}

std::uint16_t saturating_add(std::uint16_t a, std::uint16_t b) {
  const std::uint32_t sum = static_cast<std::uint32_t>(a) + b;
  return sum > 0xFFFF ? 0xFFFF : static_cast<std::uint16_t>(sum);
}

std::uint16_t scaled_delta(const SignalProfile& profile,
                           const SynthesisOptions& options) {
  const double scaled =
      std::max(1.0, static_cast<double>(profile.max_delta)) *
      options.rate_factor;
  return scaled > 65535.0 ? std::uint16_t{0xFFFF}
                          : static_cast<std::uint16_t>(scaled);
}

bool is_wrapping(const SignalProfile& profile,
                 const SynthesisOptions& options) {
  return profile.wraps ||
         saturating_sub(profile.max, profile.min) >= options.wrap_span;
}

}  // namespace

void add_synthesized_edms(EdmMonitor& monitor, BusSignalId signal,
                          const SignalProfile& profile,
                          const SynthesisOptions& options) {
  if (!is_wrapping(profile, options)) {
    monitor.add(std::make_unique<RangeEdm>(
        signal, saturating_sub(profile.min, options.range_margin),
        saturating_add(profile.max, options.range_margin)));
  }
  monitor.add(
      std::make_unique<RateEdm>(signal, scaled_delta(profile, options)));
}

bool add_synthesized_erm(ErmHarness& harness, BusSignalId signal,
                         const SignalProfile& profile,
                         const SynthesisOptions& options) {
  if (is_wrapping(profile, options)) return false;
  harness.add(std::make_unique<HoldLastGoodErm>(
      signal, saturating_sub(profile.min, options.range_margin),
      saturating_add(profile.max, options.range_margin), profile.min));
  return true;
}

}  // namespace propane::fi

// V_REG: the valve regulator. Closes the pressure loop: compares the set
// point (SetValue, from CALC) with the measured pressure (InValue, from
// PRES_S) and produces the valve command OutValue. Feed-forward plus PI
// correction, integer arithmetic, anti-windup clamp. Period = 1 ms.
#pragma once

#include <cstdint>
#include <vector>

#include "arrestment/signals.hpp"
#include "fi/batched_bus.hpp"
#include "fi/signal_bus.hpp"

namespace propane::arr {

/// Code-version token for delta-campaign fingerprints (arr::module_version_tokens,
/// fi/delta_campaign.hpp). Bump on ANY behavioural change to this module, or
/// cached baseline records will be replayed as if still valid.
inline constexpr std::uint64_t kVRegVersion = 1;

class VRegModule {
 public:
  /// Explicit signal binding; lets the same regulator code serve the
  /// master node and (in the two-node configuration) the slave node.
  VRegModule(fi::BusSignalId set_value, fi::BusSignalId in_value,
             fi::BusSignalId out_value)
      : set_value_(set_value), in_value_(in_value), out_value_(out_value) {}
  explicit VRegModule(const BusMap& map)
      : VRegModule(map.set_value, map.in_value, map.out_value) {}

  void step(fi::SignalBus& bus);

  /// Integrator state (replication across batch lanes / convergence
  /// comparison).
  std::int32_t integrator() const { return integrator_; }

 private:
  fi::BusSignalId set_value_;
  fi::BusSignalId in_value_;
  fi::BusSignalId out_value_;
  std::int32_t integrator_ = 0;
};

/// Batched V_REG: one integrator per lane, updated over the bus lane rows
/// in a single vectorizable integer pass.
class BatchedVReg {
 public:
  BatchedVReg(const BusMap& map, const VRegModule& prototype,
              std::size_t lanes)
      : set_value_(map.set_value),
        in_value_(map.in_value),
        out_value_(map.out_value),
        integrator_(lanes, prototype.integrator()) {}

  /// Overwrites one lane's integrator with `prototype`'s, between ticks --
  /// how the batch kernel seeds a segment's golden lane from a golden-run
  /// state of its test case.
  void load_lane(std::size_t lane, const VRegModule& prototype) {
    integrator_[lane] = prototype.integrator();
  }

  /// Overwrites lane `dst`'s integrator with lane `src`'s (slot refill).
  void copy_lane(std::size_t dst, std::size_t src) {
    integrator_[dst] = integrator_[src];
  }

  void step_lanes(fi::BatchedSignalBus& bus);

  bool lane_equals(std::size_t a, std::size_t b) const {
    return integrator_[a] == integrator_[b];
  }

 private:
  fi::BusSignalId set_value_;
  fi::BusSignalId in_value_;
  fi::BusSignalId out_value_;
  std::vector<std::int32_t> integrator_;
};

}  // namespace propane::arr

// Structure-of-arrays signal bus for lockstep batched simulation.
//
// A batch simulates N near-identical runs ("lanes") of the same test case
// together. Where SignalBus stores one value per signal, BatchedSignalBus
// stores a contiguous *lane row* per signal -- value[signal][lane] -- so a
// batch-aware module update touches `lane_values(sig)[lane]` for every
// lane in one unit-stride pass the auto-vectorizer can take whole.
//
// Layout: signal-major. Row `sig` occupies values_[sig * lane_count ..],
// so per-signal sweeps (module updates, divergence checks against the
// golden lane) are unit-stride; per-lane accesses (extract_lane for trace
// materialisation, load_lane and copy_lane for segment seeding and slot
// refill) stride by lane_count and are only used off the hot path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "fi/signal_bus.hpp"

namespace propane::fi {

class BatchedSignalBus {
 public:
  /// Broadcasts `prototype`'s current values across `lane_count` lanes.
  /// All lanes start bit-identical; injections and divergence do the rest.
  BatchedSignalBus(const SignalBus& prototype, std::size_t lane_count)
      : signals_(prototype.signal_count()), lanes_(lane_count) {
    PROPANE_REQUIRE_MSG(lane_count > 0, "batch needs at least one lane");
    values_.resize(signals_ * lanes_);
    const std::span<const std::uint16_t> proto = prototype.values();
    for (std::size_t sig = 0; sig < signals_; ++sig) {
      std::uint16_t* row = values_.data() + sig * lanes_;
      for (std::size_t lane = 0; lane < lanes_; ++lane) {
        row[lane] = proto[sig];
      }
    }
  }

  std::size_t signal_count() const { return signals_; }
  std::size_t lane_count() const { return lanes_; }

  std::uint16_t read(BusSignalId id, std::size_t lane) const {
    PROPANE_REQUIRE(id < signals_);
    PROPANE_REQUIRE(lane < lanes_);
    return values_[id * lanes_ + lane];
  }
  /// Fault-injection poke, same contract as SignalBus::poke.
  void poke(BusSignalId id, std::size_t lane, std::uint16_t value) {
    PROPANE_REQUIRE_MSG(id < signals_, "poke target out of bus range");
    PROPANE_REQUIRE(lane < lanes_);
    values_[id * lanes_ + lane] = value;
  }

  /// The lane row of one signal: element `lane` is that lane's value.
  /// This is the batched module-update hot path.
  std::span<std::uint16_t> lane_values(BusSignalId id) {
    PROPANE_REQUIRE(id < signals_);
    return {values_.data() + id * lanes_, lanes_};
  }
  std::span<const std::uint16_t> lane_values(BusSignalId id) const {
    PROPANE_REQUIRE(id < signals_);
    return {values_.data() + id * lanes_, lanes_};
  }

  /// Copies one lane's value of every signal (id order) into `out`.
  /// Strided gather; used to materialise traces, not in vectorized inner
  /// loops.
  void extract_lane(std::size_t lane,
                    std::span<std::uint16_t> out) const {
    PROPANE_REQUIRE(lane < lanes_);
    PROPANE_REQUIRE_MSG(out.size() == signals_,
                        "extract span must match signal count");
    for (std::size_t sig = 0; sig < signals_; ++sig) {
      out[sig] = values_[sig * lanes_ + lane];
    }
  }

  /// Copies every signal of lane `src` into lane `dst` (refilling a
  /// retired batch slot from its golden lane).
  void copy_lane(std::size_t dst, std::size_t src) {
    PROPANE_REQUIRE(dst < lanes_ && src < lanes_);
    for (std::size_t sig = 0; sig < signals_; ++sig) {
      values_[sig * lanes_ + dst] = values_[sig * lanes_ + src];
    }
  }

  /// Scatters `in` (one value per signal, id order) into one lane.
  void load_lane(std::size_t lane, std::span<const std::uint16_t> in) {
    PROPANE_REQUIRE(lane < lanes_);
    PROPANE_REQUIRE_MSG(in.size() == signals_,
                        "load span must match signal count");
    for (std::size_t sig = 0; sig < signals_; ++sig) {
      values_[sig * lanes_ + lane] = in[sig];
    }
  }

 private:
  std::size_t signals_;
  std::size_t lanes_;
  std::vector<std::uint16_t> values_;
};

}  // namespace propane::fi

// The signal bus: a blackboard of named 16-bit signals.
//
// The paper's system model (Section 3) has modules communicating through
// signals realised as shared memory. The bus *is* that shared memory: each
// signal is one 16-bit variable, producers write it, consumers read it, and
// stateful signals (counters such as pulscnt or mscnt) are read-modified-
// written in place -- which is exactly why a bit-flip injected into such a
// variable persists until the producer fully overwrites it, as in the real
// software.
//
// The bus is also the instrumentation point ("the target system was
// instrumented with high-level software traps", Section 7.3): injections
// poke the stored value, and the trace recorder samples every signal once
// per millisecond.
//
// read/write/poke/snapshot_into are the per-tick hot path of every
// simulated run, so they are defined inline here; a campaign performs
// billions of them.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"

namespace propane::fi {

/// Index of a signal on the bus.
using BusSignalId = std::uint32_t;

class SignalBus {
 public:
  /// Registers a signal; names must be unique and non-empty.
  BusSignalId add_signal(std::string name, std::uint16_t initial = 0);

  std::size_t signal_count() const { return values_.size(); }
  const std::string& name(BusSignalId id) const;
  /// All signal names in id order.
  const std::vector<std::string>& names() const { return names_; }
  /// Linear scan: a bus holds a few dozen signals, and no hot path looks a
  /// name up.
  std::optional<BusSignalId> find(std::string_view name) const;

  /// Producer-side write.
  void write(BusSignalId id, std::uint16_t value) {
    PROPANE_REQUIRE(id < values_.size());
    values_[id] = value;
  }
  /// Consumer-side read.
  std::uint16_t read(BusSignalId id) const {
    PROPANE_REQUIRE(id < values_.size());
    return values_[id];
  }

  /// Fault-injection poke: overwrites the stored variable, bypassing any
  /// producer. Functionally identical to write(), kept separate so call
  /// sites document intent and tooling can hook it. Carries its own bounds
  /// contract (not just via write) so an injection spec targeting a signal
  /// that does not exist on this bus fails loudly at the poke site.
  void poke(BusSignalId id, std::uint16_t value) {
    PROPANE_REQUIRE_MSG(id < values_.size(),
                        "poke target out of bus range");
    values_[id] = value;
  }

  /// Copies every signal value (id order) into `out`, which must span
  /// exactly signal_count() values. This is the trace recorder's per-sample
  /// path: one memcpy, zero allocations.
  void snapshot_into(std::span<std::uint16_t> out) const {
    PROPANE_REQUIRE_MSG(out.size() == values_.size(),
                        "snapshot span must match signal count");
    if (!values_.empty()) {
      std::memcpy(out.data(), values_.data(),
                  values_.size() * sizeof(std::uint16_t));
    }
  }

  /// Direct view of every signal value in id order; valid until the next
  /// add_signal. The trace recorder appends this span per sample.
  std::span<const std::uint16_t> values() const { return values_; }

  /// Allocating snapshot of all signal values in id order (one trace
  /// sample). Convenience for tests; hot paths use values()/snapshot_into().
  std::vector<std::uint16_t> snapshot() const { return values_; }

  /// Resets every signal to the initial value it was registered with.
  void reset();

 private:
  std::vector<std::uint16_t> values_;
  std::vector<std::uint16_t> initial_;
  std::vector<std::string> names_;
};

}  // namespace propane::fi

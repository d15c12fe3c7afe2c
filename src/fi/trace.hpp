// Execution traces: one sample per signal per millisecond (the paper's
// traces "have millisecond resolution for every logged variable",
// Section 7.3).
//
// Storage is a single contiguous row-major buffer (row = one millisecond,
// column = one bus signal): recording a sample is one memcpy into
// pre-reserved space -- zero per-sample heap allocations -- and the
// golden-run comparison can scan whole runs with memcmp. Signal names are
// shared through an interned, reference-counted name table, so the
// thousands of runs of a campaign carry one set of strings instead of one
// copy each.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fi/signal_bus.hpp"

namespace propane::fi {

/// Immutable, shareable list of signal names (bus registration order).
using SignalNameTable = std::shared_ptr<const std::vector<std::string>>;

/// Returns a name table for `names`, deduplicated process-wide: callers
/// registering the same name list (every run of a campaign does) receive
/// the same table. Thread-safe.
SignalNameTable intern_signal_names(std::vector<std::string> names);

/// A complete run trace: value(t, s) is the value of bus signal s at the
/// end of millisecond t. Signal order matches the bus registration order.
class TraceSet {
 public:
  TraceSet() = default;
  explicit TraceSet(std::vector<std::string> signal_names);
  explicit TraceSet(SignalNameTable signal_names);

  std::size_t signal_count() const { return width_; }
  std::size_t sample_count() const { return rows_; }
  const std::string& signal_name(BusSignalId id) const;
  const SignalNameTable& names() const { return names_; }

  /// Pre-allocates space for `samples` rows; subsequent appends up to that
  /// count perform no heap allocation.
  void reserve(std::size_t samples);

  /// Appends one sample row (must match signal_count()). Inline: this is
  /// the recorder's per-sample path, a bounds check plus one memcpy-class
  /// insert into pre-reserved storage.
  void append(std::span<const std::uint16_t> row) {
    PROPANE_REQUIRE_MSG(row.size() == width_,
                        "sample width must match signal count");
    samples_.insert(samples_.end(), row.begin(), row.end());
    ++rows_;
  }
  void append(std::initializer_list<std::uint16_t> row);
  /// Appends a block of complete rows in one go (size must be a multiple
  /// of signal_count()); used to seed a trace with a checkpointed prefix.
  void append_rows(std::span<const std::uint16_t> values);

  std::uint16_t value(std::size_t ms, BusSignalId id) const {
    PROPANE_REQUIRE(ms < rows_);
    PROPANE_REQUIRE(id < width_);
    return samples_[ms * width_ + id];
  }
  /// One sample row: all signal values at millisecond `ms`.
  std::span<const std::uint16_t> row(std::size_t ms) const {
    PROPANE_REQUIRE(ms < rows_);
    return {samples_.data() + ms * width_, width_};
  }
  /// The full row-major sample buffer (sample_count() * signal_count()
  /// values); contiguous, so comparisons can run memcmp over it.
  const std::uint16_t* data() const { return samples_.data(); }

  /// Full column for one signal.
  std::vector<std::uint16_t> series(BusSignalId id) const;

 private:
  SignalNameTable names_;
  std::size_t width_ = 0;
  std::size_t rows_ = 0;
  std::vector<std::uint16_t> samples_;  // row-major, rows_ x width_
};

/// Samples a SignalBus into a TraceSet once per call.
class TraceRecorder {
 public:
  /// `reserve_samples` pre-allocates the trace so that many samples record
  /// allocation-free (pass the run duration in milliseconds).
  explicit TraceRecorder(const SignalBus& bus, std::size_t reserve_samples = 0);

  /// Records the current bus state as the next millisecond sample: one
  /// inlined range-insert of the bus's value array, no zero-fill, no
  /// allocation once the trace is reserved.
  void sample() { trace_.append(bus_.values()); }

  const TraceSet& trace() const { return trace_; }
  TraceSet take() { return std::move(trace_); }

 private:
  const SignalBus& bus_;
  TraceSet trace_;
};

}  // namespace propane::fi

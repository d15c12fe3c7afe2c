// Golden Run Comparison (Section 6).
//
// "A Golden Run is a trace of the system executing without any injections
// being made ... All traces obtained from the injection runs are compared
// to the GR, and any difference indicates that an error has occurred."
// Per Section 7.3 the comparison of a signal stops at the first difference;
// we record that first-divergence timestamp, which the estimator's
// direct-error attribution relies on. A report holds exactly what a
// journal record stores (store/record_codec.hpp) -- the diverged signals
// only -- so the in-memory form is the journal form: encoding copies its
// entries and decoding appends them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "common/contracts.hpp"
#include "fi/trace.hpp"

namespace propane::fi {

/// First divergence of one signal between golden and injection run.
struct Divergence {
  bool diverged = false;
  /// Millisecond of the first differing sample (valid when diverged).
  std::uint64_t first_ms = 0;
  /// Values at the first difference (valid when diverged).
  std::uint16_t golden_value = 0;
  std::uint16_t observed_value = 0;
};

/// One diverged signal of a report: the fields a journal record stores for
/// it (store/record_codec.hpp).
struct DivergenceEntry {
  std::uint64_t first_ms = 0;
  std::uint32_t signal = 0;  // BusSignalId
  std::uint16_t golden_value = 0;
  std::uint16_t observed_value = 0;

  bool operator==(const DivergenceEntry&) const = default;
};

/// Divergence report for one injection run, in the journal's own form: the
/// bus width plus one entry per diverged signal, in ascending signal order.
/// Comparison stops at each signal's first difference (Section 7.3), so
/// that is the whole outcome of a run. A clean run holds no heap block; a
/// diverged one holds one, reserved for the bus width at its first
/// divergence. A default-constructed report has bus width 0 and covers no
/// signal, so the estimator and the journal decoder both reject it.
class DivergenceReport {
 public:
  /// Read view indexed by BusSignalId: size() is the bus width and [s]
  /// signal s's Divergence by value (all zero when s never diverged). It
  /// has no begin()/end(); the diverged signals are reached through
  /// DivergenceReport::diverged().
  class SignalView {
   public:
    std::size_t size() const { return signal_count_; }
    Divergence operator[](std::size_t signal) const {
      PROPANE_REQUIRE(signal < signal_count_);
      const auto it = std::ranges::lower_bound(entries_, signal, {},
                                               &DivergenceEntry::signal);
      if (it == entries_.end() || it->signal != signal) return {};
      return {true, it->first_ms, it->golden_value, it->observed_value};
    }

   private:
    friend class DivergenceReport;
    std::uint32_t signal_count_ = 0;
    std::vector<DivergenceEntry> entries_;  // ascending signal
  };

  DivergenceReport() = default;
  /// A clean report over a bus of `signal_count` signals.
  explicit DivergenceReport(std::size_t signal_count);

  /// Records `signal`'s first divergence, in any signal order. A signal
  /// outside the bus or one already noted is a contract violation.
  void note(std::size_t signal, std::uint64_t first_ms,
            std::uint16_t golden_value, std::uint16_t observed_value);
  /// Sizes the heap block for `entries` diverged signals up front (the
  /// journal decoder knows the exact count).
  void reserve(std::size_t entries) { per_signal.entries_.reserve(entries); }

  /// The diverged signals, ascending.
  std::span<const DivergenceEntry> diverged() const {
    return per_signal.entries_;
  }
  bool any_divergence() const { return !per_signal.entries_.empty(); }
  std::size_t divergence_count() const { return per_signal.entries_.size(); }

  SignalView per_signal;
};

/// Compares an injection-run trace against the golden run. Both traces
/// must cover the same signals; if the runs have different lengths (e.g.
/// the error changed the stop time) the common prefix is compared and any
/// extra/missing samples count as a divergence at the first uncovered
/// millisecond.
///
/// The identical prefix (everything before the injection fires, and the
/// whole trace when the error was overwritten without effect) is skipped
/// with contiguous memcmp chunk scans over the flat trace storage;
/// per-signal first divergences are resolved only from the first differing
/// row onward. Semantics are exactly the per-signal stop-at-first-
/// difference comparison of Section 7.3.
DivergenceReport compare_to_golden(const TraceSet& golden,
                                   const TraceSet& injected);

}  // namespace propane::fi

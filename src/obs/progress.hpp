// Live campaign progress HUD.
//
// The HUD holds no counters of its own: it resolves the registry's
// campaign.runs.{injection,skipped,diverged}, delta.hits and
// journal.append.bytes counters once and renders from them. Whoever
// drives the campaign calls maybe_render(); a throttle lets roughly two
// frames per second through, and the thread that wins it renders one
// carriage-return-overwritten stderr line:
//
//   [campaign] 1234/4000 runs 30.9% | 412.3 runs/s | ETA 7s | div 12.4% |
//   journal 3.1 MB
//
// The HUD auto-disables when the output stream is not a TTY (so piped or
// CI output stays clean) and can be forced on/off by the CLI flags. It is
// pure observation: disabling it changes nothing about the campaign.
#pragma once

#include <cstdio>
#include <mutex>
#include <string>

#include "obs/clock.hpp"
#include "obs/metrics.hpp"

namespace propane::obs {

class ProgressReporter {
 public:
  struct Options {
    /// Runs the campaign plans; the one figure the registry cannot know.
    std::size_t total_runs = 0;
    /// Minimum microseconds between frames (~2 Hz default).
    std::uint64_t min_interval_us = 500'000;
    /// Render even when `out` is not a TTY (tests, explicit --progress).
    bool force = false;
    /// Destination stream; null selects stderr.
    std::FILE* out = nullptr;
  };

  /// Resolves the HUD's counters in `metrics`, which must outlive it.
  ProgressReporter(MetricsRegistry& metrics, const Options& options);
  ~ProgressReporter();

  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  /// False when the destination is not a TTY and force was off; rendering
  /// is then a no-op (snapshot() still works).
  bool enabled() const { return enabled_; }

  struct Snapshot {
    std::size_t completed = 0;  // executed this session
    std::size_t skipped = 0;    // journaled, foreign or replayed
    std::size_t replayed = 0;   // cache hits copied from a baseline
    std::size_t diverged = 0;
    std::size_t total = 0;
    std::uint64_t journal_bytes = 0;  // appended this session
    double elapsed_s = 0.0;
    double runs_per_s = 0.0;      // executed / elapsed
    double eta_s = 0.0;           // remaining / runs_per_s (0 when unknown)
    double divergence_rate = 0.0; // diverged / completed
  };
  Snapshot snapshot() const;

  /// The current HUD line (no \r / escape codes) -- exposed for tests.
  std::string render_line() const;

  /// Renders a frame if at least min_interval_us passed since the last.
  void maybe_render();
  /// Renders the final frame and moves to a fresh line. Idempotent; runs
  /// automatically on destruction.
  void finish();

 private:
  const Counter& executed_;
  const Counter& skipped_;
  const Counter& diverged_;
  const Counter& replayed_;
  const Counter& journal_bytes_;
  std::size_t total_;
  bool enabled_;
  std::FILE* out_;
  Throttle throttle_;
  std::uint64_t started_us_;
  std::mutex render_mu_;
  bool finished_ = false;  // guarded by render_mu_
};

}  // namespace propane::obs

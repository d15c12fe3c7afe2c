// The telemetry bundle threaded through the fault-injection stack.
//
// Components (ThreadPool, fi::run_campaign, the journal writers) accept a
// `const Telemetry*`; null -- or a bundle whose members are null -- is the
// disabled state. Instrumentation sites resolve metric handles once at
// setup and keep raw pointers, so the per-event cost when disabled is one
// pointer test (the "null-sink fast path").
//
// The registry is the one source of every count. Events describe what the
// engine executes -- golden runs, kernel requests, sessions -- never one
// line per injection run, so the log grows with requests, not runs. The
// progress HUD reads the same registry and is only rendered here.
//
// Telemetry is strictly observation-only. Nothing read from these objects
// may feed back into run scheduling, RNG seeding or any other input of the
// campaign: a telemetry-enabled campaign must produce bit-identical
// results to a disabled one (tests/integration enforces this for the
// permeability CSV).
#pragma once

#include "obs/metrics.hpp"
#include "obs/ndjson.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"

namespace propane::obs {

struct Telemetry {
  MetricsRegistry* metrics = nullptr;
  EventSink* events = nullptr;
  /// Live HUD over `metrics`; run_campaign renders it (throttled) after
  /// the golden phase and after each request.
  ProgressReporter* progress = nullptr;

  bool enabled() const {
    return metrics != nullptr || events != nullptr || progress != nullptr;
  }
};

/// Null-safe handle resolution: instrumentation sites call these once and
/// keep the (possibly null) raw pointer.
inline Counter* find_counter(const Telemetry* t, std::string_view name) {
  return (t != nullptr && t->metrics != nullptr) ? &t->metrics->counter(name)
                                                 : nullptr;
}
inline Gauge* find_gauge(const Telemetry* t, std::string_view name) {
  return (t != nullptr && t->metrics != nullptr) ? &t->metrics->gauge(name)
                                                 : nullptr;
}
inline Histogram* find_histogram(const Telemetry* t, std::string_view name,
                                 std::vector<double> upper_bounds) {
  return (t != nullptr && t->metrics != nullptr)
             ? &t->metrics->histogram(name, std::move(upper_bounds))
             : nullptr;
}

/// Null-safe event emission.
inline void emit_event(const Telemetry* t, std::string name,
                       std::vector<Field> fields = {}) {
  if (t != nullptr && t->events != nullptr) {
    t->events->emit(make_event(std::move(name), std::move(fields)));
  }
}

/// Null-safe throttled HUD frame.
inline void render_progress(const Telemetry* t) {
  if (t != nullptr && t->progress != nullptr) t->progress->maybe_render();
}

}  // namespace propane::obs

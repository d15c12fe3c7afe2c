// Scoped tracing spans: steady-clock RAII timers with nesting.
//
// A Span measures the wall time of a scope on the worker thread that runs
// it. Nesting is tracked per thread: a span opened while another is active
// records that span as its parent, so offline analysis can rebuild the
// call structure (campaign > golden/injection phase). A finished span is
// streamed as one "span" event to the bundle's event sink; with no sink a
// Span records nothing.
//
// Span ids come from one process-wide counter: a campaign's trace is the
// single NDJSON stream its process wrote, so ids never need namespacing
// across processes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/ndjson.hpp"

namespace propane::obs {

/// Small dense per-thread ordinal (0 = first thread that asked). Stable
/// for the thread's lifetime; used as the "tid" of spans and trace events
/// so per-thread tracks stay readable (raw pthread ids are neither small
/// nor dense).
std::uint32_t thread_ordinal();

struct Telemetry;

/// RAII scope timer. Construction with a bundle that has no event sink is
/// a no-op (two pointer loads); nothing is recorded on destruction.
class Span {
 public:
  Span(const Telemetry* telemetry, std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool enabled() const { return events_ != nullptr; }
  std::uint64_t id() const { return id_; }

 private:
  EventSink* events_ = nullptr;
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t start_us_ = 0;
};

}  // namespace propane::obs

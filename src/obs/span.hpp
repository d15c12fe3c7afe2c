// Scoped tracing spans: steady-clock RAII timers with nesting.
//
// A Span measures the wall time of a scope on the worker thread that runs
// it. Nesting is tracked per thread: a span opened while another is active
// records that span as its parent, so offline analysis can rebuild the
// call structure (campaign > injection_phase > run). Finished spans land
// in a bounded ring buffer (newest kept, oldest dropped, drops counted)
// and, when an event sink is attached, are also streamed as "span" events.
//
// Span ids are unique within one SpanBuffer, which is one process's
// telemetry: a campaign's trace is the single NDJSON stream its process
// wrote, so ids never need namespacing across processes.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/ndjson.hpp"

namespace propane::obs {

struct FinishedSpan {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;  // 0 = root span
  std::uint32_t depth = 0;      // 0 = root
  std::uint32_t tid = 0;        // thread_ordinal() of the emitting thread
  std::uint64_t start_us = 0;
  std::uint64_t duration_us = 0;
};

/// Small dense per-thread ordinal (0 = first thread that asked). Stable
/// for the thread's lifetime; used as the "tid" of spans and trace events
/// so per-thread tracks stay readable (raw pthread ids are neither small
/// nor dense).
std::uint32_t thread_ordinal();

/// Bounded, thread-safe buffer of finished spans in completion order.
/// When full, the oldest span is evicted (a live HUD or post-mortem wants
/// the most recent activity) and the eviction is counted.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::size_t capacity = 4096);
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  void push(FinishedSpan span);
  /// Copy of the buffered spans, oldest first.
  std::vector<FinishedSpan> snapshot() const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::uint64_t next_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

 private:
  mutable std::mutex mu_;
  std::size_t capacity_;
  std::deque<FinishedSpan> spans_;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> ids_{0};
};

struct Telemetry;

/// RAII scope timer. Construction with a null/disabled telemetry bundle is
/// a no-op (two pointer loads); nothing is recorded on destruction.
class Span {
 public:
  Span(const Telemetry* telemetry, std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool enabled() const { return buffer_ != nullptr || events_ != nullptr; }
  std::uint64_t id() const { return id_; }

 private:
  SpanBuffer* buffer_ = nullptr;
  EventSink* events_ = nullptr;
  std::string name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_id_ = 0;
  std::uint32_t depth_ = 0;
  std::uint64_t start_us_ = 0;
};

/// Publishes the span buffer's occupancy and drop-oldest eviction count as
/// gauges (obs.spans.buffered / obs.spans.dropped) so they surface in the
/// metrics JSON snapshot and `campaign top`. No-op unless the bundle has
/// both a span buffer and a metrics registry.
void publish_span_stats(const Telemetry* telemetry);

}  // namespace propane::obs

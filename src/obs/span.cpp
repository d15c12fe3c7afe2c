#include "obs/span.hpp"

#include "obs/clock.hpp"
#include "obs/telemetry.hpp"

namespace propane::obs {

namespace {

/// Active-span stack of the current thread; back() is the innermost span.
thread_local std::vector<std::uint64_t> t_active_spans;

/// Id source for spans recorded without a buffer (event-sink only).
std::atomic<std::uint64_t> g_fallback_ids{0};

std::vector<Field> span_event_fields(const std::string& name,
                                     std::uint64_t id, std::uint64_t parent_id,
                                     std::uint32_t depth, std::uint32_t tid,
                                     std::uint64_t start_us,
                                     std::uint64_t duration_us) {
  return {{"name", Value(name)},         {"id", Value(id)},
          {"parent_id", Value(parent_id)}, {"depth", Value(depth)},
          {"tid", Value(tid)},           {"start_us", Value(start_us)},
          {"dur_us", Value(duration_us)}};
}

}  // namespace

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

SpanBuffer::SpanBuffer(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SpanBuffer::push(FinishedSpan span) {
  std::lock_guard lock(mu_);
  if (spans_.size() == capacity_) {
    spans_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  spans_.push_back(std::move(span));
}

std::vector<FinishedSpan> SpanBuffer::snapshot() const {
  std::lock_guard lock(mu_);
  return {spans_.begin(), spans_.end()};
}

std::size_t SpanBuffer::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

Span::Span(const Telemetry* telemetry, std::string_view name) {
  if (telemetry == nullptr ||
      (telemetry->spans == nullptr && telemetry->events == nullptr)) {
    return;  // disabled: destructor sees null buffer_ and events_
  }
  buffer_ = telemetry->spans;
  events_ = telemetry->events;
  name_ = name;
  id_ = buffer_ != nullptr
            ? buffer_->next_id()
            : g_fallback_ids.fetch_add(1, std::memory_order_relaxed) + 1;
  parent_id_ = t_active_spans.empty() ? 0 : t_active_spans.back();
  depth_ = static_cast<std::uint32_t>(t_active_spans.size());
  t_active_spans.push_back(id_);
  start_us_ = steady_now_us();
}

Span::~Span() {
  if (!enabled()) return;
  const std::uint64_t duration = steady_now_us() - start_us_;
  t_active_spans.pop_back();
  const std::uint32_t tid = thread_ordinal();
  if (buffer_ != nullptr) {
    buffer_->push(FinishedSpan{name_, id_, parent_id_, depth_, tid, start_us_,
                               duration});
  }
  if (events_ != nullptr) {
    events_->emit(make_event(
        "span", span_event_fields(name_, id_, parent_id_, depth_, tid,
                                  start_us_, duration)));
  }
}

void publish_span_stats(const Telemetry* telemetry) {
  if (telemetry == nullptr || telemetry->spans == nullptr ||
      telemetry->metrics == nullptr) {
    return;
  }
  telemetry->metrics->gauge("obs.spans.buffered")
      .set(static_cast<double>(telemetry->spans->size()));
  telemetry->metrics->gauge("obs.spans.dropped")
      .set(static_cast<double>(telemetry->spans->dropped()));
}

}  // namespace propane::obs

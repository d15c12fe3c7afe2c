#include "obs/span.hpp"

#include <atomic>
#include <vector>

#include "obs/clock.hpp"
#include "obs/telemetry.hpp"

namespace propane::obs {

namespace {

/// Active-span stack of the current thread; back() is the innermost span.
thread_local std::vector<std::uint64_t> t_active_spans;

/// The process's span id source; 0 is reserved for "no parent".
std::atomic<std::uint64_t> g_span_ids{0};

}  // namespace

std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

Span::Span(const Telemetry* telemetry, std::string_view name) {
  if (telemetry == nullptr || telemetry->events == nullptr) {
    return;  // disabled: destructor sees null events_
  }
  events_ = telemetry->events;
  name_ = name;
  id_ = g_span_ids.fetch_add(1, std::memory_order_relaxed) + 1;
  parent_id_ = t_active_spans.empty() ? 0 : t_active_spans.back();
  depth_ = static_cast<std::uint32_t>(t_active_spans.size());
  t_active_spans.push_back(id_);
  start_us_ = steady_now_us();
}

Span::~Span() {
  if (!enabled()) return;
  const std::uint64_t duration = steady_now_us() - start_us_;
  t_active_spans.pop_back();
  events_->emit(make_event(
      "span", {{"name", Value(name_)},
               {"id", Value(id_)},
               {"parent_id", Value(parent_id_)},
               {"depth", Value(depth_)},
               {"tid", Value(thread_ordinal())},
               {"start_us", Value(start_us_)},
               {"dur_us", Value(duration)}}));
}

}  // namespace propane::obs

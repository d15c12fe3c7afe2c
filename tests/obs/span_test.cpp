// Scoped spans: per-thread nesting, completion ordering, the no-sink no-op
// path, the streamed "span" event and id uniqueness under concurrency.
// Spans are observed through a capturing EventSink, the way the campaign's
// NDJSON log sees them.
#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace propane::obs {
namespace {

/// Keeps every emitted event; thread-safe like any EventSink.
class CapturingSink : public EventSink {
 public:
  void emit(const Event& event) override {
    std::lock_guard lock(mu_);
    events_.push_back(event);
  }
  std::vector<Event> events() const {
    std::lock_guard lock(mu_);
    return events_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// One finished span, read back from its "span" event.
struct SpanRow {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent_id = 0;
  std::uint64_t depth = 0;
  std::uint64_t tid = 0;
  std::uint64_t start_us = 0;
  std::uint64_t dur_us = 0;
};

std::vector<SpanRow> spans_of(const CapturingSink& sink) {
  std::vector<SpanRow> rows;
  for (const Event& event : sink.events()) {
    if (event.name != "span") continue;
    SpanRow row;
    for (const Field& field : event.fields) {
      if (field.key == "name") row.name = field.value.as_string();
      if (field.key == "id") row.id = field.value.as_uint();
      if (field.key == "parent_id") row.parent_id = field.value.as_uint();
      if (field.key == "depth") row.depth = field.value.as_uint();
      if (field.key == "tid") row.tid = field.value.as_uint();
      if (field.key == "start_us") row.start_us = field.value.as_uint();
      if (field.key == "dur_us") row.dur_us = field.value.as_uint();
    }
    rows.push_back(row);
  }
  return rows;
}

TEST(Span, NullTelemetryIsANoop) {
  Span null_span(nullptr, "nothing");
  EXPECT_FALSE(null_span.enabled());

  Telemetry empty;  // all members null: still disabled
  Span empty_span(&empty, "nothing");
  EXPECT_FALSE(empty_span.enabled());

  MetricsRegistry metrics;
  Telemetry metrics_only{&metrics, nullptr, nullptr};  // no sink: no span
  Span metrics_span(&metrics_only, "nothing");
  EXPECT_FALSE(metrics_span.enabled());
  EXPECT_EQ(metrics_span.id(), 0u);
}

TEST(Span, NestedSpansRecordParentAndDepth) {
  CapturingSink sink;
  Telemetry telemetry;
  telemetry.events = &sink;
  {
    Span outer(&telemetry, "outer");
    {
      Span middle(&telemetry, "middle");
      Span inner(&telemetry, "inner");
      EXPECT_NE(inner.id(), middle.id());
    }
  }
  // Completion order: innermost scopes close first.
  const std::vector<SpanRow> spans = spans_of(sink);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "middle");
  EXPECT_EQ(spans[2].name, "outer");
  EXPECT_EQ(spans[2].parent_id, 0u);
  EXPECT_EQ(spans[2].depth, 0u);
  EXPECT_EQ(spans[1].parent_id, spans[2].id);
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_EQ(spans[0].parent_id, spans[1].id);
  EXPECT_EQ(spans[0].depth, 2u);
}

TEST(Span, SiblingSpansShareAParent) {
  CapturingSink sink;
  Telemetry telemetry;
  telemetry.events = &sink;
  {
    Span parent(&telemetry, "parent");
    { Span first(&telemetry, "first"); }
    { Span second(&telemetry, "second"); }
  }
  const std::vector<SpanRow> spans = spans_of(sink);
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent_id, spans[2].id);
  EXPECT_EQ(spans[1].parent_id, spans[2].id);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].depth, 1u);
}

TEST(Span, NestingIsPerThread) {
  CapturingSink sink;
  Telemetry telemetry;
  telemetry.events = &sink;
  {
    Span outer(&telemetry, "outer");
    std::thread worker([&] {
      // A span on another thread has no active parent there.
      Span detached(&telemetry, "detached");
    });
    worker.join();
  }
  bool saw_detached = false;
  for (const SpanRow& span : spans_of(sink)) {
    if (span.name == "detached") {
      saw_detached = true;
      EXPECT_EQ(span.parent_id, 0u);
      EXPECT_EQ(span.depth, 0u);
    }
  }
  EXPECT_TRUE(saw_detached);
}

TEST(Span, EmitsSpanEventsWhenSinkAttached) {
  std::ostringstream out;
  NdjsonSink sink(out);
  Telemetry telemetry;
  telemetry.events = &sink;
  { Span span(&telemetry, "timed"); }
  const auto fields = parse_flat_json_object(out.str().substr(
      0, out.str().find('\n')));
  ASSERT_TRUE(fields.has_value());
  bool saw_name = false;
  for (const Field& field : *fields) {
    if (field.key == "name") {
      EXPECT_EQ(field.value.as_string(), "timed");
      saw_name = true;
    }
  }
  EXPECT_TRUE(saw_name);
}

TEST(Span, DurationsAreOrderedByInclusion) {
  CapturingSink sink;
  Telemetry telemetry;
  telemetry.events = &sink;
  {
    Span outer(&telemetry, "outer");
    { Span inner(&telemetry, "inner"); }
  }
  const std::vector<SpanRow> spans = spans_of(sink);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_LE(spans[0].dur_us, spans[1].dur_us);
  EXPECT_GE(spans[0].start_us, spans[1].start_us);
}

TEST(Span, RecordsTheEmittingThreadOrdinal) {
  CapturingSink sink;
  Telemetry telemetry;
  telemetry.events = &sink;
  { Span here(&telemetry, "here"); }
  std::thread other([&] { Span there(&telemetry, "there"); });
  other.join();
  const std::vector<SpanRow> spans = spans_of(sink);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST(Span, ConcurrentSpansGetDistinctIds) {
  // Exercised under TSan in CI: threads open and close spans at once, all
  // streaming into one sink.
  CapturingSink sink;
  Telemetry telemetry;
  telemetry.events = &sink;
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        Span span(&telemetry, "worker");
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::vector<SpanRow> spans = spans_of(sink);
  ASSERT_EQ(spans.size(),
            static_cast<std::size_t>(kThreads * kSpansPerThread));
  std::set<std::uint64_t> ids;
  for (const SpanRow& span : spans) {
    EXPECT_NE(span.id, 0u);
    EXPECT_EQ(span.parent_id, 0u);
    ids.insert(span.id);
  }
  EXPECT_EQ(ids.size(), spans.size());
}

}  // namespace
}  // namespace propane::obs

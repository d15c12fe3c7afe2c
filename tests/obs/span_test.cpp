// Scoped spans: per-thread nesting, completion ordering, the bounded
// buffer's drop-oldest policy, the null-telemetry no-op path, span stats
// and concurrent push/snapshot safety.
#include "obs/span.hpp"

#include <atomic>
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace propane::obs {
namespace {

TEST(Span, NullTelemetryIsANoop) {
  Span null_span(nullptr, "nothing");
  EXPECT_FALSE(null_span.enabled());

  Telemetry empty;  // all members null: still disabled
  Span empty_span(&empty, "nothing");
  EXPECT_FALSE(empty_span.enabled());
}

TEST(Span, NestedSpansRecordParentAndDepth) {
  SpanBuffer buffer;
  Telemetry telemetry;
  telemetry.spans = &buffer;
  {
    Span outer(&telemetry, "outer");
    {
      Span middle(&telemetry, "middle");
      Span inner(&telemetry, "inner");
      EXPECT_NE(inner.id(), middle.id());
    }
  }
  // Completion order: innermost scopes close first.
  const std::vector<FinishedSpan> spans = buffer.snapshot();
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
  SpanBuffer buffer;
  Telemetry telemetry;
  telemetry.spans = &buffer;
  {
    Span parent(&telemetry, "parent");
    { Span first(&telemetry, "first"); }
    { Span second(&telemetry, "second"); }
  }
  const std::vector<FinishedSpan> spans = buffer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent_id, spans[2].id);
  EXPECT_EQ(spans[1].parent_id, spans[2].id);
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].depth, 1u);
}

TEST(Span, NestingIsPerThread) {
  SpanBuffer buffer;
  Telemetry telemetry;
  telemetry.spans = &buffer;
  {
    Span outer(&telemetry, "outer");
    std::thread worker([&] {
      // A span on another thread has no active parent there.
      Span detached(&telemetry, "detached");
    });
    worker.join();
  }
  for (const FinishedSpan& span : buffer.snapshot()) {
    if (span.name == "detached") {
      EXPECT_EQ(span.parent_id, 0u);
      EXPECT_EQ(span.depth, 0u);
    }
  }
}

TEST(SpanBuffer, DropsOldestWhenFull) {
  SpanBuffer buffer(2);
  buffer.push(FinishedSpan{.name = "a"});
  buffer.push(FinishedSpan{.name = "b"});
  buffer.push(FinishedSpan{.name = "c"});
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.dropped(), 1u);
  const std::vector<FinishedSpan> spans = buffer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "b");
  EXPECT_EQ(spans[1].name, "c");
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
  SpanBuffer buffer;
  Telemetry telemetry;
  telemetry.spans = &buffer;
  {
    Span outer(&telemetry, "outer");
    { Span inner(&telemetry, "inner"); }
  }
  const std::vector<FinishedSpan> spans = buffer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_LE(spans[0].duration_us, spans[1].duration_us);
  EXPECT_GE(spans[0].start_us, spans[1].start_us);
}

TEST(Span, RecordsTheEmittingThreadOrdinal) {
  SpanBuffer buffer;
  Telemetry telemetry;
  telemetry.spans = &buffer;
  { Span here(&telemetry, "here"); }
  std::thread other([&] { Span there(&telemetry, "there"); });
  other.join();
  const std::vector<FinishedSpan> spans = buffer.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_NE(spans[0].tid, spans[1].tid);
}

TEST(Span, PublishSpanStatsExportsGauges) {
  MetricsRegistry metrics;
  SpanBuffer buffer(2);
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  telemetry.spans = &buffer;
  buffer.push(FinishedSpan{.name = "a"});
  buffer.push(FinishedSpan{.name = "b"});
  buffer.push(FinishedSpan{.name = "c"});  // evicts "a"
  publish_span_stats(&telemetry);
  const MetricsSnapshot snapshot = metrics.snapshot();
  EXPECT_EQ(snapshot.gauges.at("obs.spans.buffered"), 2.0);
  EXPECT_EQ(snapshot.gauges.at("obs.spans.dropped"), 1.0);
  // The gauges ride the same snapshot the CLI serialises, so drop-oldest
  // evictions surface in the metrics JSON.
  EXPECT_NE(metrics_snapshot_to_json(snapshot).find("obs.spans.dropped"),
            std::string::npos);
  publish_span_stats(nullptr);  // null bundle: no-op
}

TEST(SpanBuffer, ConcurrentPushAndSnapshotKeepEveryInvariant) {
  // Exercised under TSan in CI: writers race push() against readers
  // calling snapshot()/size()/dropped().
  SpanBuffer buffer(64);
  constexpr int kWriters = 4;
  constexpr int kSpansPerWriter = 500;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::vector<FinishedSpan> spans = buffer.snapshot();
      EXPECT_LE(spans.size(), buffer.capacity());
      for (const FinishedSpan& span : spans) {
        EXPECT_FALSE(span.name.empty());
      }
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kSpansPerWriter; ++i) {
        FinishedSpan span;
        span.name = "w";
        span.name += std::to_string(w);
        span.id = buffer.next_id();
        buffer.push(std::move(span));
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(buffer.size() + buffer.dropped(),
            static_cast<std::size_t>(kWriters * kSpansPerWriter));
  EXPECT_EQ(buffer.size(), buffer.capacity());
}

}  // namespace
}  // namespace propane::obs

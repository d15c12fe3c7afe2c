// Chrome-trace export: the telemetry log reader's crash-residue rule and
// the render pass -- span X events with their parent chain in args,
// golden-run and batch spans synthesized from golden.done /
// campaign.batch.done and parented by phase containment, one process track
// per session, counter tracks, instants, metadata rows, and saturated
// times on hostile lines.
#include "obs/trace_export.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace propane::obs {
namespace {

std::vector<Field> event_row(std::string name,
                             std::vector<Field> extra = {}) {
  std::vector<Field> row = {{"event", Value(std::move(name))}};
  for (Field& field : extra) row.push_back(std::move(field));
  return row;
}

std::vector<Field> span_row(std::string name, std::uint64_t id,
                            std::uint64_t parent_id, std::uint64_t start_us,
                            std::uint64_t dur_us) {
  return event_row("span", {{"name", Value(std::move(name))},
                            {"id", Value(id)},
                            {"parent_id", Value(parent_id)},
                            {"tid", Value(std::uint64_t{0})},
                            {"start_us", Value(start_us)},
                            {"dur_us", Value(dur_us)},
                            {"t_us", Value(start_us + dur_us)}});
}

std::vector<Field> golden_row(std::uint64_t t_us, std::uint64_t dur_us,
                              std::uint64_t test_case) {
  return event_row("golden.done", {{"t_us", Value(t_us)},
                                   {"dur_us", Value(dur_us)},
                                   {"test_case", Value(test_case)},
                                   {"samples", Value(std::uint64_t{40})}});
}

/// The line of the rendered trace that contains `needle` (empty if none).
std::string line_with(const std::string& trace, const std::string& needle) {
  const std::size_t at = trace.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t begin = trace.rfind('\n', at) + 1;
  return trace.substr(begin, trace.find('\n', at) - begin);
}

/// The `event` names of a parsed log, in order.
std::vector<std::string> names_of(const TelemetryLog& log) {
  std::vector<std::string> names;
  for (const std::vector<Field>& event : log.events) {
    names.push_back(event[0].value.as_string());
  }
  return names;
}

TEST(ReadTelemetryLog, SkipsATornLastLine) {
  std::istringstream in(
      "{\"event\":\"a\",\"t_us\":1}\n"
      "\n"
      "{\"event\":\"b\",\"t_us\":2}\n"
      "{\"event\":\"torn\",\"t_us\":3");  // killed writer: no closing brace
  const TelemetryLog log = read_telemetry_log(in);
  EXPECT_EQ(log.torn_lines, 1u);
  EXPECT_EQ(names_of(log), (std::vector<std::string>{"a", "b"}));
}

/// A session killed mid-line, then the next session's first event.
void expect_torn_line_skipped_before(const std::string& opener) {
  std::istringstream in("{\"event\":\"delta.plan\",\"t_us\":0}\n"
                        "{\"event\":\"golden.done\",\"t_\n"
                        "{\"event\":\"" + opener + "\",\"t_us\":0}\n"
                        "{\"event\":\"delta.done\",\"t_us\":5}\n");
  const TelemetryLog log = read_telemetry_log(in);
  EXPECT_EQ(log.torn_lines, 1u);
  EXPECT_EQ(names_of(log),
            (std::vector<std::string>{"delta.plan", opener, "delta.done"}));
  EXPECT_EQ(session_starts(log.events), (std::vector<std::size_t>{0, 1}));
}

TEST(ReadTelemetryLog, SkipsATornLineBeforeDeltaPlan) {
  expect_torn_line_skipped_before("delta.plan");  // a run, resume or delta
}

TEST(ReadTelemetryLog, SkipsATornLineBeforeBootstrapPlan) {
  expect_torn_line_skipped_before("bootstrap.plan");  // a bootstrap
}

TEST(ReadTelemetryLog, MalformedLineBeforeAnOrdinaryEventIsAnError) {
  // Garbage, a torn line followed by another torn line, and a well-formed
  // object without an event name: none of them is crash residue.
  const std::string cases[] = {
      "{\"event\":\"a\"}\nnot json\n{\"event\":\"b\"}\n",
      "{\"event\":\"a\"}\n{\"event\":\"b\",\n{\"ev\n{\"event\":\"c\"}\n",
      "{\"event\":\"a\"}\n{\"t_us\":1}\n{\"event\":\"b\"}\n",
  };
  for (const std::string& text : cases) {
    std::istringstream in(text);
    try {
      read_telemetry_log(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const MalformedTelemetryLine& err) {
      EXPECT_EQ(err.line(), 2u) << text;
      EXPECT_NE(std::string(err.what()).find("malformed telemetry line 2"),
                std::string::npos);
    }
  }
}

TEST(ReadTelemetryLog, IgnoresEmptyLines) {
  // Empty lines count toward line numbers but are neither events nor
  // residue: the torn line is the last non-empty one.
  std::istringstream in(
      "\n"
      "{\"event\":\"a\",\"t_us\":1}\n"
      "\n"
      "{\"event\":\"b\",\"t_us\":2}\n"
      "{\"event\":\"torn\",\"t_us\":3\n"
      "\n");
  const TelemetryLog log = read_telemetry_log(in);
  EXPECT_EQ(log.torn_lines, 1u);
  EXPECT_EQ(names_of(log), (std::vector<std::string>{"a", "b"}));

  std::istringstream bad(
      "\n{\"event\":\"a\"}\n\nnot json\n{\"event\":\"b\"}\n");
  try {
    read_telemetry_log(bad);
    ADD_FAILURE() << "accepted mid-file garbage";
  } catch (const MalformedTelemetryLine& err) {
    EXPECT_EQ(err.line(), 4u);
  }
}

TEST(WriteChromeTrace, RendersSpansWithTheirParentChain) {
  TraceStream stream;
  stream.name = "campaign";
  stream.events.push_back(span_row("campaign.injection_phase", 4, 2, 100, 900));
  stream.events.back().push_back({"extra", Value(std::uint64_t{3})});
  stream.events.push_back(span_row("campaign", 2, 0, 50, 1000));
  std::ostringstream out;
  const TraceExportSummary summary = write_chrome_trace(out, stream);
  const std::string trace = out.str();

  EXPECT_EQ(summary.sessions, 1u);
  EXPECT_EQ(summary.spans, 2u);
  EXPECT_EQ(summary.trace_events, 3u);  // process_name M + two X events
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  // Process metadata names the session's track.
  EXPECT_NE(trace.find("\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1"),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"campaign session 1\""), std::string::npos);
  // Each span renders as a complete event at its start, with its parent
  // and pass-through fields in args.
  const std::string phase = line_with(trace, "\"name\":\"campaign.injection_phase\"");
  EXPECT_NE(phase.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(phase.find("\"ts\":100,\"dur\":900"), std::string::npos);
  EXPECT_NE(phase.find("\"span_id\":4,\"parent_span_id\":2,\"extra\":3"),
            std::string::npos);
  const std::string root = line_with(trace, "\"name\":\"campaign\",");
  EXPECT_NE(root.find("\"ts\":50,\"dur\":1000"), std::string::npos);
  EXPECT_NE(root.find("\"span_id\":2,\"parent_span_id\":0"),
            std::string::npos);
}

TEST(WriteChromeTrace, ParentsSynthesizedRunsByPhaseContainment) {
  TraceStream stream;
  stream.name = "campaign";
  // Golden runs and batches end before the spans that contain them close,
  // so their events precede the span events in the stream.
  stream.events.push_back(golden_row(900, 100, 0));
  stream.events.push_back(span_row("campaign.golden_phase", 3, 2, 100, 1000));
  stream.events.push_back(event_row(
      "campaign.batch.done", {{"t_us", Value(std::uint64_t{3000})},
                              {"dur_us", Value(std::uint64_t{100})},
                              {"fire_ms", Value(std::uint64_t{7})},
                              {"lanes", Value(std::uint64_t{16})}}));
  // Straddles the injection phase's start: only the root contains it.
  stream.events.push_back(event_row(
      "campaign.batch.done", {{"t_us", Value(std::uint64_t{1300})},
                              {"dur_us", Value(std::uint64_t{200})},
                              {"fire_ms", Value(std::uint64_t{8})}}));
  stream.events.push_back(span_row("campaign.injection_phase", 4, 2, 1200, 7800));
  stream.events.push_back(span_row("campaign", 2, 0, 50, 9000));
  // After every span closed: no container, so no parent.
  stream.events.push_back(golden_row(20000, 50, 9));
  std::ostringstream out;
  const TraceExportSummary summary = write_chrome_trace(out, stream);
  const std::string trace = out.str();

  EXPECT_EQ(summary.synthesized, 4u);  // two golden runs and two batches
  EXPECT_EQ(summary.instants, 0u);     // golden.done is a span, not a mark
  // Runs and batches land on their virtual tracks, named via metadata.
  EXPECT_NE(trace.find("\"name\":\"campaign.run\",\"pid\":1,\"tid\":99"),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"campaign.batch\",\"pid\":1,\"tid\":98"),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"runs\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"batches\""), std::string::npos);
  // Each event takes the innermost span containing its whole interval.
  EXPECT_NE(trace.find("\"ts\":800,\"dur\":100,\"args\":{\"test_case\":0,"
                       "\"parent_span_id\":3}"),
            std::string::npos);
  EXPECT_NE(trace.find("\"ts\":2900,\"dur\":100,\"args\":{\"fire_ms\":7,"
                       "\"lanes\":16,\"parent_span_id\":4}"),
            std::string::npos);
  EXPECT_NE(trace.find("\"ts\":1100,\"dur\":200,\"args\":{\"fire_ms\":8,"
                       "\"lanes\":0,\"parent_span_id\":2}"),
            std::string::npos);
  const std::string orphan = line_with(trace, "\"test_case\":9");
  ASSERT_FALSE(orphan.empty());
  EXPECT_EQ(orphan.find("parent_span_id"), std::string::npos);
}

TEST(WriteChromeTrace, RendersEachSessionAsItsOwnProcess) {
  // Two sessions appended to one log: the second restarts its clock and
  // its span ids, so neither may adopt the other's spans.
  TraceStream stream;
  stream.name = "campaign";
  stream.events.push_back(event_row("delta.plan"));
  stream.events.push_back(event_row("journal.resume_scan"));
  stream.events.push_back(golden_row(3000, 100, 1));
  stream.events.push_back(span_row("campaign.golden_phase", 4, 2, 1000, 4000));
  stream.events.push_back(span_row("campaign", 2, 0, 500, 5000));
  stream.events.push_back(event_row("delta.done"));
  stream.events.push_back(event_row("delta.plan"));
  stream.events.push_back(event_row("journal.resume_scan"));
  // Inside session 1's golden phase, but not inside session 2's.
  stream.events.push_back(golden_row(2000, 100, 2));
  stream.events.push_back(span_row("campaign.golden_phase", 4, 2, 2500, 100));
  stream.events.push_back(span_row("campaign", 2, 0, 1500, 6000));
  std::ostringstream out;
  const TraceExportSummary summary = write_chrome_trace(out, stream);
  const std::string trace = out.str();

  EXPECT_EQ(summary.sessions, 2u);
  EXPECT_EQ(session_starts(stream.events),
            (std::vector<std::size_t>{0, 6}));
  EXPECT_EQ(summary.spans, 4u);
  EXPECT_NE(trace.find("\"pid\":2,\"tid\":0,\"args\":{\"name\":"
                       "\"campaign session 2\"}"),
            std::string::npos);
  const std::string first = line_with(trace, "\"test_case\":1");
  EXPECT_NE(first.find("\"pid\":1,"), std::string::npos);
  EXPECT_NE(first.find("\"parent_span_id\":4}"), std::string::npos);
  const std::string second = line_with(trace, "\"test_case\":2");
  EXPECT_NE(second.find("\"pid\":2,"), std::string::npos);
  EXPECT_NE(second.find("\"parent_span_id\":2}"), std::string::npos);
}

TEST(SessionStarts, BootstrapOpensItsOwnSession) {
  // run, bootstrap, run: a bootstrap session scans no journal and plans no
  // delta, so its bootstrap.plan event opens it; a log that starts with a
  // bootstrap has one session there, not two.
  const std::vector<std::vector<Field>> events = {
      event_row("delta.plan"),       event_row("journal.resume_scan"),
      event_row("delta.done"),       event_row("bootstrap.plan"),
      event_row("pool.queue_depth"), event_row("bootstrap.done"),
      event_row("delta.plan"),       event_row("journal.resume_scan")};
  EXPECT_EQ(session_starts(events), (std::vector<std::size_t>{0, 3, 6}));
  const std::vector<std::vector<Field>> bootstrap_first(events.begin() + 3,
                                                        events.end());
  EXPECT_EQ(session_starts(bootstrap_first),
            (std::vector<std::size_t>{0, 3}));
}

TEST(WriteChromeTrace, EmitsCounterTracksAndInstants) {
  TraceStream stream;
  stream.name = "campaign";
  stream.events.push_back(event_row(
      "journal.resume_scan", {{"t_us", Value(std::uint64_t{100})},
                              {"completed", Value(std::uint64_t{9})}}));
  stream.events.push_back(event_row(
      "delta.done", {{"t_us", Value(std::uint64_t{500})},
                     {"executed", Value(std::uint64_t{30})}}));
  stream.events.push_back(event_row(
      "metric", {{"t_us", Value(std::uint64_t{600})},
                 {"kind", Value("counter")},
                 {"name", Value("batch.kernel.ticks")},
                 {"value", Value(std::uint64_t{1234})}}));
  stream.events.push_back(event_row(
      "metric", {{"t_us", Value(std::uint64_t{600})},
                 {"kind", Value("gauge")},
                 {"name", Value("journal.resume.scan_ms")},
                 {"value", Value(0.5)}}));
  stream.events.push_back(
      event_row("pool.queue_depth", {{"t_us", Value(std::uint64_t{50})}}));
  std::ostringstream out;
  const TraceExportSummary summary = write_chrome_trace(out, stream);
  const std::string trace = out.str();

  EXPECT_NE(trace.find("\"ph\":\"C\",\"name\":\"metric.batch.kernel.ticks\","
                       "\"pid\":1,\"tid\":0,\"ts\":600,\"args\":{\"value\":1234}"),
            std::string::npos);
  // Only counters become tracks; gauges are end-of-session snapshots.
  EXPECT_EQ(trace.find("scan_ms"), std::string::npos);
  // Session lifecycle events double as instants; other events do not.
  EXPECT_NE(trace.find("\"ph\":\"i\",\"name\":\"journal.resume_scan\",\"pid\":1,"
                       "\"tid\":0,\"ts\":100,\"s\":\"p\",\"args\":{\"completed\":9}"),
            std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\",\"name\":\"delta.done\""),
            std::string::npos);
  EXPECT_EQ(trace.find("queue_depth"), std::string::npos);
  EXPECT_EQ(summary.instants, 2u);
  EXPECT_EQ(summary.counter_samples, 1u);
  EXPECT_EQ(summary.spans, 0u);
  EXPECT_EQ(summary.synthesized, 0u);
}

TEST(WriteChromeTrace, HostileTimesSaturateInsteadOfOverflowing) {
  // Times past INT64_MAX, a start that overflows when its duration is
  // added, a duration longer than its end time, and a double far outside
  // any integer range: every trace time clamps into [0, INT64_MAX].
  std::istringstream in(
      "{\"event\":\"span\",\"name\":\"edge\",\"id\":1,\"parent_id\":0,"
      "\"tid\":0,\"start_us\":9223372036854775807,\"dur_us\":5,"
      "\"t_us\":1}\n"
      "{\"event\":\"golden.done\",\"t_us\":18446744073709551615,"
      "\"dur_us\":5,\"test_case\":1}\n"
      "{\"event\":\"campaign.batch.done\",\"t_us\":3,"
      "\"dur_us\":18446744073709551615,\"lanes\":2}\n"
      "{\"event\":\"delta.done\",\"t_us\":1e300}\n");
  TelemetryLog log = read_telemetry_log(in);
  ASSERT_EQ(log.torn_lines, 0u);
  const TraceStream stream{"campaign", std::move(log.events)};
  std::ostringstream out;
  const TraceExportSummary summary = write_chrome_trace(out, stream);
  const std::string trace = out.str();

  EXPECT_EQ(summary.spans, 1u);
  EXPECT_EQ(summary.synthesized, 2u);
  EXPECT_EQ(summary.instants, 1u);
  EXPECT_NE(line_with(trace, "\"name\":\"edge\"")
                .find("\"ts\":9223372036854775807,\"dur\":0"),
            std::string::npos);
  EXPECT_NE(line_with(trace, "\"name\":\"campaign.run\"")
                .find("\"ts\":9223372036854775802,\"dur\":5"),
            std::string::npos);
  EXPECT_NE(line_with(trace, "\"name\":\"campaign.batch\"")
                .find("\"ts\":0,\"dur\":3"),
            std::string::npos);
  EXPECT_NE(line_with(trace, "\"name\":\"delta.done\"")
                .find("\"ts\":9223372036854775807"),
            std::string::npos);
  // Still one well-formed trace object: no negative time anywhere.
  EXPECT_EQ(trace.find("\":-"), std::string::npos);
  EXPECT_EQ(trace.rfind("\n]}\n"), trace.size() - 4);
}

}  // namespace
}  // namespace propane::obs

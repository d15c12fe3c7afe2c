#include "obs/trace_export.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <istream>
#include <iterator>
#include <limits>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

namespace propane::obs {

namespace {

std::uint64_t u64_or(const std::vector<Field>& fields, std::string_view key,
                     std::uint64_t fallback) {
  const Value* value = find_field(fields, key);
  return value != nullptr && value->is_number() ? value->as_uint() : fallback;
}

std::string str_or(const std::vector<Field>& fields, std::string_view key,
                   std::string fallback) {
  const Value* value = find_field(fields, key);
  return value != nullptr && value->kind() == Value::Kind::kString
             ? value->as_string()
             : fallback;
}

/// The events a session emits first, and no other event.
constexpr std::string_view kSessionOpeners[] = {"delta.plan",
                                                "bootstrap.plan"};

/// One log line as an event: a flat JSON object with a string "event"
/// field, or nullopt.
std::optional<std::vector<Field>> parse_event(std::string_view line) {
  std::optional<std::vector<Field>> event = parse_flat_json_object(line);
  if (event.has_value() && string_field(*event, "event").empty()) {
    event.reset();
  }
  return event;
}

bool opens_session(const std::vector<Field>& event) {
  const std::string name = string_field(event, "event");
  return std::find(std::begin(kSessionOpeners), std::end(kSessionOpeners),
                   name) != std::end(kSessionOpeners);
}

void append_number(std::string& out, std::int64_t v) {
  char buffer[24];
  const auto r = std::to_chars(buffer, buffer + sizeof(buffer), v);
  out.append(buffer, r.ptr);
}

void append_value(std::string& out, const Value& value) {
  char buffer[32];
  switch (value.kind()) {
    case Value::Kind::kNull:
      out += "null";
      break;
    case Value::Kind::kBool:
      out += value.as_bool() ? "true" : "false";
      break;
    case Value::Kind::kInt: {
      const auto r =
          std::to_chars(buffer, buffer + sizeof(buffer), value.as_int());
      out.append(buffer, r.ptr);
      break;
    }
    case Value::Kind::kUint: {
      const auto r =
          std::to_chars(buffer, buffer + sizeof(buffer), value.as_uint());
      out.append(buffer, r.ptr);
      break;
    }
    case Value::Kind::kDouble: {
      const double v = value.as_double();
      if (!std::isfinite(v)) {
        out += "null";
        break;
      }
      const auto r = std::to_chars(buffer, buffer + sizeof(buffer), v);
      out.append(buffer, r.ptr);
      break;
    }
    case Value::Kind::kString:
      out += '"';
      out += json_escape(value.as_string());
      out += '"';
      break;
  }
}

/// Builds one trace-event JSON object. `args` may be empty.
std::string trace_event(char phase, std::string_view name, std::int64_t pid,
                        std::int64_t tid, std::int64_t ts, std::int64_t dur,
                        const std::vector<Field>& args,
                        std::string_view instant_scope = {}) {
  std::string out = "{\"ph\":\"";
  out += phase;
  out += "\",\"name\":\"";
  out += json_escape(name);
  out += "\",\"pid\":";
  append_number(out, pid);
  out += ",\"tid\":";
  append_number(out, tid);
  if (phase != 'M') {
    out += ",\"ts\":";
    append_number(out, ts);
  }
  if (phase == 'X') {
    out += ",\"dur\":";
    append_number(out, dur);
  }
  if (phase == 'i' && !instant_scope.empty()) {
    out += ",\"s\":\"";
    out += instant_scope;
    out += '"';
  }
  if (!args.empty()) {
    out += ",\"args\":{";
    bool first = true;
    for (const Field& field : args) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += json_escape(field.key);
      out += "\":";
      append_value(out, field.value);
    }
    out += '}';
  }
  out += '}';
  return out;
}

/// Span keys consumed into the X event envelope; any other field of a
/// "span" event passes through into args.
bool is_span_envelope_key(std::string_view key) {
  return key == "event" || key == "name" || key == "id" ||
         key == "parent_id" || key == "depth" || key == "tid" ||
         key == "start_us" || key == "dur_us" || key == "t_us";
}

/// Virtual thread tracks for synthesized events (real tids are small
/// thread ordinals; these sit far above them).
constexpr std::int64_t kRunsTid = 99;
constexpr std::int64_t kBatchesTid = 98;

/// A persisted time or duration as a trace timestamp: the log may hold any
/// uint64, and trace times are int64, so values past INT64_MAX saturate.
std::int64_t trace_time(std::uint64_t us) {
  return static_cast<std::int64_t>(
      std::min<std::uint64_t>(us, std::numeric_limits<std::int64_t>::max()));
}

/// Interval [start, end] of an event that carries its own duration: a
/// span (start_us + dur_us) or a golden/batch done event (t_us - dur_us,
/// t_us). Both ends stay inside [0, INT64_MAX] whatever the line holds.
struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

Interval interval_of(const std::vector<Field>& event, bool is_span) {
  const std::int64_t dur = trace_time(u64_or(event, "dur_us", 0));
  const std::int64_t t_us = trace_time(u64_or(event, "t_us", 0));
  const std::int64_t before_t = dur > t_us ? 0 : t_us - dur;
  if (is_span) {
    const std::int64_t start = trace_time(
        u64_or(event, "start_us", static_cast<std::uint64_t>(before_t)));
    const std::int64_t max = std::numeric_limits<std::int64_t>::max();
    return {start, start > max - dur ? max : start + dur};
  }
  return {before_t, t_us};
}

}  // namespace

std::vector<std::size_t> session_starts(
    const std::vector<std::vector<Field>>& events) {
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (opens_session(events[i])) starts.push_back(i);
  }
  return starts;
}

MalformedTelemetryLine::MalformedTelemetryLine(std::size_t line,
                                               const std::string& text)
    : std::runtime_error("malformed telemetry line " + std::to_string(line) +
                         ": " + text),
      line_(line) {}

TelemetryLog read_telemetry_log(std::istream& in) {
  TelemetryLog log;
  // A malformed line waits here until the next line shows whether it is
  // residue; suspect_line 0 means none waits.
  std::size_t suspect_line = 0;
  std::string suspect;
  std::size_t number = 0;
  for (std::string line; std::getline(in, line);) {
    ++number;
    if (line.empty()) continue;
    std::optional<std::vector<Field>> event = parse_event(line);
    if (suspect_line != 0) {
      if (!event.has_value() || !opens_session(*event)) {
        throw MalformedTelemetryLine(suspect_line, suspect);
      }
      ++log.torn_lines;
      suspect_line = 0;
    }
    if (!event.has_value()) {
      suspect_line = number;
      suspect = std::move(line);
      continue;
    }
    log.events.push_back(std::move(*event));
  }
  if (suspect_line != 0) ++log.torn_lines;
  return log;
}

TraceExportSummary write_chrome_trace(std::ostream& out,
                                      const TraceStream& stream) {
  TraceExportSummary summary;
  std::vector<std::string> events;

  std::vector<std::size_t> starts = session_starts(stream.events);
  summary.sessions = starts.size();
  starts.push_back(stream.events.size());
  for (std::size_t session = 0; session + 1 < starts.size(); ++session) {
    const std::size_t first = starts[session];
    const std::size_t last = starts[session + 1];
    const auto pid = static_cast<std::int64_t>(session + 1);
    events.push_back(trace_event(
        'M', "process_name", pid, 0, 0, 0,
        {{"name", Value(stream.name + " session " +
                        std::to_string(session + 1))}}));

    // Pass 1: the session's span intervals, to parent synthesized run and
    // batch events by containment.
    struct SpanInterval {
      Interval interval;
      std::uint64_t id = 0;
    };
    std::vector<SpanInterval> spans;
    for (std::size_t i = first; i < last; ++i) {
      if (string_field(stream.events[i], "event") == "span") {
        spans.push_back({interval_of(stream.events[i], /*is_span=*/true),
                         u64_or(stream.events[i], "id", 0)});
      }
    }
    const auto innermost_container =
        [&spans](const Interval& inner) -> std::uint64_t {
      std::uint64_t parent = 0;
      std::int64_t parent_length = 0;
      for (const SpanInterval& span : spans) {
        const std::int64_t length = span.interval.end - span.interval.start;
        if (span.interval.start <= inner.start &&
            inner.end <= span.interval.end &&
            (parent == 0 || length < parent_length)) {
          parent = span.id;
          parent_length = length;
        }
      }
      return parent;
    };

    // Pass 2: render.
    bool used_runs_tid = false;
    bool used_batches_tid = false;
    for (std::size_t i = first; i < last; ++i) {
      const std::vector<Field>& event = stream.events[i];
      const std::string name = string_field(event, "event");
      const std::int64_t t_us = trace_time(u64_or(event, "t_us", 0));

      if (name == "span") {
        const Interval span = interval_of(event, /*is_span=*/true);
        std::vector<Field> args = {
            {"span_id", Value(u64_or(event, "id", 0))},
            {"parent_span_id", Value(u64_or(event, "parent_id", 0))}};
        for (const Field& field : event) {
          if (!is_span_envelope_key(field.key)) args.push_back(field);
        }
        events.push_back(trace_event(
            'X', str_or(event, "name", "span"), pid,
            trace_time(u64_or(event, "tid", 0)), span.start,
            span.end - span.start, args));
        ++summary.spans;
        continue;
      }

      if (name == "golden.done" || name == "campaign.batch.done") {
        const bool run = name == "golden.done";
        const Interval interval = interval_of(event, /*is_span=*/false);
        std::vector<Field> args;
        if (run) {
          args = {{"test_case", Value(u64_or(event, "test_case", 0))}};
        } else {
          args = {{"fire_ms", Value(u64_or(event, "fire_ms", 0))},
                  {"lanes", Value(u64_or(event, "lanes", 0))}};
        }
        if (const std::uint64_t parent = innermost_container(interval);
            parent != 0) {
          args.push_back({"parent_span_id", Value(parent)});
        }
        events.push_back(trace_event(
            'X', run ? "campaign.run" : "campaign.batch", pid,
            run ? kRunsTid : kBatchesTid, interval.start,
            interval.end - interval.start, args));
        (run ? used_runs_tid : used_batches_tid) = true;
        ++summary.synthesized;
        continue;
      }

      if (name == "metric" && string_field(event, "kind") == "counter") {
        const Value* value = find_field(event, "value");
        if (value != nullptr && value->is_number()) {
          events.push_back(trace_event('C',
                                       "metric." + str_or(event, "name", "?"),
                                       pid, 0, t_us, 0, {{"value", *value}}));
          ++summary.counter_samples;
        }
        continue;
      }

      // Instants: session lifecycle events worth a timeline mark.
      if (name == "delta.done" || name == "journal.resume_scan") {
        std::vector<Field> args;
        for (const Field& field : event) {
          if (field.key != "event" && field.key != "t_us") {
            args.push_back(field);
          }
        }
        events.push_back(trace_event('i', name, pid, 0, t_us, 0, args, "p"));
        ++summary.instants;
      }
    }

    if (used_runs_tid) {
      events.push_back(trace_event('M', "thread_name", pid, kRunsTid, 0, 0,
                                   {{"name", Value("runs")}}));
    }
    if (used_batches_tid) {
      events.push_back(trace_event('M', "thread_name", pid, kBatchesTid, 0, 0,
                                   {{"name", Value("batches")}}));
    }
  }

  summary.trace_events = events.size();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) out << ',';
    out << '\n' << events[i];
  }
  out << "\n]}\n";
  return summary;
}

}  // namespace propane::obs

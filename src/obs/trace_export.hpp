// Chrome/Perfetto trace export of a campaign's telemetry stream.
//
// A journaled campaign appends its NDJSON events to one log
// (<journal>/telemetry.ndjson); every `campaign run`, `resume` or `delta`
// invocation on the journal adds one session. Each session's timestamps
// and span ids count from its own process (obs/clock.hpp, obs/span.hpp),
// so the exporter splits the stream into sessions and renders each one as
// its own process track. A session opens at its first event: delta.plan
// for a `campaign run`, `resume` or `delta`, bootstrap.plan for a
// `campaign bootstrap`.
//
// The exporter renders the sessions as Chrome trace-event JSON
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
// -- the format both chrome://tracing and ui.perfetto.dev load):
//
//   * "span" events         -> "X" complete events on their thread track,
//                              args carrying span_id/parent_span_id so the
//                              chain campaign.*_phase -> campaign is
//                              navigable;
//   * golden.done           -> synthesized "campaign.run" X events (one
//                              per golden run), parented under the
//                              innermost span of their session whose
//                              interval contains them (the golden phase:
//                              runs execute on pool threads, so the
//                              per-thread span stack cannot relate them to
//                              the phase);
//   * campaign.batch.done   -> synthesized "campaign.batch" X events (one
//                              per kernel request), parented the same way;
//   * final "metric" counter
//     events                -> one "C" sample each (batch-kernel tick
//                              counters land here);
//   * journal.resume_scan and the session's delta.done
//                           -> "i" instants.
//
// Times and durations are read saturated to [0, INT64_MAX], so a hostile
// line cannot overflow the trace arithmetic.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/ndjson.hpp"

namespace propane::obs {

/// One parsed telemetry stream: the events of every session that appended
/// to the log, in file order.
struct TraceStream {
  std::string name;  // process-track name, e.g. "campaign"
  std::vector<std::vector<Field>> events;
};

struct TraceExportSummary {
  std::size_t trace_events = 0;     // total entries in traceEvents
  std::size_t sessions = 0;         // process tracks (one per session)
  std::size_t spans = 0;            // X events from real "span" events
  std::size_t synthesized = 0;      // X events from golden/batch done
  std::size_t counter_samples = 0;  // C samples
  std::size_t instants = 0;         // i events
};

/// Index of the first event of each session (always starts with 0): each
/// session-opening event after the log's first opens one. `campaign top`
/// splits its wall time with the same rule.
std::vector<std::size_t> session_starts(
    const std::vector<std::vector<Field>>& events);

/// A telemetry log as read_telemetry_log found it.
struct TelemetryLog {
  std::vector<std::vector<Field>> events;  // file order
  std::size_t torn_lines = 0;              // crash residue skipped
};

/// The first line of a log that is neither an event nor crash residue.
class MalformedTelemetryLine : public std::runtime_error {
 public:
  MalformedTelemetryLine(std::size_t line, const std::string& text);
  std::size_t line() const { return line_; }  // 1-based

 private:
  std::size_t line_;
};

/// The one reader of a telemetry log. Every non-empty line must be a flat
/// JSON object with a non-empty string "event" field. A line that is not
/// is crash residue -- a session killed mid-line -- only when it is the
/// last line or the next line opens a session (the sink heals a missing
/// newline when it reopens the log); residue is counted and skipped. Any
/// other malformed line throws MalformedTelemetryLine naming the first.
TelemetryLog read_telemetry_log(std::istream& in);

/// Writes the stream as one Chrome trace-event JSON object, session k
/// (from 1) as process k.
TraceExportSummary write_chrome_trace(std::ostream& out,
                                      const TraceStream& stream);

}  // namespace propane::obs

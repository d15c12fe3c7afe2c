// Chrome/Perfetto trace export of a campaign's telemetry stream.
//
// A journaled campaign appends its NDJSON events to one log
// (<journal>/telemetry.ndjson); every `campaign run`, `resume` or `delta`
// invocation on the journal adds one session. Each session's timestamps
// and span ids count from its own process (obs/clock.hpp, obs/span.hpp),
// so the exporter splits the stream into sessions and renders each one as
// its own process track. A session opens at its journal.resume_scan event
// (or the delta.plan event just before it): every session opens the
// journal exactly once.
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

/// Index of the first event of each session (always starts with 0): a new
/// session opens at a delta.plan or journal.resume_scan event once the
/// current session has already scanned its journal or resampled it, and at
/// every bootstrap.plan event that is not the log's first event. `campaign
/// top` splits its wall time with the same rule.
std::vector<std::size_t> session_starts(
    const std::vector<std::vector<Field>>& events);

/// Parses NDJSON lines from `in` into parsed-field rows, appending to
/// `out`. Malformed lines (a killed writer's torn tail) are counted, not
/// fatal. Returns the number of lines skipped.
std::size_t parse_ndjson_stream(std::istream& in,
                                std::vector<std::vector<Field>>& out);

/// Writes the stream as one Chrome trace-event JSON object, session k
/// (from 1) as process k.
TraceExportSummary write_chrome_trace(std::ostream& out,
                                      const TraceStream& stream);

}  // namespace propane::obs

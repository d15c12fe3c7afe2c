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
//   * campaign.run.end      -> synthesized "campaign.run" X events (the
//                              hot path emits paired start/end events, not
//                              per-run spans), parented under the
//                              innermost span of their session whose
//                              interval contains them (the golden or
//                              injection phase: runs execute on pool
//                              threads, so the per-thread span stack
//                              cannot relate them to the phase);
//   * campaign.batch.done   -> synthesized "campaign.batch" X events,
//                              parented the same way;
//   * final "metric" counter
//     events                -> one "C" sample each (batch-kernel tick
//                              counters land here);
//   * golden.done, journal.resume_scan and the session's done event
//                           -> "i" instants;
//   * per-run noise (run.start, injection.done, journal.append) is
//     consumed or skipped -- a trace is a timeline, not a replay log.
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
  std::size_t synthesized = 0;      // X events synthesized from run/batch
  std::size_t counter_samples = 0;  // C samples
  std::size_t instants = 0;         // i events
};

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

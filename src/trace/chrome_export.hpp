// Chrome trace-event JSON export: render a trace::Trace as a timeline
// that chrome://tracing and Perfetto (ui.perfetto.dev) open directly.
//
// The paper's authors viewed profiles in CUBE and had no timeline at all;
// the trace subsystem records one, and this exporter makes it visible in
// the standard browser tooling:
//
//  * one track per worker thread (thread_name metadata, sorted by id);
//  * duration events (ph B/E) for task execution, implicit tasks, task
//    creation, taskwait/barrier scheduling points, and user regions;
//  * instant events (ph i) for task creates, steals (a task beginning on
//    a thread other than its creator), suspends, and untied migrations;
//  * counter tracks (ph C) for tasks-queued / tasks-executing derived
//    from the event stream, plus the final scheduler-telemetry counters
//    when a telemetry::Snapshot is supplied.
//
// Timestamps are normalized to the first event and emitted in
// microseconds (the trace-event format's unit) at nanosecond resolution.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "profile/region.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

namespace taskprof::trace {

/// An extra instant event layered onto the exported timeline — e.g. a
/// diagnosis finding pinned next to the behavior it names.  Kept generic
/// (name + string args) so higher layers can annotate without this
/// subsystem depending on them.
struct TraceAnnotation {
  std::string name;
  /// Absolute trace time (same domain as the events); 0 when the note
  /// has no timestamp, which places it at the start of the timeline.
  Ticks time = 0;
  ThreadId thread = 0;  ///< track to pin the instant to
  std::vector<std::pair<std::string, std::string>> args;
};

struct ChromeExportOptions {
  /// Region names for event labels; nullptr labels by handle number.
  const RegionRegistry* registry = nullptr;
  /// Final scheduler-telemetry counters to append as counter tracks.
  const telemetry::Snapshot* telemetry = nullptr;
  /// Extra instant events (diagnoses, markers) to layer onto the export.
  const std::vector<TraceAnnotation>* annotations = nullptr;
};

/// Render `trace` as a trace-event JSON document: an object with a
/// "displayTimeUnit" and a "traceEvents" array, one event per line.
[[nodiscard]] std::string render_chrome_trace(
    const Trace& trace, const ChromeExportOptions& options = {});

/// Write render_chrome_trace output to `path`.  Throws std::system_error
/// (a std::runtime_error) on I/O failure.
void write_chrome_trace(const std::string& path, const Trace& trace,
                        const ChromeExportOptions& options = {});

}  // namespace taskprof::trace

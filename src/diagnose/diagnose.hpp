// Detrimental-pattern diagnosis engine: from "shows numbers" to "names
// your tasking bug".
//
// The paper's §VI workflow reads granularity problems off the call-path
// profile by hand; Tuft et al. (arXiv 2406.03077) catalog the runtime
// anti-patterns that actually hurt OpenMP tasking, and TASKPROF (Yoga &
// Nagarakatte) shows per-task work/span accounting yields logical
// parallelism and critical-path attribution.  This subsystem combines
// both: it consumes a finalized profile plus (optionally) a recorded
// trace and a telemetry snapshot, computes the sync-aware work/span of
// the trace (trace/span.hpp), and runs a registry of detectors —
// creation storm, serialized spawn chain, starved workers, granularity
// collapse, taskwait serialization, replay fallback — each emitting a
// ranked Diagnosis with the offending call path(s), the supporting
// numbers, and a remediation hint.  Renderers (render.hpp) turn the
// report into text, stable JSON, and Chrome-trace instant events.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "diagnose/workspan.hpp"
#include "measure/aggregate.hpp"
#include "profile/region.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/trace.hpp"

namespace taskprof::diag {

enum class Severity : std::uint8_t { kInfo, kWarning, kProblem };

[[nodiscard]] const char* severity_name(Severity severity) noexcept;

/// A call path named by a diagnosis, resolved to its source site at
/// detection time so reports need no registry to render.
struct CallSite {
  RegionHandle region = kInvalidRegion;
  std::string name;
  std::string file;  ///< empty when the region carries no source info
  int line = 0;

  /// "name (file:line)" or just "name".
  [[nodiscard]] std::string label() const;
};

/// One supporting number, named for the report ("peak_backlog", ...).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;  ///< "", "ns", "tasks", "ratio", ...
};

/// One detector verdict.
struct Diagnosis {
  std::string detector;  ///< stable id, e.g. "creation_storm"
  Severity severity = Severity::kInfo;
  /// Detector-relative ranking key (bigger = worse); ties the ordering
  /// of findings with equal severity.
  double score = 0.0;
  std::string summary;      ///< one-line statement of the problem
  std::string remediation;  ///< one-line suggested fix
  std::vector<CallSite> sites;
  std::vector<Metric> metrics;
  Ticks at = 0;          ///< trace-time anchor for timeline markers (0 = none)
  ThreadId thread = 0;   ///< timeline track for the marker
};

/// Everything a diagnosis run may consume.  `profile` and `registry` are
/// required; `trace` unlocks the time-domain detectors and work/span;
/// `telemetry` unlocks the replay-fallback detector.
struct DiagnosisInput {
  const AggregateProfile* profile = nullptr;
  const RegionRegistry* registry = nullptr;
  const trace::Trace* trace = nullptr;
  const telemetry::Snapshot* telemetry = nullptr;
};

struct DiagnosisReport {
  /// Ranked: severity descending, then score descending.
  std::vector<Diagnosis> findings;
  /// Work/span accounting; meaningful only when has_workspan.
  WorkSpanSummary workspan;
  bool has_workspan = false;

  [[nodiscard]] Severity max_severity() const noexcept;
  [[nodiscard]] std::size_t count_at_least(Severity floor) const noexcept;
};

/// Run every registered detector over `input`, reading the trace's own
/// analysis and span model (trace::Trace::analysis(), span_model()).  A
/// trace whose events tell an impossible history throws
/// snapshot::SnapshotError (kMalformed) from that walk.
[[nodiscard]] DiagnosisReport run_diagnosis(const DiagnosisInput& input);

/// Parse "info" / "warning" / "problem" (CLI --fail-on).  Returns false
/// on unknown names.
[[nodiscard]] bool parse_severity(const std::string& text, Severity* out);

}  // namespace taskprof::diag

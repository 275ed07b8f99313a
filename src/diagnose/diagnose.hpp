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

/// Detector thresholds.  Defaults are tuned so the seeded anti-pattern
/// corpora fire and clean BOTS runs at sane thread counts stay below
/// kProblem (DESIGN.md §13 documents the calibration).
struct DiagnoseOptions {
  // creation_storm: tasks created far faster than they start executing.
  std::uint64_t storm_min_creations = 256;  ///< ignore tiny runs
  /// Peak creation backlog (created - begun) that fires the detector, as
  /// a per-thread multiple; the absolute floor below also applies.
  std::uint64_t storm_backlog_per_thread = 32;
  std::uint64_t storm_backlog_floor = 192;

  // serialized_spawn_chain: deep single-child spawn paths.
  int chain_min_depth = 8;
  /// Chain active time must cover at least this fraction of total work
  /// (otherwise the chain is a sideshow, not the bottleneck).
  double chain_work_fraction = 0.5;

  // starved_workers: threads parked at scheduling points for most of the
  // region while the task graph offers nothing to steal.
  double starved_waiting_fraction = 0.5;  ///< of the thread's span
  /// Starvation is only a diagnosis when parallelism actually fell
  /// short: logical parallelism below threads * this fraction.
  double starved_parallelism_fraction = 0.5;

  // granularity_collapse: §VI generalized per parameter/depth.
  Ticks small_task_threshold = 10 * kTicksPerUs;  ///< paper's "too small"
  /// Problem requires BOTH: creation dominating execution by this ratio
  /// and mean body time under the floor.  Calibration: fib at test size
  /// has 470 ns bodies, so the 400 ns floor keeps it at a warning at any
  /// thread count (creation cost — and hence the ratio — grows with the
  /// team), while a degenerate tree of ~360 ns bodies at 7.7x is a
  /// problem.
  double collapse_problem_ratio = 6.5;
  Ticks collapse_floor = 400;  ///< ns of mean exclusive body time

  // taskwait_serialization: spawn-wait-spawn-wait lockstep.
  std::uint64_t serial_min_taskwaits = 8;
  /// Fraction of trace span with <=1 task executing while a thread sits
  /// in taskwait.
  double serial_fraction_warn = 0.40;
  double serial_fraction_problem = 0.60;
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

/// Run every registered detector over `input`.  A trace whose events
/// tell an impossible history throws snapshot::SnapshotError (kMalformed)
/// from trace::analyze_trace.
[[nodiscard]] DiagnosisReport run_diagnosis(const DiagnosisInput& input,
                                            const DiagnoseOptions& options = {});

/// Parse "info" / "warning" / "problem" (CLI --fail-on).  Returns false
/// on unknown names.
[[nodiscard]] bool parse_severity(const std::string& text, Severity* out);

}  // namespace taskprof::diag

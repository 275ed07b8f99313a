#include "diagnose/diagnose.hpp"

#include <algorithm>

#include "diagnose/detectors.hpp"
#include "trace/analysis.hpp"

namespace taskprof::diag {

Severity DiagnosisReport::max_severity() const noexcept {
  Severity max = Severity::kInfo;
  for (const Diagnosis& d : findings) {
    if (d.severity > max) max = d.severity;
  }
  return max;
}

std::size_t DiagnosisReport::count_at_least(Severity floor) const noexcept {
  std::size_t n = 0;
  for (const Diagnosis& d : findings) {
    if (d.severity >= floor) ++n;
  }
  return n;
}

bool parse_severity(const std::string& text, Severity* out) {
  if (text == "info") {
    *out = Severity::kInfo;
  } else if (text == "warning") {
    *out = Severity::kWarning;
  } else if (text == "problem") {
    *out = Severity::kProblem;
  } else {
    return false;
  }
  return true;
}

DiagnosisReport run_diagnosis(const DiagnosisInput& input) {
  DiagnosisReport report;
  if (input.registry == nullptr) return report;

  // A profile unlocks the construct-level detectors; a trace alone still
  // feeds the time-domain ones.
  std::vector<TaskConstructStats> constructs;
  if (input.profile != nullptr) {
    constructs = task_construct_stats(*input.profile, *input.registry);
  }

  // The trace's own walk: shared with every other consumer of it.
  const trace::TraceAnalysis* trace_analysis = nullptr;
  const bool have_trace =
      input.trace != nullptr && input.trace->event_count() != 0;
  if (have_trace) {
    trace_analysis = input.trace->analysis().get();
    report.workspan = compute_workspan(*input.trace, *input.registry);
    report.has_workspan = true;
  }

  DetectorContext ctx{input,
                      constructs,
                      static_cast<int>(
                          have_trace ? input.trace->thread_count()
                                     : (input.profile != nullptr
                                            ? input.profile->thread_count
                                            : 0)),
                      trace_analysis,
                      report.has_workspan ? &report.workspan : nullptr};

  for (const Detector& detector : detector_registry()) {
    detector.run(ctx, &report.findings);
  }

  // Rank: severity first, then detector-relative score; detector id as the
  // final tie-break keeps the ordering (and the golden JSON) stable.
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Diagnosis& a, const Diagnosis& b) {
                     if (a.severity != b.severity) return a.severity > b.severity;
                     if (a.score != b.score) return a.score > b.score;
                     return a.detector < b.detector;
                   });
  return report;
}

}  // namespace taskprof::diag

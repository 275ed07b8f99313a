// Work/span accounting for the diagnosis report (TASKPROF-style).
//
//   work = executed task time plus implicit-task time (T1)
//   span = the sync-aware critical path of trace/span.hpp (T∞), with the
//          measured task-management time charged per chain task
//
// These are the same numbers the what-if projector (src/whatif) starts
// from.  Logical parallelism = work / span bounds the speedup any
// scheduler can extract from the task structure; the per-construct span
// shares say *which* task construct owns the critical path — the
// what-to-optimize answer the plain profile cannot give.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "profile/region.hpp"
#include "trace/span.hpp"
#include "trace/trace.hpp"

namespace taskprof::diag {

/// One construct's share of the critical path.
struct ConstructSpanShare {
  RegionHandle region = kInvalidRegion;
  std::string name;
  Ticks on_span = 0;       ///< active time this construct contributes
  int instances = 0;       ///< chain members from this construct
};

/// The trace's work and span plus the constructs on its critical path.
struct WorkSpanSummary : trace::WorkSpan {
  /// Per-construct critical-path attribution, largest share first.
  std::vector<ConstructSpanShare> shares;
};

/// Work/span of a finished trace, from its span model
/// (trace::Trace::span_model()).  Deterministic: shares tie-break toward
/// the smaller region handle.
[[nodiscard]] WorkSpanSummary compute_workspan(const trace::Trace& trace,
                                               const RegionRegistry& registry);

}  // namespace taskprof::diag

// Structural invariant checker for completed profiles.
//
// The Fig. 12 task-profiling algorithm promises structural guarantees
// that hold for *every* legal schedule: stub nodes appear only under
// scheduling points of the implicit task, the time recorded in the
// implicit tree's stubs equals the time recorded in the task trees,
// every executed instance is one visit of its construct's root, durations
// are never negative or double-counted, and the scheduler's telemetry
// counters agree with the call tree.  check_profile() walks a finalized
// AggregateProfile and reports every violated guarantee as a string —
// it never asserts, so the fuzzer (src/check/fuzz.hpp) can collect
// violations across seeds and shrink the failing case.
//
// The checks assume the default MeasureOptions (stub nodes on,
// execution-site attribution); pass the options actually used so checks
// that do not apply are skipped.
#pragma once

#include <string>
#include <vector>

#include "measure/aggregate.hpp"
#include "measure/task_profiler.hpp"
#include "profile/region.hpp"
#include "rt/runtime.hpp"
#include "telemetry/telemetry.hpp"

namespace taskprof::check {

/// Outcome of one check_profile() walk.
struct InvariantReport {
  /// One human-readable line per violated invariant, each prefixed with a
  /// stable tag ("[stub-placement] ...", "[conservation] ...").
  std::vector<std::string> violations;
  std::size_t nodes_checked = 0;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }

  /// All violations joined with newlines ("" when ok).
  [[nodiscard]] std::string to_string() const;
};

/// Walk `profile` and verify the paper's structural guarantees.  `stats`
/// and `telemetry` are optional; when given, cross-layer consistency
/// (engine counters vs. call tree vs. telemetry) is verified too.  The
/// telemetry snapshot must cover exactly the measured run(s).
///
/// Profiles flagged partial_capture (mid-run crash-safe snapshots) keep
/// every per-node structural check and stub-vs-task-tree time
/// conservation (the capture closes every open frame), but skip the
/// whole-run cross-checks that a capture instant cannot satisfy: the
/// engine-stats and telemetry comparisons.
[[nodiscard]] InvariantReport check_profile(
    const AggregateProfile& profile, const RegionRegistry& registry,
    const rt::TeamStats* stats = nullptr,
    const telemetry::Snapshot* telemetry = nullptr,
    const MeasureOptions& options = {});

}  // namespace taskprof::check

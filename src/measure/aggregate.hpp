// Cross-thread aggregation of per-thread profiles, and the one fold of
// one profile's trees into another.
//
// Each thread builds its own trees (lock-free measurement, paper §IV-A);
// for reporting, the per-thread trees are merged into one system view:
// implicit-task trees merge node-by-node (identical region identity), and
// the per-construct task trees of all threads merge per construct.  The
// mid-run capture, `.tpsnap` merge and the ingest daemon's delta apply
// fold whole profiles the same way, through fold_trees.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "measure/task_profiler.hpp"
#include "profile/calltree.hpp"

namespace taskprof {

/// Whole-program profile, merged over all threads.  Owns its node pool;
/// movable, not copyable.
struct AggregateProfile {
  NodePool pool;
  CallNode* implicit_root = nullptr;     ///< merged main tree (sums over threads)
  std::vector<CallNode*> task_roots;     ///< merged per-construct task trees
  std::size_t thread_count = 0;
  std::uint64_t total_task_switches = 0;
  std::uint64_t total_folded_events = 0;  ///< enters folded by depth limits
  std::size_t max_concurrent_any_thread = 0;  ///< Table II value
  std::vector<std::size_t> max_concurrent_per_thread;

  /// True when this profile is a mid-run crash-safe capture
  /// (Instrumentor::capture_snapshot / the snapshot flusher): every open
  /// frame, in-flight task instances' included, was closed at the
  /// capture instant, so the profile covers the run up to then while the
  /// engine's and telemetry's counters run on — check_profile skips
  /// exactly those cross-checks, and the text report prints a
  /// partial-capture banner.  Survives serialization (src/snapshot).
  bool partial_capture = false;

  AggregateProfile() = default;
  AggregateProfile(AggregateProfile&&) = default;
  AggregateProfile& operator=(AggregateProfile&&) = default;
  AggregateProfile(const AggregateProfile&) = delete;
  AggregateProfile& operator=(const AggregateProfile&) = delete;

  /// Find the merged task tree for a construct (kInvalidRegion -> nullptr).
  [[nodiscard]] const CallNode* task_root(RegionHandle region) const noexcept;
};

/// Fold one profile's trees into `out`: `implicit_root` into
/// out.implicit_root, and each task root into the root of `out` with the
/// same (region, parameter), appended to out.task_roots when missing.
/// Source handles are translated through `remap` (empty: the trees use
/// `out`'s registry), and `hook` runs on every node pair
/// (merge_subtree).  Returns false, folding nothing, when both implicit
/// roots exist and differ in region or parameter: the two profiles
/// cannot describe the same program.
[[nodiscard]] bool fold_trees(AggregateProfile& out,
                              const CallNode* implicit_root,
                              std::span<const CallNode* const> task_roots,
                              std::span<const RegionHandle> remap = {},
                              const MergeHook& hook = {});

/// Fold one thread's view into `out`: its trees (fold_trees, with `hook`)
/// and its scalars (one more thread, switches and folds summed, its
/// concurrency mark appended).
void fold_thread(AggregateProfile& out, const ThreadProfileView& view,
                 const MergeHook& hook = {});

/// Merge the given per-thread views.  Views must stay valid for the call.
[[nodiscard]] AggregateProfile aggregate_profiles(
    std::span<const ThreadProfileView> views);

}  // namespace taskprof

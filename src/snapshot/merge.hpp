// Cross-process snapshot collation (`taskprof_cli merge`).
//
// Snapshots from different processes (or different runs) name regions
// with different handles; merging first re-registers the source's
// regions into the destination registry — deduplicating on (name, type),
// exactly like a kernel re-registering its regions — and then merges the
// call trees with every source handle remapped, summing visits and
// inclusive times and folding the per-visit min/max/count statistics.
// Profile-wide scalars sum (threads, task switches, folds) or take the
// maximum (concurrency high-water marks); telemetry counters sum and
// gauges max.  The result projects identically to a profile produced by
// one process that had run all the work (the merge-correctness test
// proves this with src/check's differ).
#pragma once

#include <string>
#include <vector>

#include "snapshot/snapshot.hpp"

namespace taskprof::snapshot {

/// Fold `src` into `dst` in place (fold_trees).  Throws, leaving `dst`
/// unchanged: SnapshotError(kMalformed) when the snapshots cannot
/// describe the same program (implicit roots that differ in region or
/// parameter), SnapshotError(kLimit) when a summed thread, concurrency
/// mark or telemetry row count would exceed kMaxThreads.
void merge_snapshot_into(SnapshotData& dst, const SnapshotData& src);

/// Read every file and fold them left to right into the first.
[[nodiscard]] SnapshotData merge_snapshot_files(
    const std::vector<std::string>& paths);

}  // namespace taskprof::snapshot

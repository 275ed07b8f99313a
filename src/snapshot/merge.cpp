#include "snapshot/merge.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace taskprof::snapshot {

void merge_snapshot_into(SnapshotData& dst, const SnapshotData& src) {
  TASKPROF_ASSERT(dst.registry != nullptr && src.registry != nullptr,
                  "merge of snapshot without a registry");
  // Region handle translation: re-register every source region into the
  // destination registry (dedupe on name/type gives stable handles).
  const std::vector<RegionHandle> remap = dst.registry->adopt(*src.registry);
  AggregateProfile& dp = dst.profile;
  const AggregateProfile& sp = src.profile;

  if (!fold_trees(dp, sp.implicit_root, sp.task_roots, remap)) {
    throw SnapshotError(Errc::kMalformed, "<merge>",
                        "snapshots disagree on the implicit root");
  }

  dp.thread_count += sp.thread_count;
  dp.total_task_switches += sp.total_task_switches;
  dp.total_folded_events += sp.total_folded_events;
  dp.max_concurrent_any_thread =
      std::max(dp.max_concurrent_any_thread, sp.max_concurrent_any_thread);
  dp.max_concurrent_per_thread.insert(dp.max_concurrent_per_thread.end(),
                                      sp.max_concurrent_per_thread.begin(),
                                      sp.max_concurrent_per_thread.end());
  dp.partial_capture = dp.partial_capture || sp.partial_capture;

  dst.meta.flush_seq = std::max(dst.meta.flush_seq, src.meta.flush_seq);
  if (dst.meta.process_id != src.meta.process_id) dst.meta.process_id = 0;

  if (src.has_telemetry) {
    if (!dst.has_telemetry) {
      dst.telemetry = src.telemetry;
      dst.has_telemetry = true;
    } else {
      telemetry::merge_into(dst.telemetry, src.telemetry);
    }
  }
}

SnapshotData merge_snapshot_files(const std::vector<std::string>& paths) {
  TASKPROF_ASSERT(!paths.empty(), "merge of zero snapshots");
  SnapshotData merged = read_snapshot_file(paths.front());
  for (std::size_t i = 1; i < paths.size(); ++i) {
    const SnapshotData next = read_snapshot_file(paths[i]);
    merge_snapshot_into(merged, next);
  }
  return merged;
}

}  // namespace taskprof::snapshot

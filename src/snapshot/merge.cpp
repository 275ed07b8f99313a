#include "snapshot/merge.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace taskprof::snapshot {

namespace {

void check_sum(std::size_t a, std::size_t b, const char* what) {
  if (a > kMaxThreads || b > kMaxThreads - a) {
    throw SnapshotError(Errc::kLimit, "<merge>", what);
  }
}

/// Whether both implicit roots name the same region (registries dedupe
/// regions on name and type) with the same parameter.
bool same_implicit_root(const SnapshotData& dst, const SnapshotData& src) {
  const CallNode* a = dst.profile.implicit_root;
  const CallNode* b = src.profile.implicit_root;
  if (a == nullptr || b == nullptr) return true;
  const RegionInfo& ra = dst.registry->info(a->region);
  const RegionInfo& rb = src.registry->info(b->region);
  return ra.name == rb.name && ra.type == rb.type &&
         a->parameter == b->parameter;
}

}  // namespace

void merge_snapshot_into(SnapshotData& dst, const SnapshotData& src) {
  TASKPROF_ASSERT(dst.registry != nullptr && src.registry != nullptr,
                  "merge of snapshot without a registry");
  AggregateProfile& dp = dst.profile;
  const AggregateProfile& sp = src.profile;

  // Refuse before anything changes, registry included: a merge folds all
  // of `src` or leaves `dst` as it was.  Sums stay within what the
  // decoder accepts, so `merge` never writes a file `load` rejects.
  check_sum(dp.thread_count, sp.thread_count, "thread count");
  check_sum(dp.max_concurrent_per_thread.size(),
            sp.max_concurrent_per_thread.size(), "per-thread mark count");
  if (src.has_telemetry && dst.has_telemetry) {
    check_sum(static_cast<std::size_t>(dst.telemetry.threads),
              static_cast<std::size_t>(src.telemetry.threads),
              "telemetry thread count");
    check_sum(dst.telemetry.per_thread.size(), src.telemetry.per_thread.size(),
              "per-thread row count");
  }
  if (!same_implicit_root(dst, src)) {
    throw SnapshotError(Errc::kMalformed, "<merge>",
                        "snapshots disagree on the implicit root");
  }

  // Region handle translation: re-register every source region into the
  // destination registry (dedupe on name/type gives stable handles).
  const std::vector<RegionHandle> remap = dst.registry->adopt(*src.registry);
  const bool folded = fold_trees(dp, sp.implicit_root, sp.task_roots, remap);
  TASKPROF_ASSERT(folded, "implicit roots agreed before the fold");

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

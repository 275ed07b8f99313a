#include "measure/aggregate.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace taskprof {

const CallNode* AggregateProfile::task_root(
    RegionHandle region) const noexcept {
  for (const CallNode* root : task_roots) {
    if (root->region == region) return root;
  }
  return nullptr;
}

bool fold_trees(AggregateProfile& out, const CallNode* implicit_root,
                std::span<const CallNode* const> task_roots,
                std::span<const RegionHandle> remap, const MergeHook& hook) {
  const auto region_of = [remap](const CallNode* node) {
    return remap.empty() ? node->region : remap[node->region];
  };
  if (implicit_root != nullptr) {
    const RegionHandle region = region_of(implicit_root);
    if (out.implicit_root == nullptr) {
      out.implicit_root = out.pool.allocate(region, implicit_root->parameter,
                                            false, nullptr);
    } else if (out.implicit_root->region != region ||
               out.implicit_root->parameter != implicit_root->parameter) {
      return false;
    }
    merge_subtree(out.pool, out.implicit_root, implicit_root, remap, hook);
  }
  // Indexed root lookup: with per-depth parameter profiling a profile can
  // carry hundreds of roots, and a linear rescan per source root would
  // make the fold O(R^2) in the root count.
  ChildIndex roots;
  for (CallNode* root : out.task_roots) roots.insert(root);
  for (const CallNode* src_root : task_roots) {
    const RegionHandle region = region_of(src_root);
    CallNode* dst_root = roots.find(region, src_root->parameter, false);
    if (dst_root == nullptr) {
      dst_root = out.pool.allocate(region, src_root->parameter, false, nullptr);
      out.task_roots.push_back(dst_root);
      roots.insert(dst_root);
    }
    merge_subtree(out.pool, dst_root, src_root, remap, hook);
  }
  return true;
}

void fold_thread(AggregateProfile& out, const ThreadProfileView& view,
                 const MergeHook& hook) {
  ++out.thread_count;
  out.total_task_switches += view.task_switches;
  out.total_folded_events += view.folded_events;
  out.max_concurrent_per_thread.push_back(view.max_concurrent_instances);
  out.max_concurrent_any_thread =
      std::max(out.max_concurrent_any_thread, view.max_concurrent_instances);
  const bool same_program =
      fold_trees(out, view.implicit_root, view.task_roots, {}, hook);
  TASKPROF_ASSERT(same_program, "threads disagree on the implicit root");
}

AggregateProfile aggregate_profiles(
    std::span<const ThreadProfileView> views) {
  AggregateProfile out;
  for (const ThreadProfileView& view : views) fold_thread(out, view);
  return out;
}

}  // namespace taskprof

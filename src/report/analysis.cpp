#include "report/analysis.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>

namespace taskprof {

namespace {

/// Sum exclusive time and visits of every node of type `type` under
/// `root` whose name matches `name` (empty = any name of that type).
struct TypeTotals {
  Ticks exclusive = 0;
  Ticks inclusive = 0;
  std::uint64_t visits = 0;
};

TypeTotals totals_for_type(const CallNode* root,
                           const RegionRegistry& registry, RegionType type,
                           const std::string& name = {}) {
  TypeTotals totals;
  for_each_node(root, [&](const CallNode& node, int) {
    const RegionInfo& info = registry.info(node.region);
    if (info.type != type) return;
    if (!name.empty() && info.name != name) return;
    totals.exclusive += node.exclusive();
    totals.inclusive += node.inclusive;
    totals.visits += node.visits;
  });
  return totals;
}

/// Creation totals for every "create <name>" region, keyed by the region
/// name, built in ONE pass over all trees.  stats_for_root used to rescan
/// every tree per construct, making report generation O(constructs x
/// nodes); per-depth parameter profiling has hundreds of constructs.
using CreateTotalsMap = std::unordered_map<std::string, TypeTotals>;

CreateTotalsMap collect_create_totals(const AggregateProfile& profile,
                                      const RegionRegistry& registry) {
  CreateTotalsMap totals;
  const auto scan = [&](const CallNode* root) {
    for_each_node(root, [&](const CallNode& node, int) {
      const RegionInfo& info = registry.info(node.region);
      if (info.type != RegionType::kTaskCreate) return;
      TypeTotals& entry = totals[info.name];
      entry.exclusive += node.exclusive();
      entry.inclusive += node.inclusive;
      entry.visits += node.visits;
    });
  };
  scan(profile.implicit_root);
  for (const CallNode* root : profile.task_roots) scan(root);
  return totals;
}

TaskConstructStats stats_for_root(const CreateTotalsMap& create_totals,
                                  const RegionRegistry& registry,
                                  const CallNode* root) {
  TaskConstructStats stats;
  stats.region = root->region;
  stats.name = registry.info(root->region).name;
  stats.parameter = root->parameter;
  stats.instances = root->visits;
  stats.inclusive_total = root->inclusive;
  stats.inclusive_min = root->visit_stats.count > 0 ? root->visit_stats.min : 0;
  stats.inclusive_max = root->visit_stats.count > 0 ? root->visit_stats.max : 0;
  stats.inclusive_mean = root->visit_stats.mean();
  stats.exclusive_total = root->exclusive();

  const TypeTotals waits =
      totals_for_type(root, registry, RegionType::kTaskwait);
  stats.taskwait_total = waits.exclusive;
  stats.taskwaits = waits.visits;

  // Creation happens wherever the construct is encountered; look up the
  // paired "create <name>" region in the pre-collected totals.
  TypeTotals creates;
  if (const auto it = create_totals.find("create " + stats.name);
      it != create_totals.end()) {
    creates = it->second;
  }
  stats.creations = creates.visits;
  stats.create_total = creates.exclusive;
  stats.create_mean =
      creates.visits == 0
          ? 0.0
          : static_cast<double>(creates.exclusive) /
                static_cast<double>(creates.visits);
  return stats;
}

}  // namespace

std::vector<TaskConstructStats> task_construct_stats(
    const AggregateProfile& profile, const RegionRegistry& registry) {
  std::vector<TaskConstructStats> out;
  out.reserve(profile.task_roots.size());
  const CreateTotalsMap create_totals = collect_create_totals(profile, registry);
  for (const CallNode* root : profile.task_roots) {
    out.push_back(stats_for_root(create_totals, registry, root));
  }
  return out;
}

std::vector<TaskConstructStats> parameter_breakdown(
    const AggregateProfile& profile, const RegionRegistry& registry,
    RegionHandle task_region) {
  std::vector<TaskConstructStats> rows;
  const CreateTotalsMap create_totals = collect_create_totals(profile, registry);
  for (const CallNode* root : profile.task_roots) {
    if (root->region != task_region || root->parameter == kNoParameter) {
      continue;
    }
    rows.push_back(stats_for_root(create_totals, registry, root));
  }
  std::sort(rows.begin(), rows.end(),
            [](const TaskConstructStats& a, const TaskConstructStats& b) {
              return a.parameter < b.parameter;
            });
  return rows;
}

SchedulingPointSummary scheduling_point_summary(
    const AggregateProfile& profile, const RegionRegistry& registry) {
  SchedulingPointSummary out;

  // One pass per tree: barrier/parallel classification and the
  // taskwait/create exclusives accumulate in the same walk (this used to
  // be five separate whole-tree traversals of the implicit tree plus two
  // per task root).
  const auto scan = [&](const CallNode* root, bool classify_sync) {
    for_each_node(root, [&](const CallNode& node, int) {
      const RegionInfo& info = registry.info(node.region);
      switch (info.type) {
        case RegionType::kBarrier:
        case RegionType::kImplicitBarrier:
          if (!classify_sync) break;
          out.barrier_inclusive += node.inclusive;
          out.barrier_exclusive += node.exclusive();
          out.barrier_visits += node.visits;
          for (const CallNode* child = node.first_child; child != nullptr;
               child = child->next_sibling) {
            if (child->is_stub) out.barrier_stub_time += child->inclusive;
          }
          break;
        case RegionType::kParallel:
          if (classify_sync) out.parallel_inclusive += node.inclusive;
          break;
        case RegionType::kTaskwait:
          out.taskwait_exclusive += node.exclusive();
          break;
        case RegionType::kTaskCreate:
          out.create_exclusive += node.exclusive();
          break;
        default:
          break;
      }
    });
  };
  scan(profile.implicit_root, /*classify_sync=*/true);
  for (const CallNode* root : profile.task_roots) {
    scan(root, /*classify_sync=*/false);
  }
  return out;
}

}  // namespace taskprof

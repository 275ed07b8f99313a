#include "check/invariants.hpp"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>

#include "profile/calltree.hpp"

namespace taskprof::check {

namespace {

constexpr std::size_t kMaxViolations = 100;

/// Collects violations with printf formatting and a suppression cap (a
/// single corrupt merge can taint thousands of nodes; the first hundred
/// lines identify it).
class Collector {
 public:
  explicit Collector(InvariantReport& report) : report_(report) {}

  [[gnu::format(printf, 3, 4)]] void fail(const char* tag, const char* fmt,
                                          ...) {
    ++total_;
    if (total_ > kMaxViolations) return;
    char buf[512];
    int off = std::snprintf(buf, sizeof buf, "[%s] ", tag);
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf + off, sizeof buf - static_cast<std::size_t>(off), fmt,
                   args);
    va_end(args);
    report_.violations.emplace_back(buf);
  }

  void finish() {
    if (total_ > kMaxViolations) {
      report_.violations.push_back(
          "[suppressed] " + std::to_string(total_ - kMaxViolations) +
          " further violations");
    }
  }

 private:
  InvariantReport& report_;
  std::size_t total_ = 0;
};

/// Per-tree accumulation used by the cross-tree conservation checks.
struct TreeTotals {
  Ticks stub_inclusive = 0;          ///< summed over stub nodes
  std::uint64_t create_visits = 0;   ///< visits of kTaskCreate nodes
  std::uint64_t taskwait_visits = 0;
  std::uint64_t barrier_visits = 0;  ///< kBarrier + kImplicitBarrier
  std::uint64_t stub_count = 0;
};

const char* node_name(const CallNode& node, const RegionRegistry& registry) {
  if (node.region >= registry.size()) return "<invalid region>";
  return registry.info(node.region).name.c_str();
}

/// Checks that apply to every node of every tree.
void check_node(const CallNode& node, const RegionRegistry& registry,
                bool in_implicit_tree, const MeasureOptions& options,
                Collector& out, TreeTotals& totals) {
  const char* name = node_name(node, registry);
  if (node.region >= registry.size()) {
    out.fail("region-handle", "node has region handle %u outside registry",
             node.region);
    return;  // type-based checks are meaningless for this node
  }
  const RegionType type = registry.info(node.region).type;

  // Parent backlink integrity: merge must preserve the intrusive links.
  // The same pass validates the maintained child metadata (counter, tail
  // pointer) and the lookup accelerators (hot_child, child_index) against
  // the sibling list, which stays the source of truth.
  std::size_t counted_children = 0;
  const CallNode* tail = nullptr;
  bool hot_child_found = node.hot_child == nullptr;
  for (const CallNode* child = node.first_child; child != nullptr;
       child = child->next_sibling) {
    if (child->parent != &node) {
      out.fail("tree-links", "child '%s' of '%s' has a stale parent link",
               node_name(*child, registry), name);
    }
    ++counted_children;
    tail = child;
    if (child == node.hot_child) hot_child_found = true;
    if (node.child_index != nullptr &&
        node.child_index->find(child->region, child->parameter,
                               child->is_stub) != child) {
      out.fail("child-index",
               "node '%s': child '%s' missing from the promoted index", name,
               node_name(*child, registry));
    }
  }
  if (node.n_children != counted_children) {
    out.fail("child-metadata",
             "node '%s': n_children %u != %zu children in the sibling list",
             name, node.n_children, counted_children);
  }
  if (node.last_child != tail) {
    out.fail("child-metadata", "node '%s': last_child does not point at the "
             "sibling-list tail", name);
  }
  if (!hot_child_found) {
    out.fail("child-metadata",
             "node '%s': hot_child points outside the child list", name);
  }
  if (node.child_index != nullptr &&
      node.child_index->size() != counted_children) {
    out.fail("child-index", "node '%s': index holds %zu entries for %zu "
             "children", name, node.child_index->size(), counted_children);
  }
  // Sibling identity uniqueness: a correct merge folds same-identity
  // children together; duplicates mean instances were attached, not merged.
  for (const CallNode* a = node.first_child; a != nullptr;
       a = a->next_sibling) {
    for (const CallNode* b = a->next_sibling; b != nullptr;
         b = b->next_sibling) {
      if (a->region == b->region && a->parameter == b->parameter &&
          a->is_stub == b->is_stub) {
        out.fail("merge-identity",
                 "node '%s' has duplicate children '%s' (parameter %" PRId64
                 ")",
                 name, node_name(*a, registry), a->parameter);
      }
    }
  }

  // A node exists because it was entered at least once.
  if (node.visits == 0) {
    out.fail("visits", "node '%s' exists but records zero visits", name);
  }

  // No negative or double-counted durations: inclusive covers the
  // children, so exclusive = inclusive - sum(children) must be >= 0.
  if (node.inclusive < 0) {
    out.fail("negative-time", "node '%s' has negative inclusive %" PRId64,
             name, node.inclusive);
  }
  if (node.exclusive() < 0) {
    out.fail("double-count",
             "node '%s': children sum to %" PRId64
             " > inclusive %" PRId64 " (time counted twice)",
             name, node.children_inclusive(), node.inclusive);
  }

  // Per-construct inclusive time must equal the sum of its fragment
  // times: the per-visit statistics were fed from the same clock reads.
  if (node.visit_stats.count != node.visits) {
    out.fail("fragment-count",
             "node '%s': %" PRIu64 " visits but %" PRIu64
             " recorded fragments",
             name, node.visits, node.visit_stats.count);
  }
  if (node.visit_stats.sum != node.inclusive) {
    out.fail("fragment-sum",
             "node '%s': fragment sum %" PRId64 " != inclusive %" PRId64,
             name, node.visit_stats.sum, node.inclusive);
  }
  if (node.visit_stats.count > 0) {
    const DurationStats& s = node.visit_stats;
    if (s.min > s.max || s.sum < s.min || s.sum > s.max * static_cast<Ticks>(
                                                             s.count)) {
      out.fail("fragment-range",
               "node '%s': min %" PRId64 " / max %" PRId64 " / sum %" PRId64
               " / count %" PRIu64 " inconsistent",
               name, s.min, s.max, s.sum, s.count);
    }
  }

  // Stub placement (paper §IV-B4): stubs exist only when enabled, only in
  // the implicit tree, only under scheduling points, and only as leaves
  // (task execution continues in the instance tree, never under the stub).
  if (node.is_stub) {
    ++totals.stub_count;
    totals.stub_inclusive += node.inclusive;
    if (!options.stub_nodes) {
      out.fail("stub-placement", "stub '%s' with stub_nodes disabled", name);
    }
    if (!in_implicit_tree && !options.creation_site_attribution) {
      out.fail("stub-placement", "stub '%s' inside a merged task tree", name);
    }
    if (node.parent == nullptr) {
      out.fail("stub-placement", "stub '%s' is a tree root", name);
    } else if (node.parent->region < registry.size() &&
               !is_scheduling_point(registry.info(node.parent->region).type)) {
      out.fail("stub-placement",
               "stub '%s' under '%s' (%s), not a scheduling point", name,
               node_name(*node.parent, registry),
               std::string(region_type_name(
                               registry.info(node.parent->region).type))
                   .c_str());
    }
    if (node.first_child != nullptr) {
      out.fail("stub-placement", "stub '%s' has children", name);
    }
  }

  switch (type) {
    case RegionType::kTaskCreate:
      totals.create_visits += node.visits;
      break;
    case RegionType::kTaskwait:
      totals.taskwait_visits += node.visits;
      break;
    case RegionType::kBarrier:
    case RegionType::kImplicitBarrier:
      totals.barrier_visits += node.visits;
      break;
    default:
      break;
  }
}

}  // namespace

std::string InvariantReport::to_string() const {
  std::string out;
  for (const std::string& v : violations) {
    if (!out.empty()) out += '\n';
    out += v;
  }
  return out;
}

InvariantReport check_profile(const AggregateProfile& profile,
                              const RegionRegistry& registry,
                              const rt::TeamStats* stats,
                              const telemetry::Snapshot* telemetry,
                              const MeasureOptions& options) {
  InvariantReport report;
  Collector out(report);

  if (profile.implicit_root == nullptr) {
    out.fail("structure", "profile has no implicit root");
    out.finish();
    return report;
  }

  TreeTotals totals;
  Ticks task_tree_inclusive = 0;
  std::uint64_t task_root_visits = 0;

  for_each_node(profile.implicit_root, [&](const CallNode& node, int) {
    ++report.nodes_checked;
    check_node(node, registry, /*in_implicit_tree=*/true, options, out,
               totals);
  });
  for (const CallNode* root : profile.task_roots) {
    if (root == nullptr) {
      out.fail("structure", "null merged task root");
      continue;
    }
    if (root->region < registry.size() &&
        registry.info(root->region).type != RegionType::kTask) {
      out.fail("structure", "merged task root '%s' is not a task construct",
               node_name(*root, registry));
    }
    task_tree_inclusive += root->inclusive;
    task_root_visits += root->visits;
    for_each_node(root, [&](const CallNode& node, int) {
      ++report.nodes_checked;
      check_node(node, registry, /*in_implicit_tree=*/false, options, out,
                 totals);
    });
  }

  // The merged implicit root accumulates one visit per thread.
  if (profile.implicit_root->visits != profile.thread_count) {
    out.fail("merge-conservation",
             "implicit root visits %" PRIu64 " != thread count %zu",
             profile.implicit_root->visits, profile.thread_count);
  }
  if (profile.max_concurrent_per_thread.size() != profile.thread_count) {
    out.fail("structure",
             "per-thread concurrency marks: %zu entries for %zu threads",
             profile.max_concurrent_per_thread.size(), profile.thread_count);
  } else {
    std::size_t max_seen = 0;
    for (std::size_t mark : profile.max_concurrent_per_thread) {
      if (mark > max_seen) max_seen = mark;
    }
    if (max_seen != profile.max_concurrent_any_thread) {
      out.fail("structure",
               "max_concurrent_any_thread %zu != max over threads %zu",
               profile.max_concurrent_any_thread, max_seen);
    }
  }

  // Time conservation between the two views of task execution: every tick
  // a task ran is bracketed by a stub visit in the implicit tree and by
  // the task's root frame in its construct tree, from the same clock
  // reads.  A partial capture closes both at the same instants (open
  // frames at the last event, a suspended instance's at its suspend
  // instant), so the pairing holds for it too.
  if (options.stub_nodes && options.pause_on_suspend &&
      !options.creation_site_attribution) {
    if (totals.stub_inclusive != task_tree_inclusive) {
      out.fail("conservation",
               "stub time %" PRId64 " != merged task-tree time %" PRId64,
               totals.stub_inclusive, task_tree_inclusive);
    }
  }

  // Engine stats and telemetry describe the run up to *now*, the profile
  // describes the run up to its capture instant; for a mid-run partial
  // capture those two points differ, so the cross-checks against them are
  // meaningful only for a finalized profile.
  if (stats != nullptr && !profile.partial_capture) {
    // Visits conserved across merge: every executed instance contributes
    // exactly one visit to its construct's merged root.
    if (task_root_visits != stats->tasks_executed) {
      out.fail("merge-conservation",
               "merged task-root visits %" PRIu64
               " != tasks executed %" PRIu64,
               task_root_visits, stats->tasks_executed);
    }
    // Creation vs. execution: every created task ran to completion inside
    // the region (the implicit barrier drains the queues), and every
    // creation passed through a "create" region node.
    if (stats->tasks_created != stats->tasks_executed) {
      out.fail("engine-stats",
               "tasks created %" PRIu64 " != tasks executed %" PRIu64
               " after region end",
               stats->tasks_created, stats->tasks_executed);
    }
    if (totals.create_visits != stats->tasks_created) {
      out.fail("creation-attribution",
               "create-region visits %" PRIu64 " != tasks created %" PRIu64,
               totals.create_visits, stats->tasks_created);
    }
    if (stats->steals > stats->steal_attempts) {
      out.fail("engine-stats",
               "steals %" PRIu64 " > steal attempts %" PRIu64, stats->steals,
               stats->steal_attempts);
    }
    if (stats->tasks_executed > 0 &&
        (profile.max_concurrent_any_thread < 1 ||
         profile.max_concurrent_any_thread > stats->tasks_executed)) {
      out.fail("concurrency-bound",
               "max concurrent instances %zu outside [1, %" PRIu64 "]",
               profile.max_concurrent_any_thread, stats->tasks_executed);
    }
  }

  if (telemetry != nullptr && !profile.partial_capture) {
    const auto counter = [&](telemetry::Counter c) {
      return telemetry->counter(c);
    };
    using C = telemetry::Counter;
    if (stats != nullptr) {
      if (counter(C::kTasksExecuted) != stats->tasks_executed) {
        out.fail("telemetry",
                 "tasks_executed counter %" PRIu64 " != engine stats %" PRIu64,
                 counter(C::kTasksExecuted), stats->tasks_executed);
      }
      if (counter(C::kTasksCreated) != stats->tasks_created) {
        out.fail("telemetry",
                 "tasks_created counter %" PRIu64 " != engine stats %" PRIu64,
                 counter(C::kTasksCreated), stats->tasks_created);
      }
    }
    if (counter(C::kTasksDeferred) + counter(C::kTasksUndeferred) !=
        counter(C::kTasksCreated)) {
      out.fail("telemetry",
               "deferred %" PRIu64 " + undeferred %" PRIu64
               " != created %" PRIu64,
               counter(C::kTasksDeferred), counter(C::kTasksUndeferred),
               counter(C::kTasksCreated));
    }
    if (counter(C::kStealSuccesses) > counter(C::kStealAttempts)) {
      out.fail("telemetry",
               "steal successes %" PRIu64 " > attempts %" PRIu64,
               counter(C::kStealSuccesses), counter(C::kStealAttempts));
    }
    // Scheduling-point entries pair 1:1 with the construct nodes' visits
    // (both are driven by the same engine callbacks).
    if (counter(C::kTaskwaitEntries) != totals.taskwait_visits) {
      out.fail("telemetry",
               "taskwait entries %" PRIu64 " != taskwait node visits %" PRIu64,
               counter(C::kTaskwaitEntries), totals.taskwait_visits);
    }
    if (counter(C::kBarrierEntries) != totals.barrier_visits) {
      out.fail("telemetry",
               "barrier entries %" PRIu64 " != barrier node visits %" PRIu64,
               counter(C::kBarrierEntries), totals.barrier_visits);
    }
  }

  out.finish();
  return report;
}

}  // namespace taskprof::check

#include "ingest/delta.hpp"

#include "common/assert.hpp"
#include "profile/calltree.hpp"
#include "snapshot/format.hpp"

namespace taskprof::ingest {

using snapshot::Errc;
using snapshot::SnapshotData;
using snapshot::SnapshotError;

namespace {

/// Require base <= cur on every counter a delta difference-encodes.
/// visit_stats are exempt: they ride as the whole current accumulator
/// (replaced on apply), so they may move any direction between flushes.
void check_monotone(const CallNode& cur, const CallNode& base) {
  const bool ok = base.visits <= cur.visits && base.inclusive <= cur.inclusive;
  if (!ok) {
    throw SnapshotError(Errc::kMalformed, "<delta>",
                        "baseline counters exceed the current capture");
  }
}

[[nodiscard]] bool node_changed(const CallNode& cur, const CallNode* base) {
  if (base == nullptr) return true;
  check_monotone(cur, *base);
  return cur.visits != base->visits || cur.inclusive != base->inclusive ||
         cur.visit_stats.count != base->visit_stats.count ||
         cur.visit_stats.sum != base->visit_stats.sum ||
         cur.visit_stats.min != base->visit_stats.min ||
         cur.visit_stats.max != base->visit_stats.max;
}

/// Emit the pruned difference tree for one (cur, base) root pair into
/// `out`.  Returns nullptr when nothing under the root changed and
/// `force_root` is false.
CallNode* subtract_tree(NodePool& pool, const CallNode* cur_root,
                        const CallNode* base_root, bool force_root,
                        DeltaResult& totals) {
  // Iterative preorder listing: delta subtraction runs on the producer's
  // flusher thread against arbitrarily deep recursion trees.  base[i] is
  // the baseline node of recs[i]'s identity, nullptr when it is new.
  const auto recs = collect_preorder(cur_root);
  std::vector<const CallNode*> base(recs.size(), nullptr);
  std::vector<std::uint8_t> changed(recs.size(), 0);
  std::vector<std::uint8_t> include(recs.size(), 0);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const CallNode& c = *recs[i].node;
    base[i] = i == 0 ? base_root
                     : find_child(base[recs[i].parent], c.region, c.parameter,
                                  c.is_stub);
    changed[i] = node_changed(c, base[i]) ? 1 : 0;
    include[i] = changed[i];
  }
  for (std::size_t i = recs.size(); i-- > 1;) {
    if (include[i]) include[recs[i].parent] = 1;
  }
  if (!include[0] && !force_root) return nullptr;
  include[0] = 1;

  std::vector<CallNode*> built(recs.size(), nullptr);
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (!include[i]) continue;
    const CallNode& c = *recs[i].node;
    CallNode* parent = i == 0 ? nullptr : built[recs[i].parent];
    CallNode* d = pool.allocate(c.region, c.parameter, c.is_stub, parent);
    built[i] = d;
    const CallNode* b = base[i];
    if (b == nullptr) {
      d->visits = c.visits;
      d->inclusive = c.inclusive;
    } else {
      d->visits = c.visits - b->visits;
      d->inclusive = c.inclusive - b->inclusive;
    }
    // visit_stats ride wholesale, not difference-encoded: producers
    // account in-progress visits provisionally, so between captures sum
    // can grow with no new completions and min can *rise* once a long
    // visit completes and replaces its provisional sample.  The codec
    // also cannot express count==0 stats, so a pure sum diff has no wire
    // representation.  Apply replaces instead of merging.
    d->visit_stats = c.visit_stats;
    if (changed[i]) {
      ++totals.changed_nodes;
    } else {
      ++totals.carried_nodes;
    }
    totals.visits_delta += d->visits;
  }
  return built[0];
}

/// Require that `base`'s registry is a handle-aligned prefix of `cur`'s
/// (registries only grow within one producer process).
void check_registry_prefix(const RegionRegistry& cur,
                           const RegionRegistry& base) {
  if (base.size() > cur.size()) {
    throw SnapshotError(Errc::kMalformed, "<delta>",
                        "baseline registry larger than current");
  }
  for (RegionHandle h = 0; h < base.size(); ++h) {
    const RegionInfo& b = base.info(h);
    const RegionInfo& c = cur.info(h);
    if (b.name != c.name || b.type != c.type) {
      throw SnapshotError(Errc::kMalformed, "<delta>",
                          "baseline registry is not a prefix of current");
    }
  }
}

}  // namespace

SnapshotData clone_snapshot(const SnapshotData& data) {
  return snapshot::decode_snapshot(snapshot::encode_snapshot(data), "<clone>");
}

DeltaResult subtract_snapshot(const SnapshotData& cur,
                              const SnapshotData* base) {
  TASKPROF_ASSERT(cur.registry != nullptr, "subtract without a registry");
  if (base != nullptr) {
    TASKPROF_ASSERT(base->registry != nullptr,
                    "subtract against a baseline without a registry");
    check_registry_prefix(*cur.registry, *base->registry);
  }

  DeltaResult result;
  SnapshotData& delta = result.snapshot;
  delta.registry = std::make_unique<RegionRegistry>();
  (void)delta.registry->adopt(*cur.registry);  // same handles: fresh registry

  // Envelope scalars ride cumulatively and are replaced on apply.
  delta.meta = cur.meta;
  AggregateProfile& dp = delta.profile;
  const AggregateProfile& cp = cur.profile;
  dp.thread_count = cp.thread_count;
  dp.total_task_switches = cp.total_task_switches;
  dp.total_folded_events = cp.total_folded_events;
  dp.max_concurrent_any_thread = cp.max_concurrent_any_thread;
  dp.max_concurrent_per_thread = cp.max_concurrent_per_thread;
  dp.partial_capture = cp.partial_capture;
  delta.has_telemetry = cur.has_telemetry;
  delta.telemetry = cur.telemetry;

  if (cp.implicit_root != nullptr) {
    const CallNode* base_root =
        base != nullptr ? base->profile.implicit_root : nullptr;
    if (base_root != nullptr &&
        (base_root->region != cp.implicit_root->region ||
         base_root->parameter != cp.implicit_root->parameter)) {
      throw SnapshotError(Errc::kMalformed, "<delta>",
                          "baseline disagrees on the implicit root");
    }
    // The implicit root is always carried so the delta stays a
    // well-formed profile even when only task trees moved.
    dp.implicit_root =
        subtract_tree(dp.pool, cp.implicit_root, base_root, true, result);
  }

  ChildIndex base_roots;
  if (base != nullptr) {
    for (CallNode* root : base->profile.task_roots) base_roots.insert(root);
  }
  for (const CallNode* cur_root : cp.task_roots) {
    const CallNode* base_root =
        base != nullptr ? base_roots.find(cur_root->region,
                                          cur_root->parameter, false)
                        : nullptr;
    CallNode* diff =
        subtract_tree(dp.pool, cur_root, base_root, false, result);
    if (diff != nullptr) dp.task_roots.push_back(diff);
  }
  return result;
}

ApplyStats apply_delta(SnapshotData& acc, const SnapshotData& delta,
                       std::uint64_t epoch, HeatMap* heat) {
  TASKPROF_ASSERT(delta.registry != nullptr, "apply of delta without registry");
  if (acc.registry == nullptr) {
    acc.registry = std::make_unique<RegionRegistry>();
  }

  const std::vector<RegionHandle> remap = acc.registry->adopt(*delta.registry);

  ApplyStats stats;
  AggregateProfile& ap = acc.profile;
  const AggregateProfile& sp = delta.profile;
  const std::size_t live_before = ap.pool.allocated() - ap.pool.free_count();

  // The walk sums the visit and inclusive differences; visit_stats carry
  // the producer's current accumulator and replace what the walk summed.
  const bool same_program = fold_trees(
      ap, sp.implicit_root, sp.task_roots, remap,
      [&](CallNode& dst, const CallNode& src) {
        dst.visit_stats = src.visit_stats;
        if (heat != nullptr) (*heat)[&dst] = epoch;
        ++stats.nodes_touched;
        stats.visits_added += src.visits;
      });
  if (!same_program) {
    throw SnapshotError(Errc::kMalformed, "<apply>",
                        "delta disagrees on the implicit root");
  }

  // Envelope scalars: the delta carries the producer's current
  // cumulative values, so replace (several of these concatenate or max
  // under cross-process merge and cannot be difference-encoded).
  ap.thread_count = sp.thread_count;
  ap.total_task_switches = sp.total_task_switches;
  ap.total_folded_events = sp.total_folded_events;
  ap.max_concurrent_any_thread = sp.max_concurrent_any_thread;
  ap.max_concurrent_per_thread = sp.max_concurrent_per_thread;
  ap.partial_capture = sp.partial_capture;
  acc.meta = delta.meta;
  acc.has_telemetry = delta.has_telemetry;
  acc.telemetry = delta.telemetry;

  const std::size_t live_after = ap.pool.allocated() - ap.pool.free_count();
  stats.nodes_created = live_after - live_before;
  return stats;
}

std::uint64_t total_visits(const AggregateProfile& profile) {
  std::uint64_t total = 0;
  const auto add = [&](const CallNode& node, int) { total += node.visits; };
  for_each_node(profile.implicit_root, add);
  for (const CallNode* root : profile.task_roots) for_each_node(root, add);
  return total;
}

Ticks total_root_inclusive(const AggregateProfile& profile) {
  Ticks total = 0;
  if (profile.implicit_root != nullptr) total += profile.implicit_root->inclusive;
  for (const CallNode* root : profile.task_roots) total += root->inclusive;
  return total;
}

}  // namespace taskprof::ingest

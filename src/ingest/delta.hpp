// Delta snapshots: subtract on the producer, apply on the daemon.
//
// A delta is itself a well-formed SnapshotData (it rides the wire as
// ordinary .tpsnap bytes) with split semantics:
//
//  * call trees are difference-encoded: a node appears only when its
//    counters moved since the acked baseline (or it is an ancestor of
//    one that did, carried with zero diffs to keep the path intact);
//    visits and inclusive hold the *difference*, while the whole
//    visit_stats accumulator carries the *current cumulative* value
//    and is replaced on apply — producers account in-progress visits
//    provisionally, so between captures sum can grow with no new
//    completions and min can rise once a long visit completes, which
//    no per-field difference encoding round-trips (and the codec
//    cannot express count==0 stats on the wire anyway);
//  * every profile-wide scalar (thread_count, task switches, folds,
//    concurrency marks, partial flag), the meta block, and the
//    telemetry section carry the current cumulative value and are
//    *replaced* on apply — they are tiny, and several of them
//    (per-thread mark lists, the telemetry matrix) concatenate rather
//    than sum under snapshot::merge, so difference-encoding them
//    cannot round-trip.
//
// Because the tree walk sums the differences and child lists are
// append-only in first-visit order, the daemon's reconstructed session
// cumulative is byte-identical (encode_snapshot) to the producer's —
// the differential tests assert exactly that.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "snapshot/snapshot.hpp"

namespace taskprof::ingest {

/// Deep copy via the canonical codec (SnapshotData is move-only).
[[nodiscard]] snapshot::SnapshotData clone_snapshot(
    const snapshot::SnapshotData& data);

/// A subtracted delta plus what it contains.
struct DeltaResult {
  snapshot::SnapshotData snapshot;
  std::uint64_t changed_nodes = 0;  ///< nodes whose counters moved
  std::uint64_t carried_nodes = 0;  ///< zero-diff ancestors kept for paths
  std::uint64_t visits_delta = 0;   ///< total visit mass in this delta
};

/// Subtract `base` (the last acked cumulative, or nullptr for a rebase /
/// first flush) from `cur`.  `base` must be an earlier capture of the
/// same process: its registry is a handle-aligned prefix of `cur`'s and
/// its visits / inclusive counters are pointwise <= `cur`'s.  Throws
/// snapshot::SnapshotError(kMalformed) when that contract is violated
/// (the producer then falls back to a rebase).
[[nodiscard]] DeltaResult subtract_snapshot(
    const snapshot::SnapshotData& cur,
    const snapshot::SnapshotData* base);

/// Node-heat bookkeeping for the daemon's LRU eviction: every node a
/// delta touches is stamped with the shard epoch of that merge.
using HeatMap = std::unordered_map<const CallNode*, std::uint64_t>;

struct ApplyStats {
  std::uint64_t nodes_touched = 0;
  std::uint64_t nodes_created = 0;
  std::uint64_t visits_added = 0;
};

/// Fold `delta` into the session cumulative `acc` (fold_trees, region
/// handles remapped through acc's registry): trees sum the differences
/// and replace each touched node's visit_stats; scalars / meta /
/// telemetry are replaced by the delta's cumulative values.  `heat`,
/// when non-null, records `epoch` for every touched node.  Throws
/// snapshot::SnapshotError(kMalformed) when the delta cannot describe
/// the same program as `acc` (implicit roots that differ in region or
/// parameter).
ApplyStats apply_delta(snapshot::SnapshotData& acc,
                       const snapshot::SnapshotData& delta,
                       std::uint64_t epoch, HeatMap* heat);

/// Total visit count over every node of every tree (the conserved mass
/// the eviction accounting must preserve exactly).
[[nodiscard]] std::uint64_t total_visits(const AggregateProfile& profile);

/// Sum of the root-level inclusive times (implicit root + task roots);
/// folding a subtree into an eviction stub cannot change it.
[[nodiscard]] Ticks total_root_inclusive(const AggregateProfile& profile);

}  // namespace taskprof::ingest

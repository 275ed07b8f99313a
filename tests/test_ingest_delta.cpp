// Delta snapshots: subtract(cur, base) then apply onto a clone of base
// reproduces cur byte-for-byte; non-monotone captures are rejected;
// carried ancestors keep paths intact; visit_stats survive exactly even
// when producers revise provisional in-progress samples; and evict_cold
// folds cold subtrees into "[evicted]" stubs without losing a single
// visit or tick.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "ingest/delta.hpp"
#include "ingest/protocol.hpp"
#include "ingest/session.hpp"
#include "snapshot/snapshot.hpp"

namespace taskprof::ingest {
namespace {

using snapshot::SnapshotData;
using snapshot::SnapshotError;

/// Two-stage synthetic producer: stage 0 is an early capture, stage 1 a
/// later one with strictly more mass, one brand-new region/subtree, a
/// smaller min sample, and changed profile-wide scalars.
SnapshotData capture(int stage) {
  SnapshotData data;
  data.registry = std::make_unique<RegionRegistry>();
  const RegionHandle implicit = data.registry->register_region(
      "implicit task", RegionType::kImplicitTask);
  const RegionHandle work =
      data.registry->register_region("work", RegionType::kFunction);
  AggregateProfile& p = data.profile;
  p.thread_count = 2;
  p.max_concurrent_per_thread = {1, 1};
  p.max_concurrent_any_thread = stage == 0 ? 1 : 2;
  p.total_task_switches = stage == 0 ? 3 : 9;
  p.implicit_root = p.pool.allocate(implicit, kNoParameter, false, nullptr);
  p.implicit_root->visits = stage == 0 ? 2 : 5;
  p.implicit_root->inclusive = stage == 0 ? 100 : 260;
  p.implicit_root->visit_stats.add(40);
  p.implicit_root->visit_stats.add(60);
  if (stage > 0) {
    p.implicit_root->visit_stats.add(30);  // new min: 30
    p.implicit_root->visit_stats.add(60);
    p.implicit_root->visit_stats.add(70);  // new max: 70
  }
  CallNode* worker =
      p.pool.allocate(work, kNoParameter, false, p.implicit_root);
  worker->visits = stage == 0 ? 1 : 1;  // untouched in stage 1
  worker->inclusive = 20;
  worker->visit_stats.add(20);
  if (stage > 0) {
    const RegionHandle late =
        data.registry->register_region("late_phase", RegionType::kFunction);
    CallNode* grand = p.pool.allocate(late, kNoParameter, false, worker);
    grand->visits = 3;
    grand->inclusive = 12;
    for (int i = 0; i < 3; ++i) grand->visit_stats.add(4);
  }
  data.meta.flush_seq = stage + 1;
  data.meta.process_id = 42;
  return data;
}

TEST(IngestDelta, CloneIsByteIdentical) {
  const SnapshotData cur = capture(1);
  const SnapshotData copy = clone_snapshot(cur);
  EXPECT_EQ(snapshot::encode_snapshot(cur), snapshot::encode_snapshot(copy));
}

TEST(IngestDelta, SubtractThenApplyReproducesCurExactly) {
  const SnapshotData base = capture(0);
  const SnapshotData cur = capture(1);
  const DeltaResult delta = subtract_snapshot(cur, &base);

  // The new subtree changed; its parent chain rode along as carriers.
  EXPECT_GT(delta.changed_nodes, 0u);
  EXPECT_GT(delta.carried_nodes, 0u);

  SnapshotData acc = clone_snapshot(base);
  HeatMap heat;
  const ApplyStats stats = apply_delta(acc, delta.snapshot, 7, &heat);
  EXPECT_GT(stats.nodes_created, 0u);
  EXPECT_EQ(stats.visits_added, delta.visits_delta);
  for (const auto& [node, epoch] : heat) EXPECT_EQ(epoch, 7u);

  EXPECT_EQ(snapshot::encode_snapshot(acc), snapshot::encode_snapshot(cur));
}

TEST(IngestDelta, RebaseAgainstNullIsTheFullSnapshot) {
  const SnapshotData cur = capture(1);
  const DeltaResult delta = subtract_snapshot(cur, nullptr);
  EXPECT_EQ(snapshot::encode_snapshot(delta.snapshot),
            snapshot::encode_snapshot(cur));
  EXPECT_EQ(delta.carried_nodes, 0u);
}

TEST(IngestDelta, ExtremaSurviveDeltaEncodingExactly) {
  const SnapshotData base = capture(0);
  const SnapshotData cur = capture(1);
  SnapshotData acc = clone_snapshot(base);
  const DeltaResult delta = subtract_snapshot(cur, &base);
  apply_delta(acc, delta.snapshot, 1, nullptr);
  // Stage 1 lowered the min to 30 and raised the max to 70; a naive
  // "difference the stats" scheme would lose both.
  EXPECT_EQ(acc.profile.implicit_root->visit_stats.min, 30);
  EXPECT_EQ(acc.profile.implicit_root->visit_stats.max, 70);
  EXPECT_EQ(acc.profile.implicit_root->visit_stats.count,
            cur.profile.implicit_root->visit_stats.count);
  EXPECT_EQ(acc.profile.implicit_root->visit_stats.sum,
            cur.profile.implicit_root->visit_stats.sum);
}

TEST(IngestDelta, ProvisionalInProgressStatsRoundTripExactly) {
  // Real producers account in-progress visits provisionally: between
  // two captures sum can grow with zero new completions, and min can
  // RISE once a long-running visit completes and its final duration
  // replaces the provisional elapsed-so-far sample.  Neither fits a
  // per-field difference encoding, so the delta must carry the whole
  // accumulator and apply must replace it.
  const SnapshotData base = capture(0);
  SnapshotData cur = capture(0);
  CallNode* root = cur.profile.implicit_root;
  root->visit_stats.sum = 300;  // grew, count unchanged
  root->visit_stats.min = 145;  // rose past the provisional 40
  root->visit_stats.max = 155;
  root->inclusive = 310;  // inclusive stays monotone

  const DeltaResult delta = subtract_snapshot(cur, &base);
  SnapshotData acc = clone_snapshot(base);
  apply_delta(acc, delta.snapshot, 1, nullptr);
  EXPECT_EQ(snapshot::encode_snapshot(acc), snapshot::encode_snapshot(cur));
  EXPECT_EQ(acc.profile.implicit_root->visit_stats.sum, 300);
  EXPECT_EQ(acc.profile.implicit_root->visit_stats.min, 145);
}

TEST(IngestDelta, ScalarsAreReplacedNotSummed) {
  const SnapshotData base = capture(0);
  const SnapshotData cur = capture(1);
  SnapshotData acc = clone_snapshot(base);
  const DeltaResult delta = subtract_snapshot(cur, &base);
  apply_delta(acc, delta.snapshot, 1, nullptr);
  EXPECT_EQ(acc.profile.total_task_switches, 9u);
  EXPECT_EQ(acc.profile.max_concurrent_any_thread, 2u);
  EXPECT_EQ(acc.meta.flush_seq, 2u);
}

TEST(IngestDelta, NonMonotoneCaptureIsRejected) {
  const SnapshotData base = capture(1);
  const SnapshotData cur = capture(0);  // earlier capture: counters shrank
  EXPECT_THROW((void)subtract_snapshot(cur, &base), SnapshotError);
}

TEST(IngestDelta, MismatchedRegistryPrefixIsRejected) {
  const SnapshotData cur = capture(0);
  SnapshotData base;
  base.registry = std::make_unique<RegionRegistry>();
  base.registry->register_region("stranger", RegionType::kFunction);
  base.profile.thread_count = 1;
  base.profile.max_concurrent_per_thread = {1};
  EXPECT_THROW((void)subtract_snapshot(cur, &base), SnapshotError);
}

TEST(IngestDelta, DeltaWithAnotherImplicitRootParameterIsRejected) {
  // The root identity is (region, parameter), as in the snapshot merge.
  SnapshotData acc = capture(0);
  SnapshotData delta = capture(1);
  delta.profile.implicit_root->parameter = 5;
  try {
    (void)apply_delta(acc, delta, 1, nullptr);
    ADD_FAILURE() << "delta for a different implicit root applied";
  } catch (const SnapshotError& error) {
    EXPECT_EQ(error.code(), snapshot::Errc::kMalformed);
  }
}

TEST(IngestDelta, MassHelpersSumEveryTree) {
  const SnapshotData cur = capture(1);
  // implicit_root 5 + worker 1 + grand 3 = 9 visits.
  EXPECT_EQ(total_visits(cur.profile), 9u);
  EXPECT_EQ(total_root_inclusive(cur.profile), 260);
}

// --- Eviction ---------------------------------------------------------------

std::vector<std::uint8_t> delta_frame_bytes(std::uint64_t seq,
                                            std::uint64_t base_seq,
                                            bool rebase,
                                            const SnapshotData& snap) {
  DeltaFrame frame;
  frame.seq = seq;
  frame.base_seq = base_seq;
  frame.rebase = rebase;
  frame.snapshot = snapshot::encode_snapshot(snap);
  return encode_delta(frame);
}

TEST(IngestEviction, ColdSubtreesFoldIntoStubsMassConserved) {
  const SnapshotData early = capture(0);
  const SnapshotData late = capture(1);

  Session session(1, "t");
  session.consume(encode_hello({kProtocolVersion, 42, "p"}));
  session.set_apply_epoch(1);
  session.consume(delta_frame_bytes(1, 0, true, early));
  session.set_apply_epoch(2);
  const DeltaResult delta = subtract_snapshot(late, &early);
  session.consume(delta_frame_bytes(2, 1, false, delta.snapshot));
  (void)session.take_output();
  ASSERT_EQ(session.counters().deltas_applied, 2u);

  const std::uint64_t visits_before =
      total_visits(session.cumulative()->profile);
  const Ticks inclusive_before =
      total_root_inclusive(session.cumulative()->profile);
  const std::size_t bytes_before = session.live_node_bytes();

  // Epoch-2 delta touched implicit_root, worker, grand — all hot.
  EXPECT_EQ(session.evict_cold(2).subtrees, 0u);

  // With everything stamped cold, the maximal non-root subtrees fold.
  const Session::EvictResult evicted = session.evict_cold(3);
  EXPECT_GT(evicted.subtrees, 0u);
  EXPECT_GT(evicted.nodes, 0u);
  EXPECT_GT(evicted.visits, 0u);

  EXPECT_EQ(total_visits(session.cumulative()->profile), visits_before);
  EXPECT_EQ(total_root_inclusive(session.cumulative()->profile),
            inclusive_before);
  EXPECT_LT(session.live_node_bytes(), bytes_before);

  // The stub is visible, named, and carries the folded mass.
  const CallNode* root = session.cumulative()->profile.implicit_root;
  ASSERT_NE(root, nullptr);
  const RegionRegistry& registry = *session.cumulative()->registry;
  bool found_stub = false;
  for (const CallNode* child = root->first_child; child != nullptr;
       child = child->next_sibling) {
    if (registry.info(child->region).name == "[evicted]") {
      found_stub = true;
      EXPECT_GT(child->visits, 0u);
    }
  }
  EXPECT_TRUE(found_stub);

  // Eviction is idempotent at the same cutoff: stubs are never re-evicted.
  EXPECT_EQ(session.evict_cold(3).subtrees, 0u);
  EXPECT_EQ(total_visits(session.cumulative()->profile), visits_before);
}

TEST(IngestEviction, StreamingContinuesAfterEviction) {
  // A delta arriving after its target subtree was evicted recreates the
  // path; totals then double-count nothing because the delta carries
  // only differences.
  const SnapshotData early = capture(0);
  const SnapshotData late = capture(1);

  Session session(1, "t");
  session.consume(encode_hello({kProtocolVersion, 42, "p"}));
  session.set_apply_epoch(1);
  session.consume(delta_frame_bytes(1, 0, true, early));
  (void)session.take_output();
  (void)session.evict_cold(2);

  session.set_apply_epoch(2);
  const DeltaResult delta = subtract_snapshot(late, &early);
  session.consume(delta_frame_bytes(2, 1, false, delta.snapshot));
  const auto output = session.take_output();
  FrameReader reader("t");
  reader.feed(output);
  const auto reply = reader.next();
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kDeltaAck);

  // Visit mass equals the late capture's regardless of the eviction.
  EXPECT_EQ(total_visits(session.cumulative()->profile),
            total_visits(late.profile));
  EXPECT_EQ(total_root_inclusive(session.cumulative()->profile),
            total_root_inclusive(late.profile));
}

}  // namespace
}  // namespace taskprof::ingest

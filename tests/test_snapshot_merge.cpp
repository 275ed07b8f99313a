// Merge correctness (`taskprof_cli merge`): splitting one workload's
// per-thread profiles into N snapshot files and merging them back
// reproduces the single-file profile exactly — proven with src/check's
// differential projection — plus registry-handle remapping, telemetry
// folding, and the meta-scalar rules.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bots/kernel.hpp"
#include "check/differential.hpp"
#include "check/invariants.hpp"
#include "ingest/delta.hpp"
#include "instrument/instrumentor.hpp"
#include "measure/aggregate.hpp"
#include "report/text_report.hpp"
#include "rt/sim_runtime.hpp"
#include "snapshot/merge.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/telemetry.hpp"

namespace taskprof {
namespace {

TEST(SnapshotMerge, SplitPerThreadSnapshotsReproduceTheSingleFile) {
  RegionRegistry registry;
  rt::SimRuntime runtime;
  Instrumentor instr(registry);
  rt::FanoutHooks fanout({&instr});
  runtime.set_hooks(&fanout);
  auto kernel = bots::make_kernel("sort");
  bots::KernelConfig config;
  config.threads = 4;
  config.size = bots::SizeClass::kTest;
  const bots::KernelResult result = kernel->run(runtime, registry, config);
  ASSERT_TRUE(result.ok);
  runtime.set_hooks(nullptr);
  instr.finalize();

  const std::vector<ThreadProfileView> views = instr.views();
  ASSERT_EQ(views.size(), 4u);
  const AggregateProfile full = aggregate_profiles(views);

  // Split: one snapshot file per thread, as N separate processes that
  // each ran one worker would have written.
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const std::vector<ThreadProfileView> one = {views[i]};
    const AggregateProfile part = aggregate_profiles(one);
    snapshot::SnapshotMeta meta;
    meta.flush_seq = i + 1;
    meta.process_id = 100 + i;  // distinct processes
    const std::string path =
        testing::TempDir() + "part_" + std::to_string(i) + ".tpsnap";
    snapshot::write_snapshot_file(path, part, registry, meta);
    paths.push_back(path);
  }

  const snapshot::SnapshotData merged = snapshot::merge_snapshot_files(paths);
  for (const std::string& path : paths) std::remove(path.c_str());

  // Meta rules: flush_seq is the max, mixed process ids collapse to 0.
  EXPECT_EQ(merged.meta.flush_seq, 4u);
  EXPECT_EQ(merged.meta.process_id, 0u);

  // The merged profile is indistinguishable from the single-file one.
  EXPECT_EQ(merged.profile.thread_count, full.thread_count);
  EXPECT_EQ(merged.profile.total_task_switches, full.total_task_switches);
  EXPECT_EQ(merged.profile.total_folded_events, full.total_folded_events);
  EXPECT_EQ(merged.profile.max_concurrent_any_thread,
            full.max_concurrent_any_thread);
  EXPECT_EQ(merged.profile.max_concurrent_per_thread,
            full.max_concurrent_per_thread);
  ASSERT_NE(merged.profile.implicit_root, nullptr);
  EXPECT_EQ(merged.profile.implicit_root->visits,
            full.implicit_root->visits);
  EXPECT_EQ(merged.profile.implicit_root->inclusive,
            full.implicit_root->inclusive);

  check::ProfileProjection single =
      check::project_profile(full, registry, result.stats);
  single.engine = "single-file";
  check::ProfileProjection collated = check::project_profile(
      merged.profile, *merged.registry, result.stats);
  collated.engine = "merged";
  std::string joined;
  for (const std::string& d : check::diff_projections(single, collated)) {
    joined += d + "\n";
  }
  EXPECT_TRUE(joined.empty()) << joined;

  // Beyond the projection: the full tick-level reports agree too (the
  // parts carry exact times, so their sums are exact).
  EXPECT_EQ(render_csv(full, registry),
            render_csv(merged.profile, *merged.registry));

  const check::InvariantReport verdict =
      check::check_profile(merged.profile, *merged.registry);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
}

/// Hand-built single-thread snapshot; `shifted` inserts a padding region
/// so the same logical regions carry different handles.
snapshot::SnapshotData hand_built(bool shifted, std::uint64_t process_id) {
  snapshot::SnapshotData data;
  data.registry = std::make_unique<RegionRegistry>();
  const RegionHandle implicit = data.registry->register_region(
      "implicit task", RegionType::kImplicitTask);
  if (shifted) {
    data.registry->register_region("padding", RegionType::kFunction);
  }
  const RegionHandle create = data.registry->register_region(
      "work_task create", RegionType::kTaskCreate);
  const RegionHandle task =
      data.registry->register_region("work_task", RegionType::kTask);

  AggregateProfile& p = data.profile;
  p.thread_count = 1;
  p.max_concurrent_per_thread = {1};
  p.max_concurrent_any_thread = 1;
  p.implicit_root = p.pool.allocate(implicit, kNoParameter, false, nullptr);
  p.implicit_root->visits = 1;
  p.implicit_root->inclusive = 100;
  p.implicit_root->visit_stats.add(100);
  // Each task tick is bracketed by a stub visit under a scheduling point
  // in the implicit tree — conservation demands the pairing.
  CallNode* spawn = p.pool.allocate(create, kNoParameter, false,
                                    p.implicit_root);
  spawn->visits = 4;
  spawn->inclusive = 44;
  for (int i = 0; i < 4; ++i) spawn->visit_stats.add(11);
  CallNode* stub = p.pool.allocate(task, kNoParameter, true, spawn);
  stub->visits = 4;
  stub->inclusive = 40;
  for (int i = 0; i < 4; ++i) stub->visit_stats.add(10);
  CallNode* root = p.pool.allocate(task, kNoParameter, false, nullptr);
  root->visits = 4;
  root->inclusive = 40;
  for (int i = 0; i < 4; ++i) root->visit_stats.add(10);
  p.task_roots.push_back(root);

  data.meta.flush_seq = 1;
  data.meta.process_id = process_id;
  return data;
}

TEST(SnapshotMerge, ShiftedRegionHandlesAreRemapped) {
  snapshot::SnapshotData dst = hand_built(/*shifted=*/false, 1);
  const snapshot::SnapshotData src = hand_built(/*shifted=*/true, 2);
  // Same logical task region under different handles on each side.
  ASSERT_NE(dst.profile.task_roots[0]->region,
            src.profile.task_roots[0]->region);
  snapshot::merge_snapshot_into(dst, src);

  // The destination registry gained the padding region without
  // disturbing its existing handles.
  ASSERT_EQ(dst.registry->size(), 4u);
  EXPECT_EQ(dst.registry->info(0).name, "implicit task");
  EXPECT_EQ(dst.registry->info(1).name, "work_task create");
  EXPECT_EQ(dst.registry->info(2).name, "work_task");
  EXPECT_EQ(dst.registry->info(3).name, "padding");

  EXPECT_EQ(dst.profile.thread_count, 2u);
  EXPECT_EQ(dst.profile.implicit_root->visits, 2u);
  EXPECT_EQ(dst.profile.implicit_root->inclusive, 200);
  ASSERT_EQ(dst.profile.task_roots.size(), 1u);
  const CallNode* root = dst.profile.task_roots[0];
  EXPECT_EQ(dst.registry->info(root->region).name, "work_task");
  EXPECT_EQ(root->visits, 8u);
  EXPECT_EQ(root->inclusive, 80);
  EXPECT_EQ(root->visit_stats.count, 8u);
  EXPECT_EQ(root->visit_stats.min, 10);
  EXPECT_EQ(root->visit_stats.max, 10);
  EXPECT_EQ(dst.meta.process_id, 0u);  // 1 vs 2: no single writer

  const check::InvariantReport verdict =
      check::check_profile(dst.profile, *dst.registry);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
}

TEST(SnapshotMerge, PartialFlagIsSticky) {
  snapshot::SnapshotData dst = hand_built(false, 1);
  snapshot::SnapshotData src = hand_built(false, 1);
  src.profile.partial_capture = true;
  snapshot::merge_snapshot_into(dst, src);
  EXPECT_TRUE(dst.profile.partial_capture);
  EXPECT_EQ(dst.meta.process_id, 1u);  // same writer stays identified
}

TEST(SnapshotMerge, DifferentProgramsAreRejected) {
  snapshot::SnapshotData dst = hand_built(false, 1);
  snapshot::SnapshotData src;
  src.registry = std::make_unique<RegionRegistry>();
  const RegionHandle other = src.registry->register_region(
      "a different main", RegionType::kImplicitTask);
  src.profile.thread_count = 1;
  src.profile.max_concurrent_per_thread = {1};
  src.profile.implicit_root =
      src.profile.pool.allocate(other, kNoParameter, false, nullptr);
  src.profile.implicit_root->visits = 1;
  try {
    snapshot::merge_snapshot_into(dst, src);
    FAIL() << "merge of different programs accepted";
  } catch (const snapshot::SnapshotError& error) {
    EXPECT_EQ(error.code(), snapshot::Errc::kMalformed);
  }
}

TEST(SnapshotMerge, ImplicitRootsDifferingInParameterAreRejected) {
  // Either order: the verdict must not depend on which file comes first.
  for (const bool parameter_on_dst : {false, true}) {
    SCOPED_TRACE(parameter_on_dst ? "parameter on dst" : "parameter on src");
    snapshot::SnapshotData dst = hand_built(false, 1);
    snapshot::SnapshotData src = hand_built(false, 1);
    (parameter_on_dst ? dst : src).profile.implicit_root->parameter = 5;
    try {
      snapshot::merge_snapshot_into(dst, src);
      ADD_FAILURE() << "merge of different implicit roots accepted";
    } catch (const snapshot::SnapshotError& error) {
      EXPECT_EQ(error.code(), snapshot::Errc::kMalformed);
    }
  }
}

TEST(SnapshotMerge, SummedThreadCountOverTheLimitIsLimit) {
  // The committed fib snapshot with its thread count set to the format's
  // limit still loads; merged with itself it would sum to a file the
  // loader rejects, so the merge refuses it and changes nothing.
  const std::filesystem::path corpus = TASKPROF_SNAPSHOT_CORPUS_DIR;
  snapshot::SnapshotData data =
      snapshot::read_snapshot_file(corpus / "ok_fib_sim.tpsnap");
  data.profile.thread_count = snapshot::kMaxThreads;
  const std::string path = testing::TempDir() + "limit_threads.tpsnap";
  snapshot::write_snapshot_file(path, data);
  try {
    (void)snapshot::merge_snapshot_files({path, path});
    ADD_FAILURE() << "merge past the thread limit accepted";
  } catch (const snapshot::SnapshotError& error) {
    EXPECT_EQ(error.code(), snapshot::Errc::kLimit);
  }
  snapshot::SnapshotData dst = snapshot::read_snapshot_file(path);
  std::remove(path.c_str());
  const std::vector<std::uint8_t> before = snapshot::encode_snapshot(dst);
  const RegionHandle regions = static_cast<RegionHandle>(dst.registry->size());
  EXPECT_THROW(snapshot::merge_snapshot_into(dst, data),
               snapshot::SnapshotError);
  EXPECT_EQ(snapshot::encode_snapshot(dst), before);
  EXPECT_EQ(dst.registry->size(), regions);
}

TEST(SnapshotMerge, SummedMarksAndTelemetryThreadsOverTheLimitAreLimit) {
  const auto expect_limit = [](const snapshot::SnapshotData& dst,
                               const snapshot::SnapshotData& src) {
    snapshot::SnapshotData copy = ingest::clone_snapshot(dst);
    try {
      snapshot::merge_snapshot_into(copy, src);
      ADD_FAILURE() << "merge past a limit accepted";
    } catch (const snapshot::SnapshotError& error) {
      EXPECT_EQ(error.code(), snapshot::Errc::kLimit);
    }
  };
  snapshot::SnapshotData marks = hand_built(false, 1);
  marks.profile.max_concurrent_per_thread.resize(snapshot::kMaxThreads);
  expect_limit(marks, marks);
  snapshot::SnapshotData telemetry = hand_built(false, 1);
  telemetry.has_telemetry = true;
  telemetry.telemetry.threads = static_cast<int>(snapshot::kMaxThreads);
  expect_limit(telemetry, telemetry);
  // At the limit exactly, the merge goes through.
  snapshot::SnapshotData half = hand_built(false, 1);
  half.profile.thread_count = snapshot::kMaxThreads / 2;
  snapshot::SnapshotData copy = ingest::clone_snapshot(half);
  snapshot::merge_snapshot_into(copy, half);
  EXPECT_EQ(copy.profile.thread_count, snapshot::kMaxThreads);
}

TEST(SnapshotMerge, TelemetryFoldsCountersSumGaugesMax) {
  using telemetry::Counter;
  using telemetry::Gauge;
  telemetry::Snapshot a;
  a.threads = 2;
  a.counters[static_cast<std::size_t>(Counter::kTasksCreated)] = 10;
  a.gauges[static_cast<std::size_t>(Gauge::kDequeDepth)] = 7;
  a.per_thread.resize(2);
  telemetry::Snapshot b;
  b.threads = 1;
  b.counters[static_cast<std::size_t>(Counter::kTasksCreated)] = 5;
  b.gauges[static_cast<std::size_t>(Gauge::kDequeDepth)] = 3;
  b.per_thread.resize(1);

  telemetry::merge_into(a, b);
  EXPECT_EQ(a.threads, 3);
  EXPECT_EQ(a.counter(Counter::kTasksCreated), 15u);
  EXPECT_EQ(a.gauge(Gauge::kDequeDepth), 7u);
  EXPECT_EQ(a.per_thread.size(), 3u);
}

TEST(SnapshotMerge, SnapshotFilesCarryTelemetryThroughMerge) {
  snapshot::SnapshotData a = hand_built(false, 1);
  a.has_telemetry = true;
  a.telemetry.threads = 1;
  a.telemetry.counters[0] = 4;
  snapshot::SnapshotData b = hand_built(false, 1);
  b.has_telemetry = true;
  b.telemetry.threads = 1;
  b.telemetry.counters[0] = 6;
  snapshot::merge_snapshot_into(a, b);
  EXPECT_TRUE(a.has_telemetry);
  EXPECT_EQ(a.telemetry.counters[0], 10u);
  EXPECT_EQ(a.telemetry.threads, 2);
}

}  // namespace
}  // namespace taskprof

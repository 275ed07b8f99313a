// The one span model (trace/span.hpp) on hand-built traces: degenerate
// inputs (empty, orphaned, region-less), the tie rule for zero-duration
// children, taskwait phasing that a creation-tree chain gets wrong,
// parallel regions led by different threads, creates recorded after the
// created task ran, and a 100,000-deep nested chain that every
// post-mortem entry point must survive on a small stack.
#include <gtest/gtest.h>

#include <algorithm>

#include "diagnose/diagnose.hpp"
#include "diagnose/workspan.hpp"
#include "profile/region.hpp"
#include "test_util.hpp"
#include "trace/analysis.hpp"
#include "whatif/whatif.hpp"

namespace taskprof {
namespace {

using testutil::TraceBuilder;
using trace::EventKind;

TEST(WorkSpan, EmptyTraceYieldsEmptySummary) {
  RegionRegistry registry;
  const diag::WorkSpanSummary ws =
      diag::compute_workspan(trace::Trace(), registry);
  EXPECT_EQ(ws.work, 0);
  EXPECT_EQ(ws.span, 0);
  EXPECT_EQ(ws.span_length, 0);
  EXPECT_TRUE(ws.shares.empty());
  EXPECT_EQ(ws.logical_parallelism(), 0.0);
}

TEST(WorkSpan, OrphanedTasksAreChainRoots) {
  // Task 7's create was never recorded: it must still bound the span as
  // a root of its own rather than vanish from it.
  RegionRegistry registry;
  const RegionHandle region =
      registry.register_region("orphan", RegionType::kTask);
  TraceBuilder b(1);
  b.add(0, 0, EventKind::kImplicitBegin)
      .add(0, 0, EventKind::kCreateEnd, 8, region)
      .add(0, 0, EventKind::kTaskwaitBegin)
      .run(0, 0, 20, 8, region)
      .run(0, 20, 100, 7, region)
      .add(0, 100, EventKind::kTaskwaitEnd)
      .add(0, 100, EventKind::kImplicitEnd);

  const diag::WorkSpanSummary ws = diag::compute_workspan(b.build(), registry);
  EXPECT_EQ(ws.work, 100);
  EXPECT_EQ(ws.span, 80);
  EXPECT_EQ(ws.span_length, 1);
  ASSERT_EQ(ws.shares.size(), 1u);
  EXPECT_EQ(ws.shares[0].on_span, 80);
}

TEST(WorkSpan, RegionlessTasksGetAStableLabel) {
  // Tasks recorded without a region (hand-built or truncated traces) must
  // not render as "region 4294967295".
  RegionRegistry registry;
  TraceBuilder b(1);
  b.add(0, 0, EventKind::kImplicitBegin)
      .spawn_and_wait(0, 0, 1, kInvalidRegion, 30)
      .add(0, 30, EventKind::kImplicitEnd);

  const diag::WorkSpanSummary ws = diag::compute_workspan(b.build(), registry);
  EXPECT_EQ(ws.span, 30);
  ASSERT_EQ(ws.shares.size(), 1u);
  EXPECT_EQ(ws.shares[0].name, "(unattributed)");
  EXPECT_EQ(trace::construct_display_name(kInvalidRegion, registry),
            "(unattributed)");
}

TEST(WorkSpan, ZeroDurationChildrenLoseTiesToTheContinuation) {
  // 1(100) -> 2(0) -> 3(0), each waiting for its child.  A child that
  // finishes exactly when its creator's continuation would resume does
  // not lengthen the span, so the fold keeps the continuation and the
  // chain stops at task 1.
  RegionRegistry registry;
  const RegionHandle region =
      registry.register_region("zero_chain", RegionType::kTask);
  TraceBuilder b(1);
  b.add(0, 0, EventKind::kImplicitBegin)
      .add(0, 0, EventKind::kCreateEnd, 1, region)
      .add(0, 0, EventKind::kTaskwaitBegin)
      .add(0, 0, EventKind::kTaskBegin, 1, region)
      .add(0, 100, EventKind::kCreateEnd, 2, region)
      .add(0, 100, EventKind::kTaskwaitBegin)
      .add(0, 100, EventKind::kTaskBegin, 2, region)
      .spawn_and_wait(0, 100, 3, region, 0, /*creator=*/2)
      .add(0, 100, EventKind::kTaskEnd, 2, region)
      .add(0, 100, EventKind::kTaskSwitch, 1)
      .add(0, 100, EventKind::kTaskwaitEnd)
      .add(0, 100, EventKind::kTaskEnd, 1, region)
      .add(0, 100, EventKind::kTaskwaitEnd)
      .add(0, 100, EventKind::kImplicitEnd);

  const trace::Trace trace = b.build();
  EXPECT_EQ(trace::analyze_trace(trace).max_creation_depth, 3);
  const diag::WorkSpanSummary ws = diag::compute_workspan(trace, registry);
  EXPECT_EQ(ws.work, 100);
  EXPECT_EQ(ws.span, 100);
  EXPECT_EQ(ws.span_length, 1);
  ASSERT_EQ(ws.shares.size(), 1u);
  EXPECT_EQ(ws.shares[0].instances, 1);
}

TEST(WorkSpan, TaskwaitPhasesAreSequential) {
  // The implicit task spawns two "split" tasks, waits, then two "merge"
  // tasks, and waits again; thread 1 runs one task of each phase.  A
  // creation-tree chain sees four concurrent siblings (span 100, 4x); the
  // taskwait orders the phases, so the span is 200 and the parallelism 2x.
  RegionRegistry registry;
  const RegionHandle split =
      registry.register_region("split", RegionType::kTask);
  const RegionHandle merge =
      registry.register_region("merge", RegionType::kTask);
  TraceBuilder b(2);
  b.add(0, 0, EventKind::kImplicitBegin)
      .add(0, 0, EventKind::kCreateEnd, 1, split)
      .add(0, 0, EventKind::kCreateEnd, 2, split)
      .add(0, 0, EventKind::kTaskwaitBegin)
      .run(0, 0, 100, 1, split)
      .add(0, 100, EventKind::kTaskwaitEnd)
      .add(0, 100, EventKind::kCreateEnd, 3, merge)
      .add(0, 100, EventKind::kCreateEnd, 4, merge)
      .add(0, 100, EventKind::kTaskwaitBegin)
      .run(0, 100, 200, 3, merge)
      .add(0, 200, EventKind::kTaskwaitEnd)
      .add(0, 200, EventKind::kImplicitEnd);
  b.add(1, 0, EventKind::kImplicitBegin)
      .add(1, 0, EventKind::kBarrierBegin)
      .run(1, 0, 100, 2, split)
      .run(1, 100, 200, 4, merge)
      .add(1, 200, EventKind::kBarrierEnd)
      .add(1, 200, EventKind::kImplicitEnd);

  const diag::WorkSpanSummary ws = diag::compute_workspan(b.build(), registry);
  EXPECT_EQ(ws.work, 400);
  EXPECT_EQ(ws.span, 200);
  EXPECT_EQ(ws.span_length, 2);
  EXPECT_DOUBLE_EQ(ws.logical_parallelism(), 2.0);
  ASSERT_EQ(ws.shares.size(), 2u);
  EXPECT_EQ(ws.shares[0].name, "split");
  EXPECT_EQ(ws.shares[0].on_span, 100);
  EXPECT_EQ(ws.shares[1].name, "merge");
  EXPECT_EQ(ws.shares[1].on_span, 100);
}

TEST(WorkSpan, ParallelRegionsAddUp) {
  // Thread 0 leads the first region (task 1, 100 us), thread 1 the second
  // (task 2, 60 us); the other thread idles in the barrier, long enough to
  // count as waiting rather than management.  The regions run one after
  // another, so the span is their sum, not the longer of the two threads.
  constexpr Ticks kFirst = 100'000;
  constexpr Ticks kEnd = 160'000;
  RegionRegistry registry;
  const RegionHandle region =
      registry.register_region("phase", RegionType::kTask);
  TraceBuilder b(2);
  b.add(0, 0, EventKind::kImplicitBegin)
      .spawn_and_wait(0, 0, 1, region, kFirst)
      .add(0, kFirst, EventKind::kBarrierBegin)
      .add(0, kFirst, EventKind::kBarrierEnd)
      .add(0, kFirst, EventKind::kImplicitEnd)
      .add(0, kFirst, EventKind::kImplicitBegin)
      .add(0, kFirst, EventKind::kBarrierBegin)
      .add(0, kEnd, EventKind::kBarrierEnd)
      .add(0, kEnd, EventKind::kImplicitEnd);
  b.add(1, 0, EventKind::kImplicitBegin)
      .add(1, 0, EventKind::kBarrierBegin)
      .add(1, kFirst, EventKind::kBarrierEnd)
      .add(1, kFirst, EventKind::kImplicitEnd)
      .add(1, kFirst, EventKind::kImplicitBegin)
      .spawn_and_wait(1, kFirst, 2, region, kEnd - kFirst)
      .add(1, kEnd, EventKind::kBarrierBegin)
      .add(1, kEnd, EventKind::kBarrierEnd)
      .add(1, kEnd, EventKind::kImplicitEnd);

  const diag::WorkSpanSummary ws = diag::compute_workspan(b.build(), registry);
  EXPECT_EQ(ws.work, kEnd);
  EXPECT_EQ(ws.span, kEnd);
  EXPECT_EQ(ws.span_length, 2);
  ASSERT_EQ(ws.shares.size(), 1u);
  EXPECT_EQ(ws.shares[0].instances, 2);
}

TEST(WorkSpan, CreationDepthDoesNotDependOnEventOrder) {
  // The real engine records a deferred create only after the enqueue, so
  // a thief (thread 1) can run task 1 and create task 2 before thread 0
  // records task 1's create.  Task 2 is still two deep.
  RegionRegistry registry;
  const RegionHandle region =
      registry.register_region("stolen", RegionType::kTask);
  TraceBuilder b(2);
  b.add(0, 0, EventKind::kImplicitBegin)
      .add(0, 20, EventKind::kCreateEnd, 1, region)
      .add(0, 20, EventKind::kTaskwaitBegin)
      .add(0, 40, EventKind::kTaskwaitEnd)
      .add(0, 40, EventKind::kImplicitEnd);
  b.add(1, 0, EventKind::kImplicitBegin)
      .add(1, 0, EventKind::kBarrierBegin)
      .add(1, 5, EventKind::kTaskBegin, 1, region)
      .spawn_and_wait(1, 10, 2, region, 10, /*creator=*/1)
      .add(1, 30, EventKind::kTaskEnd, 1, region)
      .add(1, 40, EventKind::kBarrierEnd)
      .add(1, 40, EventKind::kImplicitEnd);

  const trace::TraceAnalysis analysis = trace::analyze_trace(b.build());
  EXPECT_EQ(analysis.tasks.size(), 2u);
  EXPECT_EQ(analysis.max_creation_depth, 2);
}

TEST(WorkSpan, HundredThousandDeepChainRunsOnASmallStack) {
  // Task i creates task i+1 and waits for it, 100,000 deep, on thread 0
  // while thread 1 idles in the barrier.
  constexpr int kDepth = 100'000;
  constexpr Ticks kWork = 10;
  RegionRegistry registry;
  const RegionHandle region =
      registry.register_region("link", RegionType::kTask);
  TraceBuilder b(2);
  Ticks now = 0;
  b.add(0, now, EventKind::kImplicitBegin);
  for (TaskInstanceId id = 1; id <= kDepth; ++id) {
    b.add(0, now, EventKind::kCreateEnd, id, region)
        .add(0, now, EventKind::kTaskwaitBegin)
        .add(0, now, EventKind::kTaskBegin, id, region);
    now += kWork;
  }
  for (TaskInstanceId id = kDepth; id >= 1; --id) {
    b.add(0, now, EventKind::kTaskEnd, id, region);
    if (id > 1) b.add(0, now, EventKind::kTaskSwitch, id - 1);
    b.add(0, now, EventKind::kTaskwaitEnd);
  }
  b.add(0, now, EventKind::kImplicitEnd);
  b.add(1, 0, EventKind::kImplicitBegin)
      .add(1, 0, EventKind::kBarrierBegin)
      .add(1, now, EventKind::kBarrierEnd)
      .add(1, now, EventKind::kImplicitEnd);
  const trace::Trace trace = b.build();

  trace::TraceAnalysis analysis;
  diag::DiagnosisReport report;
  whatif::WhatIfProfile profile;
  whatif::Error error;
  // A 256 KiB stack: any walk whose recursion depth grows with the task
  // depth overflows it.
  testutil::run_on_small_stack(256 * 1024, [&] {
    analysis = trace::analyze_trace(trace);
    diag::DiagnosisInput input;
    input.registry = &registry;
    input.trace = &trace;
    report = diag::run_diagnosis(input);
    error = whatif::WhatIfProfile::build(trace, analysis, registry, &profile);
  });

  EXPECT_EQ(analysis.tasks.size(), static_cast<std::size_t>(kDepth));
  EXPECT_EQ(analysis.max_creation_depth, kDepth);
  ASSERT_TRUE(report.has_workspan);
  EXPECT_EQ(report.workspan.span_length, kDepth);
  EXPECT_EQ(report.workspan.span, kDepth * kWork);
  EXPECT_EQ(report.workspan.work, kDepth * kWork);
  const auto chain = std::find_if(
      report.findings.begin(), report.findings.end(),
      [](const diag::Diagnosis& d) {
        return d.detector == "serialized_spawn_chain";
      });
  ASSERT_NE(chain, report.findings.end());
  EXPECT_EQ(chain->severity, diag::Severity::kProblem);
  ASSERT_TRUE(error.ok()) << error.message;
  EXPECT_EQ(profile.span(), report.workspan.span);
  EXPECT_EQ(profile.span_length(), kDepth);
}

}  // namespace
}  // namespace taskprof

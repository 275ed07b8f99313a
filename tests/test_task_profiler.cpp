// Tests of the paper's task-profiling algorithm (Fig. 12), replaying the
// event streams of the paper's figures with hand-picked timestamps.
#include "measure/task_profiler.hpp"

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "profile/region.hpp"

namespace taskprof {
namespace {

class TaskProfilerTest : public ::testing::Test {
 protected:
  TaskProfilerTest() { reset({}); }

  void reset(MeasureOptions options) {
    clock_.set(0);
    prof_ = std::make_unique<ThreadTaskProfiler>(0, clock_, implicit_,
                                                 options);
  }

  RegionRegistry registry_;
  ManualClock clock_;
  RegionHandle implicit_ =
      registry_.register_region("implicit task", RegionType::kImplicitTask);
  RegionHandle main_ = registry_.register_region("main", RegionType::kFunction);
  RegionHandle foo_ = registry_.register_region("foo", RegionType::kFunction);
  RegionHandle bar_ = registry_.register_region("bar", RegionType::kFunction);
  RegionHandle barrier_ = registry_.register_region(
      "implicit barrier", RegionType::kImplicitBarrier);
  RegionHandle taskwait_ =
      registry_.register_region("taskwait", RegionType::kTaskwait);
  RegionHandle create_ =
      registry_.register_region("create task", RegionType::kTaskCreate);
  RegionHandle task_a_ =
      registry_.register_region("taskA", RegionType::kTask);
  RegionHandle task_b_ =
      registry_.register_region("taskB", RegionType::kTask);
  std::unique_ptr<ThreadTaskProfiler> prof_;
};

// ---- Paper Fig. 1: plain nested event stream -> profile -------------------

TEST_F(TaskProfilerTest, Fig1NestedFunctionsBuildCallTree) {
  prof_->enter(main_);           // t=0
  clock_.set(1);
  prof_->enter(foo_);
  clock_.set(3);
  prof_->exit(foo_);
  clock_.set(4);
  prof_->enter(bar_);
  clock_.set(7);
  prof_->exit(bar_);
  clock_.set(10);
  prof_->exit(main_);
  prof_->finalize();

  const CallNode* root = prof_->implicit_root();
  const CallNode* main_node = find_path(const_cast<CallNode*>(root), {main_});
  ASSERT_NE(main_node, nullptr);
  EXPECT_EQ(main_node->inclusive, 10);
  EXPECT_EQ(main_node->visits, 1u);
  const CallNode* foo_node =
      find_path(const_cast<CallNode*>(root), {main_, foo_});
  ASSERT_NE(foo_node, nullptr);
  EXPECT_EQ(foo_node->inclusive, 2);
  const CallNode* bar_node =
      find_path(const_cast<CallNode*>(root), {main_, bar_});
  ASSERT_NE(bar_node, nullptr);
  EXPECT_EQ(bar_node->inclusive, 3);
  // Exclusive time of main: 10 - 2 - 3 = 5.
  EXPECT_EQ(main_node->exclusive(), 5);
}

TEST_F(TaskProfilerTest, RepeatVisitsAccumulateOnOneNode) {
  for (int i = 0; i < 3; ++i) {
    prof_->enter(foo_);
    clock_.advance(4);
    prof_->exit(foo_);
    clock_.advance(1);
  }
  prof_->finalize();
  const CallNode* foo_node =
      find_path(const_cast<CallNode*>(prof_->implicit_root()), {foo_});
  ASSERT_NE(foo_node, nullptr);
  EXPECT_EQ(foo_node->visits, 3u);
  EXPECT_EQ(foo_node->inclusive, 12);
  EXPECT_EQ(foo_node->visit_stats.min, 4);
  EXPECT_EQ(foo_node->visit_stats.max, 4);
}

// ---- Paper Fig. 2: interleaved task fragments ------------------------------

TEST_F(TaskProfilerTest, Fig2InterleavedTaskFragmentsStayDistinct) {
  // Two instances of taskA, both enter foo, are suspended inside it, then
  // finish in interleaved order.  Without per-instance trees the exit
  // events would be ambiguous (the paper's point).
  prof_->enter(barrier_);
  clock_.set(10);
  prof_->task_begin(task_a_, 1);
  prof_->enter(foo_);
  clock_.set(14);
  prof_->task_begin(task_a_, 2);  // suspends instance 1 inside foo
  prof_->enter(foo_);
  clock_.set(19);
  prof_->task_switch(1);  // suspends instance 2 inside foo
  clock_.set(25);
  prof_->exit(foo_);  // instance 1's foo: 10..25 wall, minus 14..19 susp
  prof_->task_end(1);
  clock_.set(30);
  prof_->task_switch(2);
  clock_.set(37);
  prof_->exit(foo_);  // instance 2's foo: 14..37 wall, minus 19..30 susp
  prof_->task_end(2);
  clock_.set(40);
  prof_->exit(barrier_);
  prof_->finalize();

  const ThreadProfileView view = prof_->view();
  ASSERT_EQ(view.task_roots.size(), 1u);
  const CallNode* merged = view.task_roots[0];
  EXPECT_EQ(merged->region, task_a_);
  EXPECT_EQ(merged->visits, 2u);
  const CallNode* foo_node =
      find_child(const_cast<CallNode*>(merged), foo_);
  ASSERT_NE(foo_node, nullptr);
  EXPECT_EQ(foo_node->visits, 2u);
  // Instance 1 foo: enter 10 (as part of task t=10..25 minus susp 5)...
  // foo entered at 10, exited at 25, suspended 14..19 -> 10 ticks.
  // Instance 2 foo: entered 14, exited 37, suspended 19..30 -> 12 ticks.
  EXPECT_EQ(foo_node->visit_stats.min, 10);
  EXPECT_EQ(foo_node->visit_stats.max, 12);
  EXPECT_EQ(foo_node->inclusive, 22);
}

// ---- Paper Fig. 3: execution-site vs creation-site attribution ------------

TEST_F(TaskProfilerTest, Fig3ExecutionSiteKeepsExclusiveNonNegative) {
  prof_->enter(create_);
  prof_->note_task_created(1);
  clock_.set(1);
  prof_->exit(create_);
  prof_->enter(barrier_);
  clock_.set(2);
  prof_->task_begin(task_a_, 1);
  clock_.set(12);  // the task does the real work (10 ticks)
  prof_->task_end(1);
  clock_.set(13);
  prof_->exit(barrier_);
  prof_->finalize();

  const ThreadProfileView view = prof_->view();
  const CallNode* root = view.implicit_root;
  const CallNode* create_node =
      find_path(const_cast<CallNode*>(root), {create_});
  ASSERT_NE(create_node, nullptr);
  // Execution-site attribution: the create node keeps only creation time.
  EXPECT_EQ(create_node->exclusive(), 1);
  // The barrier's exclusive time excludes the task execution (stub).
  const CallNode* barrier_node =
      find_path(const_cast<CallNode*>(root), {barrier_});
  ASSERT_NE(barrier_node, nullptr);
  EXPECT_EQ(barrier_node->inclusive, 12);  // t=1..13
  EXPECT_EQ(barrier_node->exclusive(), 2);  // 12 - 10 in the stub
  // The task tree sits beside the main tree.
  ASSERT_EQ(view.task_roots.size(), 1u);
  EXPECT_EQ(view.task_roots[0]->inclusive, 10);
}

TEST_F(TaskProfilerTest, Fig3CreationSiteAblationGoesNegative) {
  MeasureOptions options;
  options.creation_site_attribution = true;
  reset(options);

  prof_->enter(create_);
  prof_->note_task_created(1);
  clock_.set(1);
  prof_->exit(create_);
  prof_->enter(barrier_);
  clock_.set(2);
  prof_->task_begin(task_a_, 1);
  clock_.set(12);
  prof_->task_end(1);
  clock_.set(13);
  prof_->exit(barrier_);
  prof_->finalize();

  const ThreadProfileView view = prof_->view();
  // The task tree was grafted under the creating node...
  EXPECT_TRUE(view.task_roots.empty());
  const CallNode* create_node = find_path(
      const_cast<CallNode*>(view.implicit_root), {create_});
  ASSERT_NE(create_node, nullptr);
  const CallNode* grafted =
      find_child(const_cast<CallNode*>(create_node), task_a_);
  ASSERT_NE(grafted, nullptr);
  EXPECT_EQ(grafted->inclusive, 10);
  // ...which produces the nonsensical negative exclusive creation time the
  // paper's Fig. 3 warns about: 1 - 10 = -9.
  EXPECT_EQ(create_node->exclusive(), -9);
}

// ---- Paper Figs. 6-11: algorithm state walk-through ------------------------

TEST_F(TaskProfilerTest, Fig6InitialStateIsImplicitTask) {
  EXPECT_EQ(prof_->current_task(), kImplicitTaskId);
  EXPECT_EQ(prof_->active_instances(), 0u);
}

TEST_F(TaskProfilerTest, Figs7to11FullWalkthrough) {
  // Fig. 7: the implicit task created two tasks of construct A and entered
  // the barrier.
  prof_->enter(create_);
  clock_.set(1);
  prof_->exit(create_);
  prof_->enter(create_);
  clock_.set(2);
  prof_->exit(create_);
  clock_.set(10);
  prof_->enter(barrier_);
  EXPECT_EQ(prof_->current_task(), kImplicitTaskId);

  // Fig. 8: instance 1 starts inside the barrier.
  prof_->task_begin(task_a_, 1);
  EXPECT_EQ(prof_->current_task(), 1u);
  EXPECT_EQ(prof_->active_instances(), 1u);
  {
    const CallNode* barrier_node = find_path(
        const_cast<CallNode*>(prof_->implicit_root()), {barrier_});
    const CallNode* stub = find_child(const_cast<CallNode*>(barrier_node),
                                      task_a_, kNoParameter, true);
    ASSERT_NE(stub, nullptr);
    EXPECT_EQ(stub->visits, 1u);
  }

  // Fig. 9: instance 1 suspends at its taskwait, instance 2 starts.
  clock_.set(12);
  prof_->enter(taskwait_);
  clock_.set(13);
  prof_->task_begin(task_a_, 2);
  EXPECT_EQ(prof_->current_task(), 2u);
  EXPECT_EQ(prof_->active_instances(), 2u);
  EXPECT_EQ(prof_->max_concurrent_instances(), 2u);

  // Fig. 10: instance 2 completes and instance 1 resumes.  Both began,
  // so the construct root counts two visits; only instance 2's time is
  // in, instance 1's root frame is still open.
  clock_.set(20);
  prof_->task_end(2);
  EXPECT_EQ(prof_->current_task(), kImplicitTaskId);
  EXPECT_EQ(prof_->active_instances(), 1u);
  {
    const ThreadProfileView view = prof_->view();
    ASSERT_EQ(view.task_roots.size(), 1u);
    EXPECT_EQ(view.task_roots[0]->visits, 2u);
    EXPECT_EQ(view.task_roots[0]->inclusive, 7);  // 13..20
  }
  clock_.set(21);
  prof_->task_switch(1);
  EXPECT_EQ(prof_->current_task(), 1u);

  // Fig. 11: instance 1 completes.
  clock_.set(30);
  prof_->exit(taskwait_);
  clock_.set(32);
  prof_->task_end(1);
  EXPECT_EQ(prof_->active_instances(), 0u);
  clock_.set(40);
  prof_->exit(barrier_);
  clock_.set(50);
  prof_->finalize();

  const ThreadProfileView view = prof_->view();
  ASSERT_EQ(view.task_roots.size(), 1u);
  const CallNode* merged = view.task_roots[0];
  EXPECT_EQ(merged->visits, 2u);
  // Instance 2: 7 ticks.  Instance 1: 10..32 wall minus 13..21 suspension
  // = 14 ticks.  Total 21.
  EXPECT_EQ(merged->inclusive, 21);
  EXPECT_EQ(merged->visit_stats.min, 7);
  EXPECT_EQ(merged->visit_stats.max, 14);
  // Taskwait inside instance 1: 12..30 wall minus 8 suspension = 10.
  const CallNode* wait_node =
      find_child(const_cast<CallNode*>(merged), taskwait_);
  ASSERT_NE(wait_node, nullptr);
  EXPECT_EQ(wait_node->inclusive, 10);

  // Stub accounting: fragments 10..13, 13..20, 21..32 => visits 3 (one per
  // executed fragment, across both instances), total 3 + 7 + 11 = 21.
  const CallNode* barrier_node =
      find_path(const_cast<CallNode*>(view.implicit_root), {barrier_});
  ASSERT_NE(barrier_node, nullptr);
  const CallNode* stub = find_child(const_cast<CallNode*>(barrier_node),
                                    task_a_, kNoParameter, true);
  ASSERT_NE(stub, nullptr);
  EXPECT_EQ(stub->visits, 3u);
  EXPECT_EQ(stub->inclusive, 21);
  // Barrier: 10..40 inclusive = 30; exclusive = 30 - 21 = 9 (management /
  // idle, the paper's "103s not executing a task" reading of Fig. 5).
  EXPECT_EQ(barrier_node->inclusive, 30);
  EXPECT_EQ(barrier_node->exclusive(), 9);
  // Switch count: begin(1), begin(2), end(2), switch(1), end(1) -> 5
  // transitions in total.
  EXPECT_EQ(view.task_switches, 5u);
}

// ---- Options ----------------------------------------------------------------

TEST_F(TaskProfilerTest, PauseOffAttributesSuspensionToTask) {
  MeasureOptions options;
  options.pause_on_suspend = false;
  reset(options);

  prof_->enter(barrier_);
  clock_.set(10);
  prof_->task_begin(task_a_, 1);
  clock_.set(12);
  prof_->task_begin(task_a_, 2);  // suspend 1
  clock_.set(20);
  prof_->task_end(2);
  prof_->task_switch(1);
  clock_.set(25);
  prof_->task_end(1);
  prof_->exit(barrier_);
  prof_->finalize();

  const ThreadProfileView view = prof_->view();
  const CallNode* merged = view.task_roots[0];
  // Without pause/resume, instance 1 is charged its full 10..25 wall time
  // even though 12..20 belonged to instance 2 (double counting).
  EXPECT_EQ(merged->visit_stats.max, 15);
  EXPECT_EQ(merged->inclusive, 15 + 8);
}

TEST_F(TaskProfilerTest, StubsOffLeavesBarrierChildless) {
  MeasureOptions options;
  options.stub_nodes = false;
  reset(options);

  prof_->enter(barrier_);
  clock_.set(10);
  prof_->task_begin(task_a_, 1);
  clock_.set(20);
  prof_->task_end(1);
  clock_.set(21);
  prof_->exit(barrier_);
  prof_->finalize();

  const CallNode* barrier_node = find_path(
      const_cast<CallNode*>(prof_->implicit_root()), {barrier_});
  ASSERT_NE(barrier_node, nullptr);
  EXPECT_EQ(barrier_node->first_child, nullptr);
  // All 21 barrier ticks count as exclusive: task execution inside the
  // barrier is indistinguishable from waiting.
  EXPECT_EQ(barrier_node->exclusive(), 21);
}

// ---- Depth limit (paper §IV-B3: "tree depth limits") -----------------------

TEST_F(TaskProfilerTest, DepthLimitFoldsImplicitFrames) {
  MeasureOptions options;
  options.max_tree_depth = 3;  // implicit root + two levels
  reset(options);

  prof_->enter(main_);
  clock_.set(1);
  prof_->enter(foo_);
  clock_.set(2);
  prof_->enter(bar_);  // depth 4: folded into foo
  clock_.set(5);
  prof_->enter(bar_);  // nested fold
  clock_.set(6);
  prof_->exit(bar_);
  prof_->exit(bar_);
  clock_.set(8);
  prof_->exit(foo_);
  clock_.set(10);
  prof_->exit(main_);
  prof_->finalize();

  CallNode* root = const_cast<CallNode*>(prof_->implicit_root());
  const CallNode* foo_node = find_path(root, {main_, foo_});
  ASSERT_NE(foo_node, nullptr);
  // No bar nodes were created; their time stays in foo (1..8).
  EXPECT_EQ(foo_node->first_child, nullptr);
  EXPECT_EQ(foo_node->inclusive, 7);
  EXPECT_EQ(prof_->view().folded_events, 2u);
}

TEST_F(TaskProfilerTest, DepthLimitFoldsTaskFrames) {
  MeasureOptions options;
  options.max_tree_depth = 2;  // task root + one level
  reset(options);

  prof_->enter(barrier_);
  prof_->task_begin(task_a_, 1);
  clock_.set(1);
  prof_->enter(foo_);  // depth 2: kept
  clock_.set(2);
  prof_->enter(bar_);  // depth 3: folded
  clock_.set(4);
  prof_->exit(bar_);
  clock_.set(6);
  prof_->exit(foo_);
  clock_.set(8);
  prof_->task_end(1);
  prof_->exit(barrier_);
  prof_->finalize();

  const ThreadProfileView view = prof_->view();
  ASSERT_EQ(view.task_roots.size(), 1u);
  const CallNode* merged = view.task_roots[0];
  const CallNode* foo_node = find_child(const_cast<CallNode*>(merged), foo_);
  ASSERT_NE(foo_node, nullptr);
  EXPECT_EQ(foo_node->inclusive, 5);  // 1..6, bar folded in
  EXPECT_EQ(foo_node->first_child, nullptr);
  EXPECT_EQ(view.folded_events, 1u);
}

TEST_F(TaskProfilerTest, NoDepthLimitByDefault) {
  prof_->enter(main_);
  for (int i = 0; i < 200; ++i) prof_->enter(foo_);
  for (int i = 0; i < 200; ++i) prof_->exit(foo_);
  prof_->exit(main_);
  prof_->finalize();
  EXPECT_EQ(prof_->view().folded_events, 0u);
  // A 200-deep chain of foo nodes exists.
  CallNode* node = const_cast<CallNode*>(prof_->implicit_root());
  int depth = 0;
  node = find_child(node, main_);
  while ((node = find_child(node, foo_)) != nullptr) ++depth;
  EXPECT_EQ(depth, 200);
}

// ---- Parameters (paper Table IV) -------------------------------------------

TEST_F(TaskProfilerTest, ParameterizedTasksFormSeparateSubTrees) {
  prof_->enter(barrier_);
  prof_->task_begin(task_a_, 1, /*parameter=*/0);
  clock_.set(5);
  prof_->task_end(1);
  prof_->task_begin(task_a_, 2, /*parameter=*/1);
  clock_.set(8);
  prof_->task_end(2);
  prof_->task_begin(task_a_, 3, /*parameter=*/1);
  clock_.set(10);
  prof_->task_end(3);
  prof_->exit(barrier_);
  prof_->finalize();

  const ThreadProfileView view = prof_->view();
  ASSERT_EQ(view.task_roots.size(), 2u);
  const CallNode* depth0 = view.task_roots[0];
  const CallNode* depth1 = view.task_roots[1];
  EXPECT_EQ(depth0->parameter, 0);
  EXPECT_EQ(depth0->visits, 1u);
  EXPECT_EQ(depth0->inclusive, 5);
  EXPECT_EQ(depth1->parameter, 1);
  EXPECT_EQ(depth1->visits, 2u);
  EXPECT_EQ(depth1->inclusive, 3 + 2);
}

// ---- Memory (paper §V-B) ----------------------------------------------------

TEST_F(TaskProfilerTest, InstanceTreesAreRecycled) {
  prof_->enter(barrier_);
  auto run_instance = [&](TaskInstanceId id) {
    prof_->task_begin(task_a_, id);
    prof_->enter(foo_);
    clock_.advance(2);
    prof_->exit(foo_);
    clock_.advance(1);
    prof_->task_end(id);
  };
  run_instance(1);
  const std::size_t after_first = prof_->pool().allocated();
  for (TaskInstanceId id = 2; id <= 10; ++id) run_instance(id);
  // Later instances write the nodes the first one created: no new
  // allocations at all.
  EXPECT_EQ(prof_->pool().allocated(), after_first);
  prof_->exit(barrier_);
  prof_->finalize();
  EXPECT_EQ(prof_->view().task_roots[0]->visits, 10u);
}

TEST_F(TaskProfilerTest, MaxConcurrentTracksAndResets) {
  prof_->enter(barrier_);
  prof_->task_begin(task_a_, 1);
  prof_->task_begin(task_a_, 2);
  prof_->task_begin(task_b_, 3);
  EXPECT_EQ(prof_->max_concurrent_instances(), 3u);
  prof_->task_end(3);
  prof_->task_switch(2);
  prof_->task_end(2);
  prof_->task_switch(1);
  prof_->task_end(1);
  EXPECT_EQ(prof_->max_concurrent_instances(), 3u);
  prof_->reset_max_concurrent();
  EXPECT_EQ(prof_->max_concurrent_instances(), 0u);
  prof_->exit(barrier_);
  prof_->finalize();
}

// ---- Untied migration (paper §IV-D) ----------------------------------------

TEST_F(TaskProfilerTest, DetachAdoptMovesInstanceBetweenThreads) {
  ThreadTaskProfiler other(1, clock_, implicit_);

  prof_->enter(barrier_);
  other.enter(barrier_);
  clock_.set(10);
  prof_->task_begin(task_a_, 1);
  prof_->enter(foo_);
  clock_.set(14);
  prof_->task_switch(kImplicitTaskId);  // suspend before migration

  auto state = prof_->detach_instance(1);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(prof_->active_instances(), 0u);
  other.adopt_instance(std::move(state));

  clock_.set(20);
  other.task_switch(1);
  clock_.set(25);
  other.exit(foo_);  // 10..25 wall minus 14..20 suspension = 9
  other.task_end(1);
  clock_.set(30);
  prof_->exit(barrier_);
  other.exit(barrier_);
  prof_->finalize();
  other.finalize();

  // The construct tree lives on the thread where the task began.
  EXPECT_TRUE(other.view().task_roots.empty());
  ASSERT_EQ(prof_->view().task_roots.size(), 1u);
  const CallNode* merged = prof_->view().task_roots[0];
  EXPECT_EQ(merged->visits, 1u);
  EXPECT_EQ(merged->inclusive, 9);  // 10..25 minus 6 suspended
  const CallNode* foo_node =
      find_child(const_cast<CallNode*>(merged), foo_);
  ASSERT_NE(foo_node, nullptr);
  EXPECT_EQ(foo_node->inclusive, 9);

  // Stub fragments: 4 ticks on thread 0, 5 ticks on thread 1.
  const CallNode* stub0 =
      find_child(find_path(const_cast<CallNode*>(prof_->implicit_root()),
                           {barrier_}),
                 task_a_, kNoParameter, true);
  ASSERT_NE(stub0, nullptr);
  EXPECT_EQ(stub0->inclusive, 4);
  const CallNode* stub1 =
      find_child(find_path(const_cast<CallNode*>(other.implicit_root()),
                           {barrier_}),
                 task_a_, kNoParameter, true);
  ASSERT_NE(stub1, nullptr);
  EXPECT_EQ(stub1->inclusive, 5);
}

// ---- Error handling ----------------------------------------------------------

using TaskProfilerDeathTest = TaskProfilerTest;

TEST_F(TaskProfilerDeathTest, MismatchedExitAborts) {
  prof_->enter(foo_);
  EXPECT_DEATH(prof_->exit(bar_), "does not match");
}

TEST_F(TaskProfilerDeathTest, TaskEndOfNonCurrentAborts) {
  prof_->task_begin(task_a_, 1);
  prof_->task_begin(task_a_, 2);
  EXPECT_DEATH(prof_->task_end(1), "current");
}

TEST_F(TaskProfilerDeathTest, UnbalancedTaskEndAborts) {
  prof_->task_begin(task_a_, 1);
  prof_->enter(foo_);
  EXPECT_DEATH(prof_->task_end(1), "unbalanced");
}

}  // namespace
}  // namespace taskprof

#include "measure/aggregate.hpp"

#include <gtest/gtest.h>

#include "common/clock.hpp"
#include "profile/region.hpp"

namespace taskprof {
namespace {

class AggregateTest : public ::testing::Test {
 protected:
  RegionRegistry registry_;
  ManualClock clock_;
  RegionHandle implicit_ =
      registry_.register_region("implicit task", RegionType::kImplicitTask);
  RegionHandle barrier_ = registry_.register_region(
      "implicit barrier", RegionType::kImplicitBarrier);
  RegionHandle task_a_ = registry_.register_region("taskA", RegionType::kTask);
  RegionHandle task_b_ = registry_.register_region("taskB", RegionType::kTask);
};

TEST_F(AggregateTest, EmptyViewsGiveEmptyProfile) {
  const AggregateProfile agg = aggregate_profiles({});
  EXPECT_EQ(agg.thread_count, 0u);
  EXPECT_EQ(agg.implicit_root, nullptr);
  EXPECT_TRUE(agg.task_roots.empty());
}

TEST_F(AggregateTest, MergesImplicitTreesAcrossThreads) {
  ThreadTaskProfiler p0(0, clock_, implicit_);
  ThreadTaskProfiler p1(1, clock_, implicit_);
  p0.enter(barrier_);
  p1.enter(barrier_);
  clock_.set(10);
  p0.exit(barrier_);
  clock_.set(14);
  p1.exit(barrier_);
  clock_.set(20);
  p0.finalize();
  p1.finalize();

  const std::vector<ThreadProfileView> views = {p0.view(), p1.view()};
  const AggregateProfile agg = aggregate_profiles(views);
  EXPECT_EQ(agg.thread_count, 2u);
  ASSERT_NE(agg.implicit_root, nullptr);
  EXPECT_EQ(agg.implicit_root->visits, 2u);
  EXPECT_EQ(agg.implicit_root->inclusive, 40);
  const CallNode* barrier_node =
      find_child(const_cast<CallNode*>(agg.implicit_root), barrier_);
  ASSERT_NE(barrier_node, nullptr);
  EXPECT_EQ(barrier_node->visits, 2u);
  EXPECT_EQ(barrier_node->inclusive, 24);
  EXPECT_EQ(barrier_node->visit_stats.min, 10);
  EXPECT_EQ(barrier_node->visit_stats.max, 14);
}

TEST_F(AggregateTest, MergesTaskTreesPerConstruct) {
  ThreadTaskProfiler p0(0, clock_, implicit_);
  ThreadTaskProfiler p1(1, clock_, implicit_);
  p0.enter(barrier_);
  p1.enter(barrier_);
  p0.task_begin(task_a_, 1);
  clock_.set(3);
  p0.task_end(1);
  p1.task_begin(task_a_, 2);
  clock_.set(8);
  p1.task_end(2);
  p1.task_begin(task_b_, 3);
  clock_.set(9);
  p1.task_end(3);
  p0.exit(barrier_);
  p1.exit(barrier_);
  p0.finalize();
  p1.finalize();

  const std::vector<ThreadProfileView> views = {p0.view(), p1.view()};
  const AggregateProfile agg = aggregate_profiles(views);
  ASSERT_EQ(agg.task_roots.size(), 2u);
  const CallNode* merged_a = agg.task_root(task_a_);
  ASSERT_NE(merged_a, nullptr);
  EXPECT_EQ(merged_a->visits, 2u);  // one instance per thread
  EXPECT_EQ(merged_a->inclusive, 3 + 5);
  const CallNode* merged_b = agg.task_root(task_b_);
  ASSERT_NE(merged_b, nullptr);
  EXPECT_EQ(merged_b->visits, 1u);
  EXPECT_EQ(agg.task_root(static_cast<RegionHandle>(999)), nullptr);
}

TEST_F(AggregateTest, CollectsCountersAcrossThreads) {
  ThreadTaskProfiler p0(0, clock_, implicit_);
  ThreadTaskProfiler p1(1, clock_, implicit_);
  p0.enter(barrier_);
  p1.enter(barrier_);
  p0.task_begin(task_a_, 1);
  p0.task_begin(task_a_, 2);
  p0.task_end(2);
  p0.task_switch(1);
  p0.task_end(1);
  p1.task_begin(task_a_, 3);
  p1.task_end(3);
  p0.exit(barrier_);
  p1.exit(barrier_);
  p0.finalize();
  p1.finalize();

  const std::vector<ThreadProfileView> views = {p0.view(), p1.view()};
  const AggregateProfile agg = aggregate_profiles(views);
  EXPECT_EQ(agg.max_concurrent_any_thread, 2u);
  ASSERT_EQ(agg.max_concurrent_per_thread.size(), 2u);
  EXPECT_EQ(agg.max_concurrent_per_thread[0], 2u);
  EXPECT_EQ(agg.max_concurrent_per_thread[1], 1u);
  EXPECT_GT(agg.total_task_switches, 0u);
}

TEST_F(AggregateTest, FoldTreesMatchesRootsOnRegionAndParameter) {
  NodePool src_pool;
  CallNode* implicit =
      src_pool.allocate(implicit_, kNoParameter, false, nullptr);
  implicit->visits = 1;
  CallNode* a1 = src_pool.allocate(task_a_, 1, false, nullptr);
  a1->visits = 2;
  CallNode* a2 = src_pool.allocate(task_a_, 2, false, nullptr);
  a2->visits = 3;
  const std::vector<const CallNode*> roots = {a1, a2, a1};
  AggregateProfile out;
  ASSERT_TRUE(fold_trees(out, implicit, roots));
  ASSERT_EQ(out.task_roots.size(), 2u);
  EXPECT_EQ(out.task_roots[0]->visits, 4u);
  EXPECT_EQ(out.task_roots[1]->parameter, 2);

  // An implicit root with another parameter is another program: the fold
  // refuses before it touches anything.
  CallNode* other = src_pool.allocate(implicit_, 5, false, nullptr);
  other->visits = 1;
  EXPECT_FALSE(fold_trees(out, other, roots));
  EXPECT_EQ(out.implicit_root->visits, 1u);
  EXPECT_EQ(out.task_roots[0]->visits, 4u);
}

TEST_F(AggregateTest, ProfileIsMovable) {
  ThreadTaskProfiler p0(0, clock_, implicit_);
  p0.enter(barrier_);
  clock_.set(5);
  p0.exit(barrier_);
  p0.finalize();
  const std::vector<ThreadProfileView> views = {p0.view()};
  AggregateProfile agg = aggregate_profiles(views);
  const CallNode* root_before = agg.implicit_root;
  AggregateProfile moved = std::move(agg);
  EXPECT_EQ(moved.implicit_root, root_before);
  EXPECT_EQ(moved.implicit_root->inclusive, clock_.now());
}

}  // namespace
}  // namespace taskprof

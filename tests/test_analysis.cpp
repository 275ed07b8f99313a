#include "report/analysis.hpp"

#include <gtest/gtest.h>

#include "bots/kernel.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/sim_runtime.hpp"

namespace taskprof {
namespace {

class AnalysisTest : public ::testing::Test {
 protected:
  /// Run a program with `count` tasks of `task_work` ns each and one
  /// taskwait in the creator.
  AggregateProfile run(int count, Ticks task_work, int threads = 2) {
    Instrumentor instr(registry_);
    sim_.set_hooks(&instr);
    sim_.parallel(threads, [&](rt::TaskContext& ctx) {
      if (!ctx.single()) return;
      for (int i = 0; i < count; ++i) {
        rt::TaskAttrs attrs;
        attrs.region = task_;
        ctx.create_task(
            [task_work](rt::TaskContext& c) { c.work(task_work); }, attrs);
      }
      ctx.taskwait();
    });
    sim_.set_hooks(nullptr);
    instr.finalize();
    return instr.aggregate();
  }

  RegionRegistry registry_;
  RegionHandle task_ = registry_.register_region("tiny_task",
                                                 RegionType::kTask);
  rt::SimRuntime sim_;
};

TEST_F(AnalysisTest, TaskConstructStatsCountInstancesAndCreations) {
  const AggregateProfile agg = run(20, 1'000);
  const auto stats = task_construct_stats(agg, registry_);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "tiny_task");
  EXPECT_EQ(stats[0].instances, 20u);
  EXPECT_EQ(stats[0].creations, 20u);
  EXPECT_GT(stats[0].create_total, 0);
  EXPECT_GT(stats[0].create_mean, 0.0);
  EXPECT_GE(stats[0].inclusive_mean, 1'000.0);
  EXPECT_GE(stats[0].inclusive_min, 1'000);
  EXPECT_LE(stats[0].inclusive_min, stats[0].inclusive_max);
}

TEST_F(AnalysisTest, SchedulingPointSummaryAccountsBarrierSplit) {
  const AggregateProfile agg = run(20, 50'000);
  const auto summary = scheduling_point_summary(agg, registry_);
  EXPECT_GT(summary.parallel_inclusive, 0);
  EXPECT_GT(summary.barrier_inclusive, 0);
  // Tasks executed inside the barrier show up as stub time, and
  // stub + exclusive == inclusive for barrier nodes without other children.
  EXPECT_GT(summary.barrier_stub_time, 0);
  EXPECT_EQ(summary.barrier_inclusive,
            summary.barrier_stub_time + summary.barrier_exclusive);
  EXPECT_GT(summary.create_exclusive, 0);
  EXPECT_GT(summary.taskwait_exclusive, 0);
}

TEST_F(AnalysisTest, ParameterBreakdownSortsAndAggregates) {
  auto kernel = bots::make_kernel("nqueens");
  bots::KernelConfig config;
  config.threads = 2;
  config.size = bots::SizeClass::kTest;
  config.depth_parameter = true;
  RegionRegistry registry;
  rt::SimRuntime sim;
  Instrumentor instr(registry);
  sim.set_hooks(&instr);
  kernel->run(sim, registry, config);
  sim.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile agg = instr.aggregate();

  const RegionHandle nqueens_region =
      registry.register_region("nqueens_task", RegionType::kTask);
  const auto rows = parameter_breakdown(agg, registry, nqueens_region);
  ASSERT_GE(rows.size(), 8u);
  // Sorted ascending by depth.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].parameter, rows[i].parameter);
  }
  // Task counts grow with depth in nqueens (paper Table IV pattern) for
  // the early levels: depth 1 has more tasks than depth 0.
  EXPECT_GT(rows[1].instances, rows[0].instances);
  // The root task count at depth 0 is exactly 1 (the initial spawn).
  EXPECT_EQ(rows[0].parameter, 0);
  EXPECT_EQ(rows[0].instances, 1u);
  // Mean inclusive time decreases with depth (inclusive: deeper tasks do
  // less total work).
  EXPECT_GT(rows[0].inclusive_mean, rows[rows.size() - 2].inclusive_mean);
}

TEST_F(AnalysisTest, BreakdownEmptyWithoutParameters) {
  const AggregateProfile agg = run(5, 1'000);
  EXPECT_TRUE(parameter_breakdown(agg, registry_, task_).empty());
}

}  // namespace
}  // namespace taskprof

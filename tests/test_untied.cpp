// Untied-task profiling with migration: the paper's §IV-D design, which
// the authors specified but could not exercise ("we cannot support those
// tasks unless the runtime system provides support for these events") —
// our simulator provides the events.
#include <gtest/gtest.h>

#include <map>

#include "instrument/instrumentor.hpp"
#include "rt/sim_runtime.hpp"
#include "trace/analysis.hpp"
#include "trace/recorder.hpp"
#include "trace/sampling.hpp"

namespace taskprof {
namespace {

rt::TaskAttrs untied_attrs(RegionHandle region) {
  rt::TaskAttrs attrs;
  attrs.region = region;
  attrs.binding = rt::TaskBinding::kUntied;
  return attrs;
}

class UntiedProfilingTest : public ::testing::Test {
 protected:
  RegionRegistry registry_;
  RegionHandle task_ =
      registry_.register_region("untied_task", RegionType::kTask);
  RegionHandle child_ =
      registry_.register_region("child_task", RegionType::kTask);

  rt::TeamStats run_migrating_program(rt::SimRuntime& sim, int outer_tasks) {
    return sim.parallel(4, [this, outer_tasks](rt::TaskContext& ctx) {
      if (!ctx.single()) return;
      for (int i = 0; i < outer_tasks; ++i) {
        ctx.create_task(
            [this](rt::TaskContext& outer) {
              outer.work(3'000);
              rt::TaskAttrs child_attrs;
              child_attrs.region = child_;
              outer.create_task(
                  [](rt::TaskContext& c) { c.work(30'000); }, child_attrs);
              outer.taskwait();  // suspension point: may migrate
              outer.work(2'000);
            },
            untied_attrs(task_));
      }
    });
  }
};

TEST_F(UntiedProfilingTest, MigratedTasksProfileConsistently) {
  rt::SimRuntime sim;
  Instrumentor instr(registry_);
  sim.set_hooks(&instr);
  const auto stats = run_migrating_program(sim, 24);
  sim.set_hooks(nullptr);
  instr.finalize();
  ASSERT_GT(stats.migrations, 0u) << "program must actually migrate";

  const AggregateProfile agg = instr.aggregate();
  const CallNode* untied_root = agg.task_root(task_);
  ASSERT_NE(untied_root, nullptr);
  EXPECT_EQ(untied_root->visits, 24u);
  // Every instance executed 5 us of declared work plus overheads; the
  // suspension interval must have been subtracted (paper §IV-B3), so the
  // mean inclusive time is far below the 30 us the child takes.
  EXPECT_GT(untied_root->visit_stats.mean(), 5'000.0);
  EXPECT_LT(untied_root->visit_stats.mean(), 20'000.0);

  const CallNode* child_root = agg.task_root(child_);
  ASSERT_NE(child_root, nullptr);
  EXPECT_EQ(child_root->visits, 24u);
}

TEST_F(UntiedProfilingTest, StubTimeStillEqualsTaskTreeTime) {
  rt::SimRuntime sim;
  Instrumentor instr(registry_);
  sim.set_hooks(&instr);
  run_migrating_program(sim, 16);
  sim.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile agg = instr.aggregate();

  Ticks stub_total = 0;
  for_each_node(agg.implicit_root, [&](const CallNode& node, int) {
    if (node.is_stub) stub_total += node.inclusive;
  });
  Ticks task_total = 0;
  for (const CallNode* root : agg.task_roots) task_total += root->inclusive;
  EXPECT_EQ(stub_total, task_total);
}

TEST_F(UntiedProfilingTest, NoNegativeExclusiveAfterMigration) {
  rt::SimRuntime sim;
  Instrumentor instr(registry_);
  sim.set_hooks(&instr);
  run_migrating_program(sim, 24);
  sim.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile agg = instr.aggregate();
  for_each_node(agg.implicit_root, [](const CallNode& node, int) {
    EXPECT_GE(node.exclusive(), 0);
  });
  for (const CallNode* root : agg.task_roots) {
    for_each_node(root, [](const CallNode& node, int) {
      EXPECT_GE(node.exclusive(), 0);
    });
  }
}

TEST_F(UntiedProfilingTest, DeterministicWithInstrumentation) {
  auto run = [this] {
    rt::SimRuntime sim;
    Instrumentor instr(registry_);
    sim.set_hooks(&instr);
    const auto stats = run_migrating_program(sim, 24);
    sim.set_hooks(nullptr);
    instr.finalize();
    return stats;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.parallel_ticks, b.parallel_ticks);
  EXPECT_EQ(a.migrations, b.migrations);
}

// A sampling profiler sees a migrated task on whichever thread resumed
// it: its resumed fragments must still count toward its construct.
TEST_F(UntiedProfilingTest, SamplingFollowsMigratedTasks) {
  rt::SimRuntime sim;
  trace::TraceRecorder recorder;
  sim.set_hooks(&recorder);
  const auto stats = run_migrating_program(sim, 24);
  sim.set_hooks(nullptr);
  ASSERT_GT(stats.migrations, 0u) << "program must actually migrate";
  const trace::Trace trace = recorder.take();

  std::map<RegionHandle, Ticks> exact;
  for (const trace::TaskLifetime& life : trace::analyze_trace(trace).tasks) {
    exact[life.region] += life.active;
  }
  ASSERT_EQ(exact.size(), 2u);
  const trace::SampleHistogram histogram = trace::sample_trace(trace, 100);
  for (const auto& [region, active] : exact) {
    SCOPED_TRACE(registry_.info(region).name);
    const double expected = static_cast<double>(active);
    EXPECT_NEAR(static_cast<double>(histogram.estimated_time(region)),
                expected, 0.02 * expected);
  }
}

TEST_F(UntiedProfilingTest, MigrationDisabledKeepsTasksHome) {
  rt::SimConfig config;
  config.untied_migration = false;
  rt::SimRuntime sim(config);
  Instrumentor instr(registry_);
  sim.set_hooks(&instr);
  const auto stats = run_migrating_program(sim, 24);
  sim.set_hooks(nullptr);
  instr.finalize();
  EXPECT_EQ(stats.migrations, 0u);
  const AggregateProfile agg = instr.aggregate();
  const CallNode* untied_root = agg.task_root(task_);
  ASSERT_NE(untied_root, nullptr);
  EXPECT_EQ(untied_root->visits, 24u);
}

}  // namespace
}  // namespace taskprof

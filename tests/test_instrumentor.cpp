// End-to-end: runtime engines driving the measurement layer through the
// instrumentation adapter.
#include "instrument/instrumentor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>

#include "check/invariants.hpp"
#include "rt/real_runtime.hpp"
#include "rt/sim_runtime.hpp"

namespace taskprof {
namespace {

rt::TaskAttrs attrs_for(RegionHandle region) {
  rt::TaskAttrs attrs;
  attrs.region = region;
  return attrs;
}

/// Total inclusive time of all stub nodes in all implicit trees.
Ticks total_stub_time(const AggregateProfile& profile) {
  Ticks total = 0;
  for_each_node(profile.implicit_root, [&](const CallNode& node, int) {
    if (node.is_stub) total += node.inclusive;
  });
  return total;
}

Ticks total_task_tree_time(const AggregateProfile& profile) {
  Ticks total = 0;
  for (const CallNode* root : profile.task_roots) total += root->inclusive;
  return total;
}

class InstrumentorTest : public ::testing::Test {
 protected:
  RegionRegistry registry_;
  RegionHandle task_ = registry_.register_region("work_task",
                                                 RegionType::kTask);

  /// A small program: single creator, two-level task tree with taskwaits.
  void run_program(rt::Runtime& runtime) {
    runtime.parallel(3, [this](rt::TaskContext& ctx) {
      if (!ctx.single()) return;
      for (int i = 0; i < 6; ++i) {
        ctx.create_task(
            [this](rt::TaskContext& outer) {
              outer.work(2'000);
              outer.create_task([](rt::TaskContext& c) { c.work(1'000); },
                                attrs_for(task_));
              outer.taskwait();
              outer.work(500);
            },
            attrs_for(task_));
      }
      ctx.taskwait();
    });
  }
};

TEST_F(InstrumentorTest, SimProfileStructureMatchesPaperLayout) {
  rt::SimRuntime sim;
  Instrumentor instr(registry_);
  sim.set_hooks(&instr);
  run_program(sim);
  sim.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile agg = instr.aggregate();

  // Main tree: implicit task -> parallel -> {create nodes, taskwait,
  // implicit barrier}.
  ASSERT_NE(agg.implicit_root, nullptr);
  EXPECT_EQ(registry_.info(agg.implicit_root->region).type,
            RegionType::kImplicitTask);
  CallNode* parallel = find_child(
      const_cast<CallNode*>(agg.implicit_root), instr.parallel_region());
  ASSERT_NE(parallel, nullptr);
  EXPECT_EQ(parallel->visits, 3u);  // one per thread, merged

  CallNode* barrier =
      find_child(parallel, instr.implicit_barrier_region());
  ASSERT_NE(barrier, nullptr);
  EXPECT_EQ(barrier->visits, 3u);

  // The creator's task-creation region is a child of the parallel node.
  const RegionHandle create = instr.create_region_for(task_);
  CallNode* create_node = find_child(parallel, create);
  ASSERT_NE(create_node, nullptr);
  EXPECT_EQ(create_node->visits, 6u);

  // The task construct's merged tree sits beside the main tree and
  // contains taskwait and nested create nodes.
  ASSERT_EQ(agg.task_roots.size(), 1u);
  const CallNode* task_root = agg.task_roots[0];
  EXPECT_EQ(task_root->region, task_);
  EXPECT_EQ(task_root->visits, 12u);  // 6 outer + 6 inner instances
  CallNode* wait_in_task =
      find_child(const_cast<CallNode*>(task_root), instr.taskwait_region());
  ASSERT_NE(wait_in_task, nullptr);
  EXPECT_EQ(wait_in_task->visits, 6u);
  EXPECT_NE(find_child(const_cast<CallNode*>(task_root), create), nullptr);
}

TEST_F(InstrumentorTest, StubTimeEqualsTaskTreeTimeExactly) {
  // Every executed task fragment is timed identically in the implicit
  // tree's stub node and in the task's construct tree, so the totals match
  // tick for tick (the conservation law of the paper's design).
  rt::SimRuntime sim;
  Instrumentor instr(registry_);
  sim.set_hooks(&instr);
  run_program(sim);
  sim.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile agg = instr.aggregate();
  EXPECT_EQ(total_stub_time(agg), total_task_tree_time(agg));
  EXPECT_GT(total_stub_time(agg), 0);
}

TEST_F(InstrumentorTest, RealEngineSatisfiesSameInvariants) {
  rt::RealRuntime real;
  Instrumentor instr(registry_);
  real.set_hooks(&instr);
  run_program(real);
  real.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile agg = instr.aggregate();

  EXPECT_EQ(total_stub_time(agg), total_task_tree_time(agg));
  ASSERT_EQ(agg.task_roots.size(), 1u);
  EXPECT_EQ(agg.task_roots[0]->visits, 12u);

  // No negative exclusive times anywhere (execution-site attribution).
  for_each_node(agg.implicit_root, [](const CallNode& node, int) {
    EXPECT_GE(node.exclusive(), 0) << "negative exclusive in main tree";
  });
  for (const CallNode* root : agg.task_roots) {
    for_each_node(root, [](const CallNode& node, int) {
      EXPECT_GE(node.exclusive(), 0) << "negative exclusive in task tree";
    });
  }
}

TEST_F(InstrumentorTest, SimTimesAreExactlyConserved) {
  rt::SimRuntime sim;
  Instrumentor instr(registry_);
  sim.set_hooks(&instr);
  auto stats = sim.parallel(2, [this](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int i = 0; i < 4; ++i) {
      ctx.create_task([](rt::TaskContext& c) { c.work(10'000); },
                      attrs_for(task_));
    }
  });
  sim.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile agg = instr.aggregate();

  // Each thread's implicit root spans the whole region: the merged root's
  // inclusive time is bounded by threads * span and is at least the span.
  ASSERT_NE(agg.implicit_root, nullptr);
  EXPECT_GE(agg.implicit_root->inclusive, stats.parallel_ticks);
  EXPECT_LE(agg.implicit_root->inclusive, 2 * stats.parallel_ticks);

  // All 4 tasks' work appears in the merged task tree.
  ASSERT_EQ(agg.task_roots.size(), 1u);
  EXPECT_GE(agg.task_roots[0]->inclusive, 40'000);
}

TEST_F(InstrumentorTest, ConcurrencyMarkResetWorks) {
  rt::SimRuntime sim;
  Instrumentor instr(registry_);
  sim.set_hooks(&instr);
  run_program(sim);
  const AggregateProfile before = instr.aggregate();
  EXPECT_GE(before.max_concurrent_any_thread, 1u);
  instr.reset_concurrency_marks();
  const AggregateProfile after = instr.aggregate();
  EXPECT_EQ(after.max_concurrent_any_thread, 0u);
  sim.set_hooks(nullptr);
  instr.finalize();
}

TEST_F(InstrumentorTest, MultipleParallelRegionsAccumulate) {
  rt::SimRuntime sim;
  Instrumentor instr(registry_);
  sim.set_hooks(&instr);
  run_program(sim);
  run_program(sim);
  sim.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile agg = instr.aggregate();
  ASSERT_EQ(agg.task_roots.size(), 1u);
  EXPECT_EQ(agg.task_roots[0]->visits, 24u);
  const CallNode* parallel = find_child(
      const_cast<CallNode*>(agg.implicit_root), instr.parallel_region());
  ASSERT_NE(parallel, nullptr);
  EXPECT_EQ(parallel->visits, 6u);  // 3 threads x 2 regions
}

TEST_F(InstrumentorTest, CreateRegionsAreRegisteredPerConstruct) {
  Instrumentor instr(registry_);
  const RegionHandle other =
      registry_.register_region("other_task", RegionType::kTask);
  const RegionHandle create_a = instr.create_region_for(task_);
  const RegionHandle create_b = instr.create_region_for(other);
  EXPECT_NE(create_a, create_b);
  EXPECT_EQ(instr.create_region_for(task_), create_a);  // cached
  EXPECT_EQ(registry_.info(create_a).name, "create work_task");
  EXPECT_EQ(registry_.info(create_a).type, RegionType::kTaskCreate);
}

// Every thread resolves create regions through its own table; the table
// must stay a cache of the one registration point.  Each thread of the
// team creates tasks of three constructs, interleaved, some nested.
void expect_one_create_region_per_construct(rt::Runtime& runtime,
                                            int threads) {
  RegionRegistry registry;
  const std::array<RegionHandle, 3> constructs = {
      registry.register_region("alpha", RegionType::kTask),
      registry.register_region("beta", RegionType::kTask),
      registry.register_region("gamma", RegionType::kTask)};
  Instrumentor instr(registry);
  runtime.set_hooks(&instr);
  const rt::TeamStats stats =
      runtime.parallel(threads, [&](rt::TaskContext& ctx) {
        for (int i = 0; i < 30; ++i) {
          const std::size_t k = (ctx.thread_id() + i) % constructs.size();
          const RegionHandle nested = constructs[(k + 1) % constructs.size()];
          ctx.create_task(
              [nested](rt::TaskContext& c) {
                c.work(200);
                c.create_task([](rt::TaskContext& leaf) { leaf.work(100); },
                              attrs_for(nested));
                c.taskwait();
              },
              attrs_for(constructs[k]));
        }
        ctx.taskwait();
      });
  runtime.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile agg = instr.aggregate();

  std::array<RegionHandle, 3> creates{};
  for (std::size_t k = 0; k < constructs.size(); ++k) {
    creates[k] = instr.create_region_for(constructs[k]);
    EXPECT_EQ(instr.create_region_for(constructs[k]), creates[k]);
    EXPECT_EQ(registry.info(creates[k]).name,
              "create " + registry.info(constructs[k]).name);
  }
  std::size_t create_regions = 0;
  for (RegionHandle h = 0; h < registry.size(); ++h) {
    const RegionInfo& info = registry.info(h);
    if (info.type != RegionType::kTaskCreate) continue;
    ++create_regions;
    EXPECT_NE(std::find(creates.begin(), creates.end(), h), creates.end())
        << info.name;
  }
  EXPECT_EQ(create_regions, constructs.size());

  std::uint64_t create_visits = 0;
  const auto count_creates = [&](const CallNode& node, int) {
    if (registry.info(node.region).type != RegionType::kTaskCreate) return;
    EXPECT_NE(std::find(creates.begin(), creates.end(), node.region),
              creates.end());
    create_visits += node.visits;
  };
  for_each_node(agg.implicit_root, count_creates);
  for (const CallNode* root : agg.task_roots) {
    for_each_node(root, count_creates);
  }
  // 30 outer and 30 nested creations per thread.
  EXPECT_EQ(create_visits, static_cast<std::uint64_t>(threads) * 60u);

  const check::InvariantReport verdict =
      check::check_profile(agg, registry, &stats);
  EXPECT_TRUE(verdict.ok()) << verdict.to_string();
}

TEST(InstrumentorCreateRegions, RealEngineFourThreadsThreeConstructs) {
  rt::RealRuntime real;
  expect_one_create_region_per_construct(real, 4);
}

TEST(InstrumentorCreateRegions, SimEightWorkersThreeConstructs) {
  rt::SimRuntime sim;
  expect_one_create_region_per_construct(sim, 8);
}

TEST_F(InstrumentorTest, DepthLimitBoundsTheProfileSize) {
  const RegionHandle deep_fn =
      registry_.register_region("deep_fn", RegionType::kFunction);
  auto run_with_limit = [&](std::size_t limit) {
    MeasureOptions options;
    options.max_tree_depth = limit;
    rt::SimRuntime sim;
    Instrumentor instr(registry_, options);
    sim.set_hooks(&instr);
    sim.parallel(1, [&](rt::TaskContext& ctx) {
      std::function<void(int)> recurse = [&](int depth) {
        ctx.region_enter(deep_fn);
        ctx.work(100);
        if (depth > 0) recurse(depth - 1);
        ctx.region_exit(deep_fn);
      };
      recurse(50);
    });
    sim.set_hooks(nullptr);
    instr.finalize();
    AggregateProfile agg = instr.aggregate();
    return std::make_pair(subtree_size(agg.implicit_root),
                          agg.total_folded_events);
  };
  const auto [unlimited_nodes, unlimited_folds] = run_with_limit(0);
  const auto [limited_nodes, limited_folds] = run_with_limit(5);
  EXPECT_GT(unlimited_nodes, 50u);
  EXPECT_EQ(unlimited_folds, 0u);
  EXPECT_LE(limited_nodes, 6u);  // implicit root + parallel + 4 levels
  EXPECT_GT(limited_folds, 40u);
}

TEST_F(InstrumentorTest, MemoryStatsTrackPools) {
  rt::SimRuntime sim;
  Instrumentor instr(registry_);
  sim.set_hooks(&instr);
  run_program(sim);
  sim.set_hooks(nullptr);
  instr.finalize();
  const Instrumentor::MemoryStats stats = instr.memory_stats();
  EXPECT_GT(stats.nodes, 0u);
  EXPECT_EQ(stats.bytes, stats.nodes * sizeof(CallNode));
}

TEST_F(InstrumentorTest, FanoutDeliversToAllListeners) {
  Instrumentor first(registry_);
  Instrumentor second(registry_);
  rt::FanoutHooks fanout{&first, &second};
  rt::SimRuntime sim;
  sim.set_hooks(&fanout);
  run_program(sim);
  sim.set_hooks(nullptr);
  first.finalize();
  second.finalize();
  const AggregateProfile a = first.aggregate();
  const AggregateProfile b = second.aggregate();
  ASSERT_EQ(a.task_roots.size(), 1u);
  ASSERT_EQ(b.task_roots.size(), 1u);
  EXPECT_EQ(a.task_roots[0]->visits, b.task_roots[0]->visits);
  EXPECT_EQ(a.task_roots[0]->inclusive, b.task_roots[0]->inclusive);
  EXPECT_EQ(subtree_size(a.implicit_root), subtree_size(b.implicit_root));
}

TEST_F(InstrumentorTest, FilteredRegionsFoldIntoParents) {
  const RegionHandle hot =
      registry_.register_region("hot_helper", RegionType::kFunction);
  const RegionHandle kept =
      registry_.register_region("kept_fn", RegionType::kFunction);

  auto run = [&](bool filter) {
    rt::SimRuntime sim;
    Instrumentor instr(registry_);
    if (filter) instr.filter_region(hot);
    sim.set_hooks(&instr);
    sim.parallel(1, [&](rt::TaskContext& ctx) {
      rt::TaskAttrs attrs;
      attrs.region = task_;
      ctx.create_task(
          [&](rt::TaskContext& c) {
            rt::ScopedRegion keep(c, kept);
            for (int i = 0; i < 10; ++i) {
              rt::ScopedRegion inner(c, hot);
              c.work(1'000);
            }
          },
          attrs);
    });
    sim.set_hooks(nullptr);
    instr.finalize();
    return instr.aggregate();
  };

  const AggregateProfile unfiltered = run(false);
  const AggregateProfile filtered = run(true);

  const CallNode* kept_plain = find_child(
      const_cast<CallNode*>(unfiltered.task_roots[0]), kept);
  const CallNode* kept_filtered =
      find_child(const_cast<CallNode*>(filtered.task_roots[0]), kept);
  ASSERT_NE(kept_plain, nullptr);
  ASSERT_NE(kept_filtered, nullptr);
  // Unfiltered: hot_helper is a child holding the 10 us; filtered: no such
  // node, the time folds into kept_fn's exclusive time.
  EXPECT_NE(find_child(const_cast<CallNode*>(kept_plain), hot), nullptr);
  EXPECT_EQ(find_child(const_cast<CallNode*>(kept_filtered), hot), nullptr);
  EXPECT_GE(kept_filtered->exclusive(), 10'000);
  EXPECT_LT(kept_plain->exclusive(), kept_filtered->exclusive());
  // Inclusive time is conserved either way.
  EXPECT_GE(kept_plain->inclusive, 10'000);
  EXPECT_GE(kept_filtered->inclusive, 10'000);
}

using InstrumentorDeathTest = InstrumentorTest;

TEST_F(InstrumentorDeathTest, FilteringAConstructAborts) {
  Instrumentor instr(registry_);
  EXPECT_DEATH(instr.filter_region(instr.taskwait_region()),
               "user function regions");
}

TEST_F(InstrumentorTest, ViewsExposePerThreadProfiles) {
  rt::SimRuntime sim;
  Instrumentor instr(registry_);
  sim.set_hooks(&instr);
  run_program(sim);
  sim.set_hooks(nullptr);
  instr.finalize();
  const auto views = instr.views();
  EXPECT_EQ(views.size(), 3u);
  for (const auto& view : views) {
    EXPECT_NE(view.implicit_root, nullptr);
  }
  EXPECT_NE(instr.profiler(0), nullptr);
  EXPECT_EQ(instr.profiler(99), nullptr);
}

}  // namespace
}  // namespace taskprof

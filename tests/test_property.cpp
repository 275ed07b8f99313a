// Property-based tests: random task programs on the simulator must
// satisfy the measurement-layer invariants for every seed.  The program
// generators live in src/check/random_tree.hpp — the same generators the
// schedule fuzzer (fuzz_schedules) sweeps — and the structural laws are
// asserted both directly and through check::check_profile, so a new
// invariant added to the checker is automatically enforced here too.
#include <gtest/gtest.h>

#include "check/invariants.hpp"
#include "check/random_tree.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/real_runtime.hpp"
#include "rt/sim_runtime.hpp"

namespace taskprof {
namespace {

struct RunOutcome {
  rt::TeamStats stats;
  Ticks stub_total = 0;
  Ticks task_tree_total = 0;
  std::uint64_t merged_instances = 0;
  bool all_exclusive_nonnegative = true;
  Ticks implicit_inclusive = 0;
  std::size_t max_concurrent = 0;
  check::InvariantReport report;
};

RunOutcome run_random_program(rt::Runtime& runtime, std::uint64_t seed,
                              int threads, check::TreeShape shape = {},
                              int roots = 6) {
  RegionRegistry registry;
  const check::RandomTaskTree tree(registry, shape);
  Instrumentor instr(registry);
  runtime.set_hooks(&instr);
  RunOutcome out;
  out.stats = tree.run(runtime, seed, threads, roots);
  runtime.set_hooks(nullptr);
  instr.finalize();

  const AggregateProfile agg = instr.aggregate();
  out.report = check::check_profile(agg, registry, &out.stats);
  for_each_node(agg.implicit_root, [&](const CallNode& node, int) {
    if (node.is_stub) out.stub_total += node.inclusive;
    if (node.exclusive() < 0) out.all_exclusive_nonnegative = false;
  });
  for (const CallNode* root : agg.task_roots) {
    out.task_tree_total += root->inclusive;
    out.merged_instances += root->visits;
    for_each_node(root, [&](const CallNode& node, int) {
      if (node.exclusive() < 0) out.all_exclusive_nonnegative = false;
    });
  }
  out.implicit_inclusive = agg.implicit_root->inclusive;
  out.max_concurrent = agg.max_concurrent_any_thread;
  return out;
}

class RandomProgramTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(RandomProgramTest, MeasurementInvariantsHold) {
  const auto [seed, threads] = GetParam();
  rt::SimRuntime sim;
  const RunOutcome out = run_random_program(sim, seed, threads);

  // Some work actually happened.
  EXPECT_GT(out.stats.tasks_executed, 0u);

  // The full structural checker agrees.
  EXPECT_TRUE(out.report.ok()) << out.report.to_string();

  // Conservation: every executed fragment is timed identically in the
  // implicit tree's stub and in the task's construct tree.
  EXPECT_EQ(out.stub_total, out.task_tree_total);

  // Execution-site attribution keeps all exclusive times non-negative.
  EXPECT_TRUE(out.all_exclusive_nonnegative);

  // Every created task instance ended up in exactly one merged tree.
  EXPECT_EQ(out.merged_instances, out.stats.tasks_executed);

  // The merged implicit root spans all threads: at least the region span,
  // at most threads * span.
  EXPECT_GE(out.implicit_inclusive, out.stats.parallel_ticks);
  EXPECT_LE(out.implicit_inclusive,
            static_cast<Ticks>(threads) * out.stats.parallel_ticks);

  // Concurrent instances are bounded by active tree depth plus the
  // suspended untied tasks — sanity bound, not tight.
  EXPECT_LE(out.max_concurrent, out.stats.tasks_executed);
  EXPECT_GE(out.max_concurrent, 1u);
}

TEST_P(RandomProgramTest, DeterministicAcrossRuns) {
  const auto [seed, threads] = GetParam();
  rt::SimRuntime sim_a;
  rt::SimRuntime sim_b;
  const RunOutcome a = run_random_program(sim_a, seed, threads);
  const RunOutcome b = run_random_program(sim_b, seed, threads);
  EXPECT_EQ(a.stats.parallel_ticks, b.stats.parallel_ticks);
  EXPECT_EQ(a.stats.tasks_executed, b.stats.tasks_executed);
  EXPECT_EQ(a.stub_total, b.stub_total);
  EXPECT_EQ(a.implicit_inclusive, b.implicit_inclusive);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomProgramTest,
    ::testing::Combine(::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull, 13ull,
                                         21ull, 34ull, 55ull, 89ull),
                       ::testing::Values(1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<std::uint64_t, int>>&
           param_info) {
      return "seed" + std::to_string(std::get<0>(param_info.param)) + "_t" +
             std::to_string(std::get<1>(param_info.param));
    });

// Sweep the generator's shape knobs: deep and narrow, flat and wide,
// untied-heavy, undeferred mix, and fire-and-forget (no taskwait).  The
// structural laws must hold for every shape the fuzzer can draw.
struct ShapeCase {
  const char* name;
  check::TreeShape shape;
};

std::vector<ShapeCase> shape_cases() {
  std::vector<ShapeCase> cases;
  check::TreeShape deep;
  deep.max_depth = 8;
  deep.max_fanout = 2;
  cases.push_back({"deep_narrow", deep});
  check::TreeShape wide;
  wide.max_depth = 2;
  wide.max_fanout = 8;
  cases.push_back({"flat_wide", wide});
  check::TreeShape untied;
  untied.untied_fraction = 0.9;
  cases.push_back({"untied_heavy", untied});
  check::TreeShape undeferred;
  undeferred.undeferred_fraction = 0.5;
  cases.push_back({"undeferred_mix", undeferred});
  check::TreeShape no_wait;
  no_wait.taskwait_fraction = 0.0;
  cases.push_back({"fire_and_forget", no_wait});
  return cases;
}

class ShapeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShapeSweep, InvariantsHoldForAnyShape) {
  const ShapeCase shape_case = shape_cases()[GetParam()];
  for (std::uint64_t seed : {3ull, 17ull}) {
    SCOPED_TRACE(::testing::Message()
                 << shape_case.name << " seed " << seed);
    rt::SimRuntime sim;
    const RunOutcome out =
        run_random_program(sim, seed, 4, shape_case.shape);
    EXPECT_TRUE(out.report.ok()) << out.report.to_string();
    EXPECT_EQ(out.stub_total, out.task_tree_total);
    EXPECT_EQ(out.merged_instances, out.stats.tasks_executed);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeSweep,
                         ::testing::Range<std::size_t>(0, 5),
                         [](const ::testing::TestParamInfo<std::size_t>& p) {
                           return shape_cases()[p.param].name;
                         });

// The same invariants on the real-thread engine (timing is wall clock,
// but the structural laws are engine-independent).
class RealEngineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RealEngineProperty, StructuralInvariantsHold) {
  check::TreeShape shape;
  shape.max_depth = 3;
  rt::RealRuntime real;
  const RunOutcome out =
      run_random_program(real, GetParam(), 2, shape, /*roots=*/4);
  EXPECT_TRUE(out.report.ok()) << out.report.to_string();
  EXPECT_TRUE(out.all_exclusive_nonnegative);
  // The conservation law holds tick-exactly on the real engine too: stub
  // and instance frames are stamped from the same clock reads.
  EXPECT_EQ(out.stub_total, out.task_tree_total);
  EXPECT_EQ(out.merged_instances, out.stats.tasks_executed);
}

INSTANTIATE_TEST_SUITE_P(RealSeeds, RealEngineProperty,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

// The measurement invariants must hold for any cost-model configuration:
// sweep the simulator's knobs over a uniform binary tree (depth 6 -> 126
// tasks).
struct CostCase {
  const char* name;
  rt::SimCosts costs;
  bool lifo;
  bool strict;
};

std::vector<CostCase> cost_cases() {
  std::vector<CostCase> cases;
  cases.push_back({"defaults", rt::SimCosts{}, true, true});
  rt::SimCosts free_mgmt;
  free_mgmt.create_service = 0;
  free_mgmt.dequeue_service = 0;
  free_mgmt.complete_service = 0;
  free_mgmt.contention_penalty = 0.0;
  cases.push_back({"free_management", free_mgmt, true, true});
  rt::SimCosts expensive;
  expensive.create_service = 5'000;
  expensive.dequeue_service = 5'000;
  expensive.complete_service = 5'000;
  expensive.contention_penalty = 2.0;
  cases.push_back({"expensive_lock", expensive, true, true});
  rt::SimCosts costly_events;
  costly_events.instr_event = 2'000;
  cases.push_back({"costly_events", costly_events, true, true});
  cases.push_back({"fifo_relaxed", rt::SimCosts{}, false, false});
  return cases;
}

class CostModelSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CostModelSweep, InvariantsHoldForAnyCostModel) {
  const CostCase cost_case = cost_cases()[GetParam()];
  RegionRegistry registry;
  const check::UniformTree tree(registry, /*work=*/400);
  rt::SimConfig config;
  config.costs = cost_case.costs;
  config.lifo_dequeue = cost_case.lifo;
  config.strict_taskwait_scheduling = cost_case.strict;
  rt::SimRuntime sim(config);
  Instrumentor instr(registry);
  sim.set_hooks(&instr);
  const auto stats = sim.parallel(4, [&](rt::TaskContext& ctx) {
    if (ctx.single()) tree.body(ctx, /*depth=*/6, /*fanout=*/2);
  });
  sim.set_hooks(nullptr);
  instr.finalize();

  const AggregateProfile agg = instr.aggregate();
  EXPECT_EQ(stats.tasks_executed, check::UniformTree::task_count(6, 2))
      << cost_case.name;
  EXPECT_EQ(stats.tasks_executed, 126u) << cost_case.name;
  Ticks stub_total = 0;
  for_each_node(agg.implicit_root, [&](const CallNode& node, int) {
    if (node.is_stub) stub_total += node.inclusive;
    EXPECT_GE(node.exclusive(), 0) << cost_case.name;
  });
  Ticks task_total = 0;
  for (const CallNode* root : agg.task_roots) task_total += root->inclusive;
  EXPECT_EQ(stub_total, task_total) << cost_case.name;
  // All declared work (126 tasks x 400 plus creators' shares) is inside
  // the task trees.
  EXPECT_GE(task_total, 126 * 400) << cost_case.name;
  const check::InvariantReport report =
      check::check_profile(agg, registry, &stats);
  EXPECT_TRUE(report.ok()) << cost_case.name << "\n" << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(Models, CostModelSweep,
                         ::testing::Range<std::size_t>(0, 5));

TEST(SchedulingBound, StrictPolicyBoundsConcurrencyByDepth) {
  // Binary task tree of depth 8: under strict scheduling the live
  // instance count per thread stays within the chain depth (+1 for the
  // freshly started task), for every team size.
  RegionRegistry registry;
  const check::UniformTree tree(registry, /*work=*/300);
  for (int threads : {1, 2, 4, 8, 16}) {
    rt::SimRuntime sim;
    Instrumentor instr(registry);
    sim.set_hooks(&instr);
    sim.parallel(threads, [&](rt::TaskContext& ctx) {
      if (ctx.single()) tree.body(ctx, /*depth=*/8, /*fanout=*/2);
    });
    sim.set_hooks(nullptr);
    instr.finalize();
    const AggregateProfile agg = instr.aggregate();
    EXPECT_LE(agg.max_concurrent_any_thread, 9u) << threads << " threads";
  }
}

TEST(RandomProgramEdge, ZeroTaskProgramStillProfiles) {
  RegionRegistry registry;
  rt::SimRuntime sim;
  Instrumentor instr(registry);
  sim.set_hooks(&instr);
  auto stats = sim.parallel(4, [](rt::TaskContext& ctx) { ctx.work(1'000); });
  sim.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile agg = instr.aggregate();
  EXPECT_EQ(stats.tasks_executed, 0u);
  EXPECT_TRUE(agg.task_roots.empty());
  ASSERT_NE(agg.implicit_root, nullptr);
  EXPECT_GE(agg.implicit_root->inclusive, 4'000);
}

TEST(RandomProgramEdge, DeepChainOfSingleChildren) {
  // A fanout-1 uniform tree is a 61-deep dependency chain: each task
  // spawns one child and waits for it.
  RegionRegistry registry;
  const check::UniformTree tree(registry, /*work=*/50);
  rt::SimRuntime sim;
  Instrumentor instr(registry);
  sim.set_hooks(&instr);
  auto stats = sim.parallel(2, [&](rt::TaskContext& ctx) {
    if (ctx.single()) tree.body(ctx, /*depth=*/61, /*fanout=*/1);
  });
  sim.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile agg = instr.aggregate();
  EXPECT_EQ(stats.tasks_executed, check::UniformTree::task_count(61, 1));
  EXPECT_EQ(stats.tasks_executed, 61u);
  // The dependency chain forces ~chain-depth concurrent instances
  // (paper §V-B: "the longest dependency chain ... may serve as a good
  // estimate for the number of concurrent tasks").
  EXPECT_GE(agg.max_concurrent_any_thread, 30u);
}

}  // namespace
}  // namespace taskprof

// Tests of the event-engine fast paths: the hot_child last-hit cache,
// the promoted open-addressed ChildIndex on wide-fan-out nodes, the
// iterative O(1)-space merge/release walks, and task frames that write
// straight into the construct tree.  The through-line: every fast path
// must be profile-identical to the plain engine it replaced (linear
// sibling scans, eager instance trees, full merge walks).  That engine is
// gone; its profile of a mixed event stream is kept as a golden
// (tests/corpus/hotpath/run_stream.csv) that the fast paths must
// reproduce byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bots/kernel.hpp"
#include "check/invariants.hpp"
#include "common/clock.hpp"
#include "instrument/instrumentor.hpp"
#include "measure/aggregate.hpp"
#include "measure/task_profiler.hpp"
#include "profile/calltree.hpp"
#include "profile/region.hpp"
#include "report/text_report.hpp"
#include "rt/sim_runtime.hpp"
#include "test_util.hpp"

namespace taskprof {
namespace {

// ---- ChildIndex promotion on wide fan-out ---------------------------------

class ChildIndexTest : public ::testing::Test {
 protected:
  NodePool pool_;
};

TEST_F(ChildIndexTest, PromotionAtFanoutThreshold) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  for (std::size_t i = 0; i < kChildIndexFanout - 1; ++i) {
    find_or_create_child(pool_, root, static_cast<RegionHandle>(i + 1));
    EXPECT_EQ(root->child_index, nullptr) << "premature promotion at " << i;
  }
  find_or_create_child(pool_, root,
                       static_cast<RegionHandle>(kChildIndexFanout));
  ASSERT_NE(root->child_index, nullptr);
  EXPECT_EQ(root->child_index->size(), kChildIndexFanout);
}

TEST_F(ChildIndexTest, IndexHitsAndMissesMatchLinearScan) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  // Parameter-heavy fan-out, as per-depth nqueens produces: one region,
  // hundreds of parameter values, plus stub/non-stub twins.
  std::vector<CallNode*> made;
  for (std::int64_t p = 0; p < 300; ++p) {
    made.push_back(find_or_create_child(pool_, root, 7, p, false));
    made.push_back(find_or_create_child(pool_, root, 7, p, true));
  }
  ASSERT_NE(root->child_index, nullptr);
  for (std::int64_t p = 0; p < 300; ++p) {
    EXPECT_EQ(find_child(root, 7, p, false), made[2 * p]);
    EXPECT_EQ(find_child(root, 7, p, true), made[2 * p + 1]);
  }
  EXPECT_EQ(find_child(root, 7, 300, false), nullptr);
  EXPECT_EQ(find_child(root, 8, 0, false), nullptr);
  EXPECT_EQ(find_child(root, 7, 0, true), made[1]);
}

TEST_F(ChildIndexTest, FirstVisitSiblingOrderSurvivesPromotion) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  constexpr int kChildren = 64;
  for (int i = 0; i < kChildren; ++i) {
    find_or_create_child(pool_, root, static_cast<RegionHandle>(i + 1));
  }
  // Re-find in scrambled order: lookups must not reorder the list.
  for (int i = kChildren - 1; i >= 0; i -= 3) {
    find_or_create_child(pool_, root, static_cast<RegionHandle>(i + 1));
  }
  int expected = 1;
  for (const CallNode* c = root->first_child; c != nullptr;
       c = c->next_sibling) {
    EXPECT_EQ(c->region, static_cast<RegionHandle>(expected++));
  }
  EXPECT_EQ(expected, kChildren + 1);
  EXPECT_EQ(root->child_count(), static_cast<std::size_t>(kChildren));
}

TEST_F(ChildIndexTest, HotChildShortCircuitsRepeatLookups) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  CallNode* a = find_or_create_child(pool_, root, 1);
  EXPECT_EQ(root->hot_child, a);
  CallNode* b = find_or_create_child(pool_, root, 2);
  EXPECT_EQ(root->hot_child, b);
  EXPECT_EQ(find_or_create_child(pool_, root, 2), b);
  EXPECT_EQ(find_or_create_child(pool_, root, 1), a);
  EXPECT_EQ(root->hot_child, a);
}

TEST_F(ChildIndexTest, AllocateKeepsPromotedIndexComplete) {
  // Children added via the raw allocate path (not find_or_create) must
  // still land in an already-promoted index.
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  for (std::size_t i = 0; i < kChildIndexFanout; ++i) {
    find_or_create_child(pool_, root, static_cast<RegionHandle>(i + 1));
  }
  ASSERT_NE(root->child_index, nullptr);
  CallNode* direct = pool_.allocate(99, kNoParameter, false, root);
  EXPECT_EQ(root->child_index->find(99, kNoParameter, false), direct);
  EXPECT_EQ(root->child_index->size(), root->child_count());
}

TEST_F(ChildIndexTest, UnlinkRebuildsOrDropsIndex) {
  CallNode* root = pool_.allocate(0, kNoParameter, false, nullptr);
  std::vector<CallNode*> children;
  for (std::size_t i = 0; i < kChildIndexFanout + 2; ++i) {
    children.push_back(
        find_or_create_child(pool_, root, static_cast<RegionHandle>(i + 1)));
  }
  ASSERT_NE(root->child_index, nullptr);

  // Still at/above the threshold after one release: index is rebuilt and
  // must not resolve the removed child.
  pool_.release_subtree(children[3]);
  ASSERT_NE(root->child_index, nullptr);
  EXPECT_EQ(find_child(root, 4), nullptr);
  EXPECT_EQ(find_child(root, 5), children[4]);
  EXPECT_EQ(root->child_index->size(), root->child_count());

  // Dropping below the threshold demotes back to the plain list.
  while (root->child_count() >= kChildIndexFanout) {
    pool_.release_subtree(root->first_child);
  }
  EXPECT_EQ(root->child_index, nullptr);
  EXPECT_EQ(find_child(root, static_cast<RegionHandle>(kChildIndexFanout + 2)),
            children.back());
}

// ---- Iterative walks on pathologically deep trees -------------------------
//
// These trees are deep enough that the old recursive merge (and the
// per-node std::string recursion in CSV rendering) overflowed the C++
// stack; passing at all is the assertion.

constexpr int kDeepChain = 200'000;

TEST(DeepTreeTest, IterativeMergeAndReleaseSurviveDeepChains) {
  NodePool src_pool;
  CallNode* src = src_pool.allocate(0, kNoParameter, false, nullptr);
  CallNode* tip = src;
  for (int i = 1; i < kDeepChain; ++i) {
    tip = src_pool.allocate(static_cast<RegionHandle>(i % 17), i % 5, false,
                            tip);
    tip->visits = 1;
    tip->inclusive = 1;
    tip->visit_stats.add(1);
  }
  src->visits = 1;
  src->inclusive = kDeepChain;
  src->visit_stats.add(kDeepChain);

  NodePool dst_pool;
  CallNode* dst = dst_pool.allocate(0, kNoParameter, false, nullptr);
  merge_subtree(dst_pool, dst, src, {}, {});
  EXPECT_EQ(subtree_size(dst), static_cast<std::size_t>(kDeepChain));
  // Merging the same chain again folds onto the existing nodes.
  merge_subtree(dst_pool, dst, src, {}, {});
  EXPECT_EQ(subtree_size(dst), static_cast<std::size_t>(kDeepChain));
  EXPECT_EQ(dst->visits, 2u);

  src_pool.release_subtree(src);
  EXPECT_EQ(src_pool.free_count(), static_cast<std::size_t>(kDeepChain));
  dst_pool.release_subtree(dst);
  EXPECT_EQ(dst_pool.free_count(), static_cast<std::size_t>(kDeepChain));
}

TEST(DeepTreeTest, ReportsRenderDeepChainsIteratively) {
  RegionRegistry registry;
  const RegionHandle implicit =
      registry.register_region("implicit task", RegionType::kImplicitTask);
  const RegionHandle fn =
      registry.register_region("f", RegionType::kFunction);

  ManualClock clock;
  ThreadTaskProfiler prof(0, clock, implicit);
  for (int i = 0; i < kDeepChain; ++i) {
    prof.enter(fn);
    clock.advance(1);
  }
  for (int i = 0; i < kDeepChain; ++i) prof.exit(fn);
  prof.finalize();

  const ThreadProfileView view = prof.view();
  AggregateProfile profile = aggregate_profiles({&view, 1});
  // Depth-capped text render: the traversal still walks all 200k nodes
  // (the recursive renderer overflowed the stack here), but the emitted
  // text stays small.  Uncapped renders of a chain this deep are
  // inherently quadratic in output size (indentation / full CSV paths),
  // so they are exercised on a shallower tree below.
  ReportOptions capped;
  capped.max_depth = 10;
  const std::string text = render_tree(profile.implicit_root, registry,
                                       capped);
  EXPECT_EQ(static_cast<int>(std::count(text.begin(), text.end(), '\n')), 11);
}

TEST(DeepTreeTest, CsvPathsStayCorrectOnDeepChains) {
  // Deep enough to break per-node recursion with string frames, shallow
  // enough that the (inherently quadratic) path column stays in bounds.
  constexpr int kCsvChain = 4'000;
  RegionRegistry registry;
  const RegionHandle implicit =
      registry.register_region("implicit task", RegionType::kImplicitTask);
  const RegionHandle fn =
      registry.register_region("f", RegionType::kFunction);

  ManualClock clock;
  ThreadTaskProfiler prof(0, clock, implicit);
  for (int i = 0; i < kCsvChain; ++i) {
    prof.enter(fn);
    clock.advance(1);
  }
  for (int i = 0; i < kCsvChain; ++i) prof.exit(fn);
  prof.finalize();

  const ThreadProfileView view = prof.view();
  AggregateProfile profile = aggregate_profiles({&view, 1});
  const std::string csv = render_csv(profile, registry);
  // Header + one row per node.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'),
            static_cast<std::ptrdiff_t>(kCsvChain) + 2);
  // The deepest row's path must contain every ancestor.
  const std::string deepest = "implicit task" + [] {
    std::string tail;
    for (int i = 0; i < kCsvChain; ++i) tail += "/f";
    return tail;
  }();
  EXPECT_NE(csv.find(deepest), std::string::npos);
}

// ---- Fast-path vs. general-path profile equivalence -----------------------

class HotpathEquivalenceTest : public ::testing::Test {
 protected:
  std::unique_ptr<ThreadTaskProfiler> make(MeasureOptions options) {
    clock_.set(0);
    return std::make_unique<ThreadTaskProfiler>(0, clock_, implicit_,
                                                options);
  }

  /// Deterministic mixed event stream: leaf-only tasks, tasks with nested
  /// enters and a parameter fan-out wide enough to promote indexes,
  /// interleaved suspension, and a taskwait.
  void run_stream(ThreadTaskProfiler& prof) {
    clock_.set(0);
    prof.enter(main_);
    clock_.advance(1);
    prof.enter(barrier_);
    TaskInstanceId next_id = 1;
    for (std::int64_t round = 0; round < 40; ++round) {
      // Leaf task: only its root frame.
      const TaskInstanceId leaf = next_id++;
      clock_.advance(1);
      prof.task_begin(task_a_, leaf, round % 12);
      clock_.advance(2 + round % 3);
      prof.task_end(leaf);
      // Structured task: nested regions, one suspension in the middle.
      const TaskInstanceId big = next_id++;
      clock_.advance(1);
      prof.task_begin(task_b_, big, round % 7);
      prof.enter(foo_);
      clock_.advance(3);
      const TaskInstanceId nested = next_id++;
      prof.task_begin(task_a_, nested, round % 12);  // suspends `big`
      clock_.advance(2);
      prof.task_end(nested);  // back on the implicit task
      clock_.advance(1);
      prof.task_switch(big);  // resume the suspended instance
      clock_.advance(1);
      prof.exit(foo_);
      clock_.advance(1);
      prof.task_end(big);
    }
    clock_.advance(1);
    prof.exit(barrier_);
    prof.enter(taskwait_);
    clock_.advance(2);
    prof.exit(taskwait_);
    clock_.advance(1);
    prof.exit(main_);
    prof.finalize();
  }

  std::string profile_csv(ThreadTaskProfiler& prof, MeasureOptions options) {
    const ThreadProfileView view = prof.view();
    AggregateProfile profile = aggregate_profiles({&view, 1});
    const check::InvariantReport report =
        check::check_profile(profile, registry_, nullptr, nullptr, options);
    EXPECT_TRUE(report.violations.empty()) << report.to_string();
    return render_csv(profile, registry_);
  }

  RegionRegistry registry_;
  ManualClock clock_;
  RegionHandle implicit_ =
      registry_.register_region("implicit task", RegionType::kImplicitTask);
  RegionHandle main_ = registry_.register_region("main", RegionType::kFunction);
  RegionHandle foo_ = registry_.register_region("foo", RegionType::kFunction);
  RegionHandle barrier_ = registry_.register_region(
      "implicit barrier", RegionType::kImplicitBarrier);
  RegionHandle taskwait_ =
      registry_.register_region("taskwait", RegionType::kTaskwait);
  RegionHandle task_a_ = registry_.register_region("taskA", RegionType::kTask);
  RegionHandle task_b_ = registry_.register_region("taskB", RegionType::kTask);
};

TEST_F(HotpathEquivalenceTest, FastPathsReproduceTheGeneralPathGolden) {
  // The golden was rendered by the plain engine (no hot_child cache, no
  // child or merged-root index, an eagerly built tree per instance and a
  // full merge walk per task_end).  Regenerating it from this engine
  // would make the check vacuous; do so only for a deliberate change of
  // the CSV format, and diff the old and new files by hand.
  const MeasureOptions options;
  auto prof = make(options);
  run_stream(*prof);
  testutil::check_golden(
      std::filesystem::path(TASKPROF_HOTPATH_CORPUS_DIR) / "run_stream.csv",
      profile_csv(*prof, options), "TASKPROF_REGEN_HOTPATH");
}

TEST_F(HotpathEquivalenceTest, ManyParameterRootsUseIndexedMergedLookup) {
  // One merged root per parameter value: enough roots to activate the
  // merged-root index, interleaved so the last-hit pointer keeps missing.
  MeasureOptions fast;
  auto prof = make(fast);
  clock_.set(0);
  prof->enter(barrier_);
  TaskInstanceId id = 1;
  for (int round = 0; round < 6; ++round) {
    for (std::int64_t p = 0; p < 40; ++p) {
      clock_.advance(1);
      prof->task_begin(task_a_, id, p);
      clock_.advance(1);
      prof->task_end(id);
      ++id;
    }
  }
  clock_.advance(1);
  prof->exit(barrier_);
  prof->finalize();

  const ThreadProfileView view = prof->view();
  EXPECT_EQ(view.task_roots.size(), 40u);
  for (const CallNode* root : view.task_roots) {
    EXPECT_EQ(root->visits, 6u);
  }
  AggregateProfile profile = aggregate_profiles({&view, 1});
  const check::InvariantReport report =
      check::check_profile(profile, registry_, nullptr, nullptr, fast);
  EXPECT_TRUE(report.violations.empty()) << report.to_string();
}

// ---- Whole BOTS runs against goldens of the merge-at-end profiler --------
//
// `taskprof_cli --engine=sim --size=test --report=csv` of four runs, as
// the profiler that merged each finished instance tree into its
// construct's tree rendered them.  Profiling in place lists construct
// roots in first-begin order and children in first-visit order, so
// these runs may print their rows in another order; each row (call
// path, visits, inclusive, exclusive, min/mean/max) must still be there
// exactly as often.

struct SimGoldenCase {
  const char* golden;
  const char* kernel;
  int threads;
  bool untied;
  bool depth_parameter;
};

std::vector<std::string> sorted_rows(const std::string& csv) {
  std::vector<std::string> rows;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) rows.push_back(line);
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::string golden_case_name(
    const ::testing::TestParamInfo<SimGoldenCase>& param) {
  const std::string file = param.param.golden;
  return file.substr(0, file.find('.'));
}

class SimGoldenTest : public ::testing::TestWithParam<SimGoldenCase> {};

TEST_P(SimGoldenTest, CsvRowsMatchTheMergeAtEndGolden) {
  const SimGoldenCase& c = GetParam();
  RegionRegistry registry;
  rt::SimRuntime runtime;
  Instrumentor instrumentor(registry);
  runtime.set_hooks(&instrumentor);
  bots::KernelConfig config;
  config.threads = c.threads;
  config.size = bots::SizeClass::kTest;
  config.untied = c.untied;
  config.depth_parameter = c.depth_parameter;
  const bots::KernelResult result =
      bots::make_kernel(c.kernel)->run(runtime, registry, config);
  runtime.set_hooks(nullptr);
  ASSERT_TRUE(result.ok) << result.check;
  instrumentor.finalize();
  const std::string csv = render_csv(instrumentor.aggregate(), registry);

  const std::filesystem::path path =
      std::filesystem::path(TASKPROF_HOTPATH_CORPUS_DIR) / c.golden;
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(sorted_rows(csv), sorted_rows(golden.str()))
      << path << ": the rows differ, not only their order";
}

INSTANTIATE_TEST_SUITE_P(
    MergeAtEnd, SimGoldenTest,
    ::testing::Values(
        SimGoldenCase{"sim_nqueens_t4.csv", "nqueens", 4, false, false},
        SimGoldenCase{"sim_health_untied_t2.csv", "health", 2, true, false},
        SimGoldenCase{"sim_floorplan_untied_t2.csv", "floorplan", 2, true,
                      false},
        SimGoldenCase{"sim_fib_depth_params_t4.csv", "fib", 4, false, true}),
    golden_case_name);

}  // namespace
}  // namespace taskprof

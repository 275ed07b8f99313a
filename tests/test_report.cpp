#include "report/text_report.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "instrument/instrumentor.hpp"
#include "report/cube_export.hpp"
#include "report/json_report.hpp"
#include "rt/sim_runtime.hpp"
#include "test_util.hpp"

namespace taskprof {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  ReportTest() {
    task_ = registry_.register_region("work_task", RegionType::kTask);
    foo_ = registry_.register_region("foo", RegionType::kFunction);
    instr_ = std::make_unique<Instrumentor>(registry_);
    sim_.set_hooks(instr_.get());
    sim_.parallel(2, [this](rt::TaskContext& ctx) {
      if (!ctx.single()) return;
      for (int i = 0; i < 3; ++i) {
        ctx.create_task(
            [this](rt::TaskContext& c) {
              rt::ScopedRegion region(c, foo_);
              c.work(5'000);
            },
            [this] {
              rt::TaskAttrs attrs;
              attrs.region = task_;
              return attrs;
            }());
      }
      ctx.taskwait();
    });
    sim_.set_hooks(nullptr);
    instr_->finalize();
    profile_ = std::make_unique<AggregateProfile>(instr_->aggregate());
  }

  RegionRegistry registry_;
  RegionHandle task_{};
  RegionHandle foo_{};
  rt::SimRuntime sim_;
  std::unique_ptr<Instrumentor> instr_;
  std::unique_ptr<AggregateProfile> profile_;
};

TEST_F(ReportTest, TreeRenderingContainsRegionsAndMetrics) {
  const std::string out = render_tree(profile_->implicit_root, registry_);
  EXPECT_NE(out.find("implicit task"), std::string::npos);
  EXPECT_NE(out.find("parallel"), std::string::npos);
  EXPECT_NE(out.find("implicit barrier"), std::string::npos);
  EXPECT_NE(out.find("visits="), std::string::npos);
  EXPECT_NE(out.find("incl="), std::string::npos);
  EXPECT_NE(out.find("excl="), std::string::npos);
}

TEST_F(ReportTest, StubNodesAreMarked) {
  const std::string out = render_profile(*profile_, registry_);
  // The paper's Fig. 5 reading: a stub node for the task under the
  // scheduling point, marked distinctly.
  EXPECT_NE(out.find("work_task *"), std::string::npos);
}

TEST_F(ReportTest, ProfileRenderingListsTaskTreesBesideMainTree) {
  const std::string out = render_profile(*profile_, registry_);
  EXPECT_NE(out.find("=== main tree"), std::string::npos);
  EXPECT_NE(out.find("=== task tree: work_task ==="), std::string::npos);
  EXPECT_NE(out.find("=== summary ==="), std::string::npos);
  EXPECT_NE(out.find("max concurrent task instances"), std::string::npos);
  // The user region instrumented inside the task shows up in its tree.
  EXPECT_NE(out.find("foo"), std::string::npos);
}

TEST_F(ReportTest, ReportJsonHasStatisticsAndNoFindings) {
  // The whole document.  Findings come from diag::run_diagnosis
  // (diagnose --json) only.
  EXPECT_EQ(render_report_json(*profile_, registry_), R"({
  "schema_version": 2,
  "threads": 2,
  "max_concurrent_any_thread": 1,
  "constructs": [
    {"name": "work_task", "instances": 3, "inclusive_total_ns": 16260, "inclusive_mean_ns": 5420, "inclusive_min_ns": 5420, "inclusive_max_ns": 5420, "exclusive_total_ns": 840, "creations": 3, "create_total_ns": 2014, "create_mean_ns": 671.333, "taskwait_total_ns": 0, "taskwaits": 0}
  ],
  "scheduling_points": {
    "barrier_inclusive_ns": 13344,
    "barrier_exclusive_ns": 2504,
    "barrier_stub_ns": 10840,
    "barrier_visits": 2,
    "taskwait_exclusive_ns": 4780,
    "create_exclusive_ns": 2014,
    "parallel_inclusive_ns": 27038
  }
}
)");
}

TEST_F(ReportTest, EmptyTreeRenders) {
  EXPECT_EQ(render_tree(nullptr, registry_), "(empty tree)\n");
}

TEST_F(ReportTest, MaxDepthLimitsOutput) {
  ReportOptions options;
  options.max_depth = 0;
  const std::string out =
      render_tree(profile_->implicit_root, registry_, options);
  EXPECT_NE(out.find("implicit task"), std::string::npos);
  EXPECT_EQ(out.find("parallel"), std::string::npos);
}

TEST_F(ReportTest, CsvHasHeaderAndOneRowPerNode) {
  const std::string csv = render_csv(*profile_, registry_);
  std::istringstream is(csv);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line,
            "tree,path,stub,parameter,visits,inclusive_ns,exclusive_ns,"
            "min_ns,mean_ns,max_ns");
  std::size_t rows = 0;
  while (std::getline(is, line)) {
    if (!line.empty()) ++rows;
  }
  std::size_t nodes = subtree_size(profile_->implicit_root);
  for (const CallNode* root : profile_->task_roots) {
    nodes += subtree_size(root);
  }
  EXPECT_EQ(rows, nodes);
}

TEST_F(ReportTest, CsvPathsAreSlashJoined) {
  const std::string csv = render_csv(*profile_, registry_);
  EXPECT_NE(csv.find("main,implicit task/parallel/implicit barrier"),
            std::string::npos);
  EXPECT_NE(csv.find("task:work_task,work_task/foo"), std::string::npos);
}

TEST_F(ReportTest, CubeXmlIsWellFormedAndComplete) {
  const std::string xml = render_cube_xml(*profile_, registry_);
  EXPECT_EQ(xml.find("<?xml"), 0u);

  auto count = [&xml](const std::string& needle) {
    std::size_t n = 0;
    std::size_t pos = 0;
    while ((pos = xml.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += needle.size();
    }
    return n;
  };
  // Balanced tags.
  EXPECT_EQ(count("<cube "), count("</cube>"));
  EXPECT_EQ(count("<cnode "), count("</cnode>"));
  EXPECT_EQ(count("<metric "), count("</metric>"));
  EXPECT_EQ(count("<matrix "), count("</matrix>"));

  // One cnode per profile node, across all trees.
  std::size_t nodes = subtree_size(profile_->implicit_root);
  for (const CallNode* root : profile_->task_roots) {
    nodes += subtree_size(root);
  }
  EXPECT_EQ(count("<cnode "), nodes);
  // One severity row per (metric, cnode).
  EXPECT_EQ(count("<row "), nodes * 5);
  // Region names appear.
  EXPECT_NE(xml.find("<name>work_task</name>"), std::string::npos);
  EXPECT_NE(xml.find("<name>implicit barrier</name>"), std::string::npos);
  // Threads listed.
  EXPECT_NE(xml.find("<thread id=\"1\"/>"), std::string::npos);
}

TEST_F(ReportTest, CubeXmlEscapesSpecialCharacters) {
  RegionRegistry registry;
  const RegionHandle weird = registry.register_region(
      "a<b>&\"c\" task", RegionType::kTask);
  AggregateProfile profile;
  profile.implicit_root = profile.pool.allocate(
      registry.register_region("implicit task", RegionType::kImplicitTask),
      kNoParameter, false, nullptr);
  profile.pool.allocate(weird, kNoParameter, false, profile.implicit_root);
  profile.thread_count = 1;
  const std::string xml = render_cube_xml(profile, registry);
  EXPECT_NE(xml.find("a&lt;b&gt;&amp;&quot;c&quot; task"),
            std::string::npos);
  EXPECT_EQ(xml.find("<name>a<b>"), std::string::npos);
}

// A main tree as deep as cut-off-free recursion makes one: the CUBE
// export must render it in constant stack space.  A 64 KiB stack holds a
// recursive walk a few hundred levels deep, not 2,000.
TEST(CubeExport, DeepChainRendersOnASmallStack) {
  constexpr int kDepth = 2000;
  RegionRegistry registry;
  const RegionHandle fn =
      registry.register_region("fn", RegionType::kFunction);
  AggregateProfile profile;
  profile.thread_count = 1;
  profile.implicit_root =
      profile.pool.allocate(fn, kNoParameter, false, nullptr);
  CallNode* leaf = profile.implicit_root;
  for (int level = 1; level < kDepth; ++level) {
    leaf = profile.pool.allocate(fn, kNoParameter, false, leaf);
  }

  std::string xml;
  testutil::run_on_small_stack(
      64 * 1024, [&] { xml = render_cube_xml(profile, registry); });

  auto count = [&xml](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t pos = 0;
         (pos = xml.find(needle, pos)) != std::string::npos;
         pos += needle.size()) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("<cnode "), static_cast<std::size_t>(kDepth));
  EXPECT_EQ(count("</cnode>"), static_cast<std::size_t>(kDepth));
  // The leaf opens and closes at its own depth, the root last.
  const std::string leaf_pad(static_cast<std::size_t>(2 + kDepth - 1) * 2,
                             ' ');
  EXPECT_NE(xml.find("\n" + leaf_pad + "<cnode id=\"" +
                         std::to_string(kDepth - 1) + "\" calleeId=\"" +
                         std::to_string(fn) + "\">\n" + leaf_pad +
                         "</cnode>\n"),
            std::string::npos);
  EXPECT_NE(xml.find("\n    </cnode>\n  </program>\n"),
            std::string::npos);
}

TEST_F(ReportTest, CsvStubColumnDistinguishesStubs) {
  const std::string csv = render_csv(*profile_, registry_);
  // Stub row: tree=main, path ends with work_task, stub flag 1.
  bool found_stub_row = false;
  std::istringstream is(csv);
  std::string line;
  while (std::getline(is, line)) {
    if (line.find("main,") == 0 && line.find("work_task,1,") !=
                                       std::string::npos) {
      found_stub_row = true;
    }
  }
  EXPECT_TRUE(found_stub_row);
}

}  // namespace
}  // namespace taskprof

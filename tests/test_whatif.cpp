// Unit tests for the what-if projection layer: target-spec parsing and
// its typed errors, profile construction over recorded traces (including
// the degenerate no-task trace, and a profile that outlives its trace),
// path resolution, and the projection
// math on programs whose structure makes the answer checkable by hand
// (serial chains, zero-fraction identity, span re-evaluation bounds),
// and the exact bytes of the JSON rendering.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "check/random_tree.hpp"
#include "rt/sim_runtime.hpp"
#include "test_util.hpp"
#include "trace/analysis.hpp"
#include "trace/recorder.hpp"
#include "whatif/render.hpp"
#include "whatif/whatif.hpp"

namespace taskprof {
namespace {

/// A trace-backed profile plus the inputs it was built from.
struct Built {
  RegionRegistry registry;
  trace::Trace trace;
  trace::TraceAnalysis analysis;
  whatif::WhatIfProfile profile;
  whatif::Error error;
  rt::TeamStats stats;
};

/// Record `body` on `threads` sim workers into `out` and build its profile.
template <typename Body>
std::unique_ptr<Built> run_and_build(
    int threads, Body&& body,
    std::unique_ptr<Built> out = std::make_unique<Built>()) {
  rt::SimRuntime sim;
  trace::TraceRecorder recorder;
  sim.set_hooks(&recorder);
  out->stats = sim.parallel(threads, body);
  sim.set_hooks(nullptr);
  out->trace = recorder.take();
  out->analysis = trace::analyze_trace(out->trace);
  out->error = whatif::WhatIfProfile::build(out->trace, out->analysis,
                                            out->registry, &out->profile);
  return out;
}

std::unique_ptr<Built> run_uniform(int threads, int depth, int fanout,
                                   Ticks work = 400) {
  auto out = std::make_unique<Built>();
  const check::UniformTree tree(out->registry, work);
  return run_and_build(
      threads,
      [&](rt::TaskContext& ctx) {
        if (ctx.single()) tree.body(ctx, depth, fanout);
      },
      std::move(out));
}

// -- parse_target_spec ------------------------------------------------------

TEST(ParseTargetSpec, AcceptsPathEqualsPercent) {
  whatif::TargetSpec spec;
  ASSERT_TRUE(whatif::parse_target_spec("fib_task=50", &spec).ok());
  EXPECT_EQ(spec.path, "fib_task");
  EXPECT_DOUBLE_EQ(spec.fraction, 0.5);
}

TEST(ParseTargetSpec, AcceptsDecimalsAndParameterSuffix) {
  whatif::TargetSpec spec;
  ASSERT_TRUE(whatif::parse_target_spec("sort_task[3]=12.5", &spec).ok());
  EXPECT_EQ(spec.path, "sort_task[3]");
  EXPECT_DOUBLE_EQ(spec.fraction, 0.125);
  ASSERT_TRUE(whatif::parse_target_spec("x=100", &spec).ok());
  EXPECT_DOUBLE_EQ(spec.fraction, 1.0);
}

TEST(ParseTargetSpec, RejectsMalformedSpecs) {
  whatif::TargetSpec spec;
  EXPECT_EQ(whatif::parse_target_spec("fib_task", &spec).code,
            whatif::ErrorCode::kBadSpec);
  EXPECT_EQ(whatif::parse_target_spec("=50", &spec).code,
            whatif::ErrorCode::kBadSpec);
  EXPECT_EQ(whatif::parse_target_spec("fib=abc", &spec).code,
            whatif::ErrorCode::kBadSpec);
  EXPECT_EQ(whatif::parse_target_spec("fib=", &spec).code,
            whatif::ErrorCode::kBadSpec);
}

TEST(ParseTargetSpec, RejectsFractionOutsideUnitRange) {
  whatif::TargetSpec spec;
  EXPECT_EQ(whatif::parse_target_spec("fib=0", &spec).code,
            whatif::ErrorCode::kBadFraction);
  EXPECT_EQ(whatif::parse_target_spec("fib=-5", &spec).code,
            whatif::ErrorCode::kBadFraction);
  EXPECT_EQ(whatif::parse_target_spec("fib=100.1", &spec).code,
            whatif::ErrorCode::kBadFraction);
}

TEST(ParseTargetSpec, ErrorCodeNamesAreStable) {
  // The CLI prints these in brackets; scripts match on them.
  EXPECT_STREQ(whatif::error_code_name(whatif::ErrorCode::kUnknownPath),
               "unknown_path");
  EXPECT_STREQ(whatif::error_code_name(whatif::ErrorCode::kBadFraction),
               "bad_fraction");
  EXPECT_STREQ(whatif::error_code_name(whatif::ErrorCode::kBadSpec),
               "bad_spec");
  EXPECT_STREQ(whatif::error_code_name(whatif::ErrorCode::kNoTrace),
               "no_trace");
  EXPECT_STREQ(whatif::error_code_name(whatif::ErrorCode::kEmptyProfile),
               "empty_profile");
}

// -- Profile construction ---------------------------------------------------

TEST(WhatIfProfile, TasklessTraceFailsWithEmptyProfile) {
  const auto built = run_and_build(
      2, [](rt::TaskContext& ctx) { ctx.work(1'000); });
  EXPECT_EQ(built->error.code, whatif::ErrorCode::kEmptyProfile);
}

TEST(WhatIfProfile, UniformTreeProfilesOnePathWithAllInstances) {
  const auto built = run_uniform(2, /*depth=*/3, /*fanout=*/2);
  ASSERT_TRUE(built->error.ok()) << built->error.message;
  ASSERT_EQ(built->profile.paths().size(), 1u);
  const whatif::CallPathStats& path = built->profile.paths().front();
  EXPECT_EQ(path.name, "uniform_task");
  EXPECT_EQ(path.instances, check::UniformTree::task_count(3, 2));
  EXPECT_GT(path.scalable, 0);
  // Sim traces carry kWork events, so scaling uses the declared work.
  EXPECT_TRUE(built->profile.work_basis());
  EXPECT_GE(built->profile.work(), built->profile.span());
  EXPECT_GT(built->profile.span_length(), 0);
  EXPECT_GE(built->profile.overhead(), 0);
  EXPECT_EQ(built->profile.measured_threads(), 2);
}

/// Everything a ranked what-if report prints for `profile`.
std::string ranked_json(const whatif::WhatIfProfile& profile) {
  whatif::Report report;
  report.summarize(profile);
  report.top_targets = profile.rank_targets(0.5, {1, 2, 4, 8});
  return whatif::render_whatif_json(report);
}

TEST(WhatIfProfile, OutlivesItsTraceAndTheCallersAnalysis) {
  RegionRegistry registry;
  const check::UniformTree tree(registry, 400);
  whatif::WhatIfProfile profile;
  std::string expected;
  {
    rt::SimRuntime sim;
    trace::TraceRecorder recorder;
    sim.set_hooks(&recorder);
    sim.parallel(2, [&](rt::TaskContext& ctx) {
      if (ctx.single()) tree.body(ctx, /*depth=*/4, /*fanout=*/2);
    });
    sim.set_hooks(nullptr);
    const trace::Trace trace = recorder.take();
    const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
    ASSERT_TRUE(
        whatif::WhatIfProfile::build(trace, analysis, registry, &profile)
            .ok());
    expected = ranked_json(profile);
  }
  // The trace and the analysis are gone; the profile holds the replay.
  EXPECT_EQ(ranked_json(profile), expected);
}

TEST(WhatIfProfile, ResolveMatchesNameAndParameter) {
  check::TreeShape shape;
  shape.parameter_fraction = 1.0;  // every task carries its depth
  auto built = std::make_unique<Built>();
  const check::RandomTaskTree tree(built->registry, shape);
  rt::SimRuntime sim;
  trace::TraceRecorder recorder;
  sim.set_hooks(&recorder);
  built->stats = tree.run(sim, /*seed=*/7, /*threads=*/2);
  sim.set_hooks(nullptr);
  built->trace = recorder.take();
  built->analysis = trace::analyze_trace(built->trace);
  built->error = whatif::WhatIfProfile::build(
      built->trace, built->analysis, built->registry, &built->profile);
  ASSERT_TRUE(built->error.ok()) << built->error.message;

  // A bare name matches every parameter of that construct.
  std::vector<std::size_t> all_params;
  ASSERT_TRUE(built->profile.resolve("rand_task_a", &all_params).ok());
  std::vector<std::size_t> one_param;
  const std::string label = built->profile.paths()[all_params[0]].label();
  ASSERT_TRUE(built->profile.resolve(label, &one_param).ok());
  EXPECT_EQ(one_param.size(), 1u);
  EXPECT_GE(all_params.size(), one_param.size());
}

TEST(WhatIfProfile, ResolveUnknownPathListsKnownOnes) {
  const auto built = run_uniform(2, /*depth=*/2, /*fanout=*/2);
  ASSERT_TRUE(built->error.ok());
  std::vector<std::size_t> indices;
  const whatif::Error error =
      built->profile.resolve("no_such_path", &indices);
  EXPECT_EQ(error.code, whatif::ErrorCode::kUnknownPath);
  EXPECT_NE(error.message.find("uniform_task"), std::string::npos)
      << "the error should list the profiled paths: " << error.message;
}

// -- Projection math --------------------------------------------------------

TEST(WhatIfProjection, ZeroFractionIsIdentity) {
  const auto built = run_uniform(4, /*depth=*/4, /*fanout=*/2);
  ASSERT_TRUE(built->error.ok());
  std::vector<std::size_t> targets;
  ASSERT_TRUE(built->profile.resolve("uniform_task", &targets).ok());
  const whatif::Projection p =
      built->profile.project(targets, 0.0, {1, 2, 4, 8});
  EXPECT_EQ(p.work_after, built->profile.work());
  EXPECT_EQ(p.span_after, built->profile.span());
  EXPECT_EQ(p.span_length_after, built->profile.span_length());
  for (const whatif::ThreadProjection& tp : p.at_threads) {
    EXPECT_NEAR(tp.speedup, 1.0, 1e-12) << "P=" << tp.threads;
  }
}

TEST(WhatIfProjection, SerialChainIsExact) {
  // On a gapless serial chain T1 == T∞, so T_est(P) is flat in P and the
  // projection collapses to Amdahl's law exactly: speedup == bound ==
  // 1/(1 - N·share) at every thread count.
  auto built = std::make_unique<Built>();
  const RegionHandle stage_a =
      built->registry.register_region("stage_a", RegionType::kTask);
  const RegionHandle stage_b =
      built->registry.register_region("stage_b", RegionType::kTask);
  built->trace = testutil::serial_chain(24, 1'000, stage_a, stage_b);
  built->analysis = trace::analyze_trace(built->trace);
  built->error = whatif::WhatIfProfile::build(
      built->trace, built->analysis, built->registry, &built->profile);
  ASSERT_TRUE(built->error.ok()) << built->error.message;
  EXPECT_EQ(built->profile.work(), built->profile.span());
  EXPECT_EQ(built->profile.span_length(), 24);

  std::vector<std::size_t> targets;
  ASSERT_TRUE(built->profile.resolve("stage_a", &targets).ok());
  for (const double fraction : {0.25, 0.5, 0.9}) {
    const whatif::Projection p =
        built->profile.project(targets, fraction, {1, 2, 8});
    EXPECT_NEAR(p.share, 0.5, 1e-12);
    ASSERT_GT(p.bound, 0.0);
    for (const whatif::ThreadProjection& tp : p.at_threads) {
      EXPECT_NEAR(tp.speedup, p.bound, p.bound * 1e-9)
          << "N=" << fraction << " P=" << tp.threads;
    }
  }
}

TEST(WhatIfProjection, SpanReEvaluationIsBounded) {
  // Scaling can only shrink the span, and no further than the scalable
  // time sitting on the measured chain (the old chain stays feasible).
  const auto built = run_uniform(4, /*depth=*/5, /*fanout=*/2);
  ASSERT_TRUE(built->error.ok());
  std::vector<std::size_t> targets;
  ASSERT_TRUE(built->profile.resolve("uniform_task", &targets).ok());
  const double fraction = 0.9;
  const whatif::Projection p =
      built->profile.project(targets, fraction, {4});
  EXPECT_LE(p.span_after, built->profile.span());
  const double floor = static_cast<double>(built->profile.span()) -
                       fraction * static_cast<double>(p.scalable_on_span);
  EXPECT_GE(static_cast<double>(p.span_after), floor - 2.0);
  EXPECT_LT(p.work_after, built->profile.work());
}

TEST(WhatIfProjection, RankTargetsCoversEveryPathSortedBySpeedup) {
  auto built = std::make_unique<Built>();
  const check::RandomTaskTree tree(built->registry);
  rt::SimRuntime sim;
  trace::TraceRecorder recorder;
  sim.set_hooks(&recorder);
  built->stats = tree.run(sim, /*seed=*/11, /*threads=*/4);
  sim.set_hooks(nullptr);
  built->trace = recorder.take();
  built->analysis = trace::analyze_trace(built->trace);
  built->error = whatif::WhatIfProfile::build(
      built->trace, built->analysis, built->registry, &built->profile);
  ASSERT_TRUE(built->error.ok());

  const std::vector<whatif::Projection> ranked =
      built->profile.rank_targets(0.5, {4});
  ASSERT_EQ(ranked.size(), built->profile.paths().size());
  const auto speedup_at = [&](const whatif::Projection& p) {
    for (const whatif::ThreadProjection& tp : p.at_threads) {
      if (tp.threads == built->profile.measured_threads()) return tp.speedup;
    }
    return 0.0;
  };
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(speedup_at(ranked[i - 1]), speedup_at(ranked[i]) - 1e-12)
        << "rank order broken at " << i;
  }
}

TEST(WhatIfRender, JsonGolden) {
  // One projection with per-thread rows, one without, no ranked targets.
  whatif::Report report;
  report.work = 1'000'000;
  report.span = 250'000;
  report.span_length = 12;
  report.logical_parallelism = 4.0;
  report.measured_threads = 4;
  report.work_basis = true;
  whatif::Projection scaled;
  scaled.target = "main/fib \"hot\"";
  scaled.fraction = 0.5;
  scaled.scalable = 600'000;
  scaled.scalable_on_span = 150'000;
  scaled.share = 0.6;
  scaled.bound = 1.0 / 0.7;
  scaled.work_after = 700'000;
  scaled.span_after = 175'000;
  scaled.span_length_after = 12;
  scaled.parallelism_after = 4.0;
  scaled.at_threads = {{1, 1e6, 7e5, 1e6 / 7e5},
                       {4, 312'500.5, 218'750.25, 1.428571}};
  whatif::Projection bare;
  bare.target = "main/sort";
  bare.fraction = 0.25;
  bare.bound = 0.0;
  report.projections = {scaled, bare};
  EXPECT_EQ(whatif::render_whatif_json(report), R"({
  "schema_version": 1,
  "work_ns": 1000000,
  "span_ns": 250000,
  "span_length": 12,
  "logical_parallelism": 4,
  "measured_threads": 4,
  "scaling_basis": "declared_work",
  "projections": [
    {
      "target": "main/fib \"hot\"",
      "speedup_percent": 50,
      "scalable_ns": 600000,
      "scalable_on_span_ns": 150000,
      "share": 0.6,
      "amdahl_bound": 1.42857,
      "work_after_ns": 700000,
      "span_after_ns": 175000,
      "span_length_after": 12,
      "parallelism_after": 4,
      "at_threads": [
        {"threads": 1, "time_before_ns": 1e+06, "time_after_ns": 700000, "speedup": 1.42857},
        {"threads": 4, "time_before_ns": 312500, "time_after_ns": 218750, "speedup": 1.42857}
      ]
    },
    {
      "target": "main/sort",
      "speedup_percent": 25,
      "scalable_ns": 0,
      "scalable_on_span_ns": 0,
      "share": 0,
      "amdahl_bound": 0,
      "work_after_ns": 0,
      "span_after_ns": 0,
      "span_length_after": 0,
      "parallelism_after": 0,
      "at_threads": []
    }
  ],
  "top_targets": []
}
)");
}

}  // namespace
}  // namespace taskprof

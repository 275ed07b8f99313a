// The invariant checker and the differential projection (src/check/):
// clean profiles from both engines pass, and deliberately injected
// defects — the mutation negative tests — are caught with the right tag.
#include "check/invariants.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "check/differential.hpp"
#include "instrument/instrumentor.hpp"
#include "profile/calltree.hpp"
#include "profile/region.hpp"
#include "rt/hooks.hpp"
#include "rt/real_runtime.hpp"
#include "rt/sim_runtime.hpp"
#include "telemetry/telemetry.hpp"

namespace taskprof {
namespace {

/// One instrumented fib run: registry, engine stats, telemetry snapshot
/// and the finalized aggregate profile.  Filled in place (the registry is
/// not movable).
struct Measured {
  RegionRegistry registry;
  rt::TeamStats stats;
  telemetry::Snapshot snapshot;
  AggregateProfile profile;
};

void run_fib(Measured& out, rt::Runtime& runtime, int threads = 2,
             int n = 12) {
  Instrumentor instr(out.registry);
  telemetry::Registry telem;
  rt::FanoutHooks fanout({&instr});
  runtime.set_hooks(&fanout);
  runtime.set_telemetry(&telem);

  const RegionHandle task =
      out.registry.register_region("fib_task", RegionType::kTask);
  std::function<void(rt::TaskContext&, int, long*)> fib =
      [&](rt::TaskContext& ctx, int n_, long* result) {
        ctx.work(100);
        if (n_ < 2) {
          *result = n_;
          return;
        }
        long a = 0;
        long b = 0;
        rt::TaskAttrs attrs;
        attrs.region = task;
        ctx.create_task(
            [&fib, n_, &a](rt::TaskContext& c) { fib(c, n_ - 1, &a); },
            attrs);
        ctx.create_task(
            [&fib, n_, &b](rt::TaskContext& c) { fib(c, n_ - 2, &b); },
            attrs);
        ctx.taskwait();
        *result = a + b;
      };
  long result = 0;
  out.stats = runtime.parallel(threads, [&](rt::TaskContext& ctx) {
    if (ctx.single()) fib(ctx, n, &result);
  });

  runtime.set_hooks(nullptr);
  runtime.set_telemetry(nullptr);
  instr.finalize();
  out.profile = instr.aggregate();
  out.snapshot = telem.snapshot();
}

bool has_tag(const check::InvariantReport& report, const std::string& tag) {
  const std::string needle = "[" + tag + "]";
  for (const std::string& v : report.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(CheckInvariants, CleanSimProfilePasses) {
  Measured m;
  rt::SimRuntime sim;
  run_fib(m, sim);
  const check::InvariantReport report =
      check::check_profile(m.profile, m.registry, &m.stats, &m.snapshot);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.nodes_checked, 10u);
}

TEST(CheckInvariants, CleanRealProfilePasses) {
  Measured m;
  rt::RealRuntime real;
  run_fib(m, real);
  const check::InvariantReport report =
      check::check_profile(m.profile, m.registry, &m.stats, &m.snapshot);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// The acceptance negative test: inject a merge bug (an extra visit on a
// task root, as a task_begin that counted twice would produce) and
// require the checker to flag it — on both engines.
TEST(CheckInvariants, InjectedMergeBugIsCaughtOnSim) {
  Measured m;
  rt::SimRuntime sim;
  run_fib(m, sim);
  ASSERT_FALSE(m.profile.task_roots.empty());
  m.profile.task_roots[0]->visits += 1;
  const check::InvariantReport report =
      check::check_profile(m.profile, m.registry, &m.stats, &m.snapshot);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_tag(report, "merge-conservation")) << report.to_string();
  EXPECT_TRUE(has_tag(report, "fragment-count")) << report.to_string();
}

TEST(CheckInvariants, InjectedMergeBugIsCaughtOnReal) {
  Measured m;
  rt::RealRuntime real;
  run_fib(m, real);
  ASSERT_FALSE(m.profile.task_roots.empty());
  m.profile.task_roots[0]->visits += 1;
  const check::InvariantReport report =
      check::check_profile(m.profile, m.registry, &m.stats, &m.snapshot);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_tag(report, "merge-conservation")) << report.to_string();
}

TEST(CheckInvariants, TamperedInclusiveBreaksTimeConservation) {
  Measured m;
  rt::SimRuntime sim;
  run_fib(m, sim);
  ASSERT_FALSE(m.profile.task_roots.empty());
  m.profile.task_roots[0]->inclusive -= 7;
  const check::InvariantReport report =
      check::check_profile(m.profile, m.registry, &m.stats, &m.snapshot);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_tag(report, "conservation")) << report.to_string();
  EXPECT_TRUE(has_tag(report, "fragment-sum")) << report.to_string();
}

TEST(CheckInvariants, StubOutsideSchedulingPointIsFlagged) {
  // Hand-built minimal profile: a stub hanging directly under the implicit
  // task root, which is not a scheduling point.
  RegionRegistry registry;
  const RegionHandle implicit =
      registry.register_region("implicit", RegionType::kImplicitTask);
  const RegionHandle task = registry.register_region("t", RegionType::kTask);

  AggregateProfile profile;
  profile.thread_count = 1;
  profile.max_concurrent_per_thread = {1};
  profile.max_concurrent_any_thread = 1;
  profile.implicit_root =
      profile.pool.allocate(implicit, kNoParameter, false, nullptr);
  profile.implicit_root->visits = 1;
  profile.implicit_root->inclusive = 100;
  profile.implicit_root->visit_stats.add(100);
  CallNode* stub =
      profile.pool.allocate(task, kNoParameter, true, profile.implicit_root);
  stub->visits = 1;
  stub->inclusive = 10;
  stub->visit_stats.add(10);

  const check::InvariantReport report =
      check::check_profile(profile, registry);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_tag(report, "stub-placement")) << report.to_string();
}

TEST(CheckDifferential, SimAndRealFibProjectionsAgree) {
  Measured sim_run;
  rt::SimRuntime sim;
  run_fib(sim_run, sim);
  Measured real_run;
  rt::RealRuntime real;
  run_fib(real_run, real);

  check::ProfileProjection a = check::project_profile(
      sim_run.profile, sim_run.registry, sim_run.stats);
  a.engine = "sim";
  check::ProfileProjection b = check::project_profile(
      real_run.profile, real_run.registry, real_run.stats);
  b.engine = "real";

  const std::vector<std::string> diffs = check::diff_projections(a, b);
  std::string joined;
  for (const std::string& d : diffs) joined += d + "\n";
  EXPECT_TRUE(diffs.empty()) << joined;
}

TEST(CheckDifferential, TamperedProjectionIsDetected) {
  Measured m;
  rt::SimRuntime sim;
  run_fib(m, sim);
  const check::ProfileProjection a =
      check::project_profile(m.profile, m.registry, m.stats);
  check::ProfileProjection b = a;
  ASSERT_FALSE(b.constructs.empty());
  b.constructs[0].instances += 1;
  b.tasks_executed += 1;
  const std::vector<std::string> diffs = check::diff_projections(a, b);
  EXPECT_GE(diffs.size(), 2u);
}

}  // namespace
}  // namespace taskprof

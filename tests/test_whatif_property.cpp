// Property tests for the what-if projection math: 200 seeded
// RandomTaskTree shapes (the same generator the schedule fuzzer sweeps)
// run on the deterministic sim engine, and every projection must satisfy
// the four invariants the profile header promises:
//
//   1. speedup ∈ [1, 1/(1 - share·N)] at every thread count;
//   2. speedup is monotone non-decreasing in N;
//   3. serial chains (fanout-1 trees on one thread) project exactly;
//   4. T_est'(P) ≥ max(T1'/P, T∞') — Brent's lemma, on the
//      overhead-augmented quantities the estimator actually uses.
//
// The sim is deterministic, so each (shape, seed) is a fixed program and
// these assertions are exact regressions, not statistical checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "check/random_tree.hpp"
#include "rt/sim_runtime.hpp"
#include "test_util.hpp"
#include "trace/analysis.hpp"
#include "trace/recorder.hpp"
#include "whatif/whatif.hpp"

namespace taskprof {
namespace {

constexpr int kSeedsPerShape = 40;
constexpr double kEps = 1e-6;

struct Built {
  RegionRegistry registry;
  trace::Trace trace;
  trace::TraceAnalysis analysis;
  whatif::WhatIfProfile profile;
  whatif::Error error;
};

std::unique_ptr<Built> build_random(std::uint64_t seed, int threads,
                                    const check::TreeShape& shape) {
  auto out = std::make_unique<Built>();
  const check::RandomTaskTree tree(out->registry, shape);
  rt::SimRuntime sim;
  trace::TraceRecorder recorder;
  sim.set_hooks(&recorder);
  tree.run(sim, seed, threads);
  sim.set_hooks(nullptr);
  out->trace = recorder.take();
  out->analysis = trace::analyze_trace(out->trace);
  out->error = whatif::WhatIfProfile::build(out->trace, out->analysis,
                                            out->registry, &out->profile);
  return out;
}

struct NamedShape {
  const char* name;
  check::TreeShape shape;
};

std::vector<NamedShape> property_shapes() {
  std::vector<NamedShape> shapes;
  shapes.push_back({"default", {}});
  check::TreeShape deep;
  deep.max_depth = 7;
  deep.max_fanout = 2;
  shapes.push_back({"deep_narrow", deep});
  check::TreeShape wide;
  wide.max_depth = 2;
  wide.max_fanout = 7;
  shapes.push_back({"flat_wide", wide});
  check::TreeShape untied;
  untied.untied_fraction = 0.9;
  untied.parameter_fraction = 0.6;
  shapes.push_back({"untied_params", untied});
  check::TreeShape no_wait;
  no_wait.taskwait_fraction = 0.0;
  shapes.push_back({"fire_and_forget", no_wait});
  return shapes;
}

/// Check invariants 1, 2, and 4 on one built profile's heaviest path.
void check_invariants(const Built& built) {
  const whatif::WhatIfProfile& profile = built.profile;
  std::vector<std::size_t> targets;
  ASSERT_TRUE(
      profile.resolve(profile.paths().front().name, &targets).ok());

  const std::vector<int> thread_counts = {1, 2, 4, 8, 16};
  const std::vector<double> fractions = {0.25, 0.5, 0.75, 0.9};
  // The estimator's effective quantities, reconstructed from the public
  // accessors: overhead enters T1 whole; the spans already carry it per
  // chain task.
  const double overhead = static_cast<double>(profile.overhead());

  std::vector<std::vector<double>> speedups;  // [fraction][thread]
  for (const double fraction : fractions) {
    const whatif::Projection p =
        profile.project(targets, fraction, thread_counts);
    const double work_eff =
        static_cast<double>(p.work_after) + overhead;
    const double span_eff = static_cast<double>(p.span_after);

    std::vector<double> at;
    for (const whatif::ThreadProjection& tp : p.at_threads) {
      // Invariant 1: bounded by 1 below and the Amdahl ceiling above
      // (bound == 0 encodes "unbounded": share·N within rounding of 1).
      // The upper slack covers the tick-rounding of work_after/span_after
      // (±0.5 tick against ~100k-tick totals).
      EXPECT_GE(tp.speedup, 1.0 - kEps)
          << "N=" << fraction << " P=" << tp.threads;
      if (p.bound > 0.0) {
        EXPECT_LE(tp.speedup, p.bound * (1.0 + 1e-4))
            << "N=" << fraction << " P=" << tp.threads
            << " share=" << p.share;
      }
      // Invariant 4: Brent's lemma on the effective quantities.
      const double brent =
          std::max(work_eff / tp.threads, span_eff);
      EXPECT_GE(tp.time_after, brent * (1.0 - kEps))
          << "N=" << fraction << " P=" << tp.threads;
      at.push_back(tp.speedup);
    }
    speedups.push_back(std::move(at));
  }

  // Invariant 2: monotone non-decreasing in N at every thread count.
  for (std::size_t f = 1; f < speedups.size(); ++f) {
    ASSERT_EQ(speedups[f].size(), speedups[f - 1].size());
    for (std::size_t t = 0; t < speedups[f].size(); ++t) {
      EXPECT_GE(speedups[f][t], speedups[f - 1][t] * (1.0 - kEps))
          << "speedup dropped from N=" << fractions[f - 1] << " to N="
          << fractions[f] << " at thread slot " << t;
    }
  }
}

TEST(WhatIfProperty, InvariantsHoldOn200RandomShapes) {
  int checked = 0;
  for (const NamedShape& named : property_shapes()) {
    for (int i = 0; i < kSeedsPerShape; ++i) {
      const std::uint64_t seed = 1'000 + static_cast<std::uint64_t>(i);
      SCOPED_TRACE(::testing::Message()
                   << named.name << " seed " << seed);
      const auto built = build_random(seed, /*threads=*/4, named.shape);
      if (built->error.code == whatif::ErrorCode::kEmptyProfile) {
        // A seed may draw zero children everywhere; that trace has
        // nothing to project over and is correctly rejected.
        continue;
      }
      ASSERT_TRUE(built->error.ok()) << built->error.message;
      check_invariants(*built);
      ++checked;
    }
  }
  // The generator's zero-task draw is rare: the sweep must actually have
  // exercised (nearly) all 200 shapes.
  EXPECT_GE(checked, 190);
}

TEST(WhatIfProperty, SerialChainsProjectExactly) {
  // Invariant 3: on a gapless serial chain (hand-built trace: implicit
  // creates, taskwaits, the task runs — repeated) T1 == T∞, the
  // estimator is flat in P, and the projection is Amdahl's law exactly.
  for (const int tasks : {3, 17, 64}) {
    for (const Ticks duration : {400, 1'000}) {
      SCOPED_TRACE(::testing::Message()
                   << tasks << " tasks x " << duration << " ticks");
      RegionRegistry registry;
      const RegionHandle stage_a =
          registry.register_region("stage_a", RegionType::kTask);
      const RegionHandle stage_b =
          registry.register_region("stage_b", RegionType::kTask);
      const trace::Trace trace =
          testutil::serial_chain(tasks, duration, stage_a, stage_b);
      const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
      whatif::WhatIfProfile profile;
      ASSERT_TRUE(whatif::WhatIfProfile::build(trace, analysis, registry,
                                               &profile)
                      .ok());
      ASSERT_EQ(profile.work(), profile.span());
      // Single-region target (share == ceil(n/2)/n) and the full program
      // (share == 1) must both hit the bound exactly.
      for (const char* target : {"stage_a", "stage_b"}) {
        std::vector<std::size_t> indices;
        ASSERT_TRUE(profile.resolve(target, &indices).ok());
        for (const double fraction : {0.25, 0.5, 0.75, 0.9}) {
          const whatif::Projection p =
              profile.project(indices, fraction, {1, 2, 4, 16});
          ASSERT_GT(p.bound, 0.0);
          for (const whatif::ThreadProjection& tp : p.at_threads) {
            EXPECT_NEAR(tp.speedup, p.bound, p.bound * 1e-9)
                << target << " N=" << fraction << " P=" << tp.threads;
          }
        }
      }
    }
  }
}

TEST(WhatIfProperty, ProjectionIsDeterministic) {
  // Same seed, two fresh runs: byte-identical inputs to the projector,
  // so identical projections — the property the corpus goldens pin.
  const check::TreeShape shape;
  const auto a = build_random(42, 4, shape);
  const auto b = build_random(42, 4, shape);
  ASSERT_TRUE(a->error.ok());
  ASSERT_TRUE(b->error.ok());
  EXPECT_EQ(a->profile.work(), b->profile.work());
  EXPECT_EQ(a->profile.span(), b->profile.span());
  EXPECT_EQ(a->profile.span_length(), b->profile.span_length());
  std::vector<std::size_t> ta;
  std::vector<std::size_t> tb;
  ASSERT_TRUE(a->profile.resolve(a->profile.paths().front().name, &ta).ok());
  ASSERT_TRUE(b->profile.resolve(b->profile.paths().front().name, &tb).ok());
  const whatif::Projection pa = a->profile.project(ta, 0.5, {2, 8});
  const whatif::Projection pb = b->profile.project(tb, 0.5, {2, 8});
  EXPECT_EQ(pa.span_after, pb.span_after);
  ASSERT_EQ(pa.at_threads.size(), pb.at_threads.size());
  for (std::size_t i = 0; i < pa.at_threads.size(); ++i) {
    EXPECT_DOUBLE_EQ(pa.at_threads[i].speedup, pb.at_threads[i].speedup);
  }
}

}  // namespace
}  // namespace taskprof

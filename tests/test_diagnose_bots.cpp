// No-false-positive sweep: every BOTS kernel, run clean on the sim
// engine across thread counts, must produce zero problem-severity
// diagnoses.  The detectors exist to name real anti-patterns; a healthy
// divide-and-conquer kernel that trips one is a calibration bug (see
// DESIGN.md §13 for the thresholds and the margins this sweep pins).
//
// One cell is a true positive: sparselu on 8 workers.  Its phased
// factorization (each step's tasks wait on the previous step) offers
// about 2.6x logical parallelism, so 7 of the 8 threads are idle for
// most of the region and starved_workers rightly fires.
//
// Diagnose and what-if share one span model, so on every run both must
// report the same work, span and logical parallelism.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "bots/kernel.hpp"
#include "diagnose/diagnose.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/sim_runtime.hpp"
#include "trace/analysis.hpp"
#include "trace/recorder.hpp"
#include "whatif/whatif.hpp"

namespace taskprof {
namespace {

double metric_of(const diag::Diagnosis& d, const std::string& name) {
  for (const diag::Metric& m : d.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << d.detector << " has no metric " << name;
  return 0.0;
}

constexpr const char* kKernels[] = {
    "alignment", "fft",  "fib",      "floorplan", "health",
    "nqueens",   "sort", "sparselu", "strassen",
};

TEST(DiagnoseBots, CleanKernelsHaveNoProblemFindings) {
  for (const char* name : kKernels) {
    for (const int threads : {2, 4, 8}) {
      SCOPED_TRACE(std::string(name) + " threads=" +
                   std::to_string(threads));
      RegionRegistry registry;
      rt::SimRuntime runtime;
      Instrumentor instrumentor(registry, MeasureOptions{});
      trace::TraceRecorder recorder;
      rt::FanoutHooks fanout;
      fanout.add(&instrumentor);
      fanout.add(&recorder);
      runtime.set_hooks(&fanout);
      auto kernel = bots::make_kernel(name);
      ASSERT_NE(kernel, nullptr);
      bots::KernelConfig config;
      config.threads = threads;
      config.size = bots::SizeClass::kTest;
      const bots::KernelResult result =
          kernel->run(runtime, registry, config);
      ASSERT_TRUE(result.ok) << result.check;
      runtime.set_hooks(nullptr);
      instrumentor.finalize();
      const AggregateProfile profile = instrumentor.aggregate();
      const trace::Trace recorded = recorder.take();

      diag::DiagnosisInput input;
      input.profile = &profile;
      input.registry = &registry;
      input.trace = &recorded;
      const diag::DiagnosisReport report = diag::run_diagnosis(input);
      std::vector<const diag::Diagnosis*> problems;
      std::string all;
      for (const diag::Diagnosis& d : report.findings) {
        if (d.severity == diag::Severity::kProblem) {
          problems.push_back(&d);
          all += d.detector + ": " + d.summary + "\n";
        }
      }
      ASSERT_TRUE(report.has_workspan);
      EXPECT_GT(report.workspan.logical_parallelism(), 1.0);
      const trace::TraceAnalysis analysis = trace::analyze_trace(recorded);
      whatif::WhatIfProfile whatif;
      ASSERT_TRUE(
          whatif::WhatIfProfile::build(recorded, analysis, registry, &whatif)
              .ok());
      EXPECT_EQ(report.workspan.work, whatif.work());
      EXPECT_EQ(report.workspan.span, whatif.span());
      EXPECT_EQ(report.workspan.span_length, whatif.span_length());
      EXPECT_EQ(report.workspan.logical_parallelism(),
                whatif.logical_parallelism());
      if (std::string(name) != "sparselu" || threads != 8) {
        EXPECT_TRUE(problems.empty()) << all;
        continue;
      }
      ASSERT_EQ(problems.size(), 1u) << all;
      const diag::Diagnosis& starved = *problems.front();
      EXPECT_EQ(starved.detector, "starved_workers");
      EXPECT_EQ(metric_of(starved, "starved_workers"), 7.0);
      EXPECT_EQ(metric_of(starved, "threads"), 8.0);
      EXPECT_NEAR(metric_of(starved, "logical_parallelism"), 2.6, 0.05);
    }
  }
}

}  // namespace
}  // namespace taskprof

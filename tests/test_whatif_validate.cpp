// Differential validation corpus for the what-if projection: for every
// BOTS kernel, the analytical projection must agree with a sim replay
// that actually applies the hypothesis (rt::DurationScale), across 2/4/8
// threads and N ∈ {25%, 50%, 90%}, within the per-kernel tolerance gate.
// Each kernel's full JSON report is pinned byte-for-byte as
// tests/corpus/whatif/<kernel>.case.  Regenerate after an intentional
// model/schema change with
//   TASKPROF_REGEN_WHATIF=1 ./test_whatif_validate
// and commit the updated .case files alongside the change.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "bots/kernel.hpp"
#include "test_util.hpp"
#include "whatif/validate.hpp"

namespace taskprof {
namespace {

#ifndef TASKPROF_WHATIF_CORPUS_DIR
#error "tests/CMakeLists.txt must define TASKPROF_WHATIF_CORPUS_DIR"
#endif

whatif::ValidateOptions options_for(const std::string& kernel) {
  whatif::ValidateOptions options;
  options.kernels = {kernel};
  options.threads = {2, 4, 8};
  options.fractions = {0.25, 0.50, 0.90};
  options.size = bots::SizeClass::kTest;
  return options;
}

std::filesystem::path case_path(const std::string& kernel) {
  return std::filesystem::path(TASKPROF_WHATIF_CORPUS_DIR) /
         (kernel + ".case");
}

TEST(WhatIfValidate, EveryKernelWithinItsToleranceGate) {
  // The headline differential check: 9 kernels x 3 thread counts x 3
  // fractions, each projected analytically and replayed on the sim with
  // the speedup applied to the virtual task durations.
  for (const auto& kernel : bots::make_all_kernels()) {
    SCOPED_TRACE(kernel->name());
    whatif::Error error;
    const whatif::ValidateReport report =
        whatif::run_validation(options_for(std::string(kernel->name())), &error);
    ASSERT_TRUE(error.ok()) << error.message;
    ASSERT_EQ(report.cases.size(), 9u);
    std::ostringstream os;
    whatif::render_validate_text(report, os);
    EXPECT_TRUE(report.all_within()) << os.str();
    for (const whatif::ValidateCase& c : report.cases) {
      // The gates themselves stay honest: never looser than 50%.  A
      // hypothesis may leave the makespan roughly flat (scheduler
      // feedback can even make it slightly slower), but never wreck it.
      EXPECT_LE(c.tolerance, 0.50);
      EXPECT_GT(c.simulated_speedup, 0.9);
    }
  }
}

TEST(WhatIfValidate, GoldenReportsAreStable) {
  for (const auto& kernel : bots::make_all_kernels()) {
    SCOPED_TRACE(kernel->name());
    const std::string name(kernel->name());
    testutil::check_golden(
        case_path(name),
        whatif::render_validate_json(whatif::run_validation(options_for(name))),
        "TASKPROF_REGEN_WHATIF");
  }
}

TEST(WhatIfValidate, RunsAreDeterministic) {
  // Two fresh validations of the same kernel must serialize identically —
  // the property the goldens rely on.
  const whatif::ValidateOptions options = options_for("fib");
  EXPECT_EQ(whatif::render_validate_json(whatif::run_validation(options)),
            whatif::render_validate_json(whatif::run_validation(options)));
}

TEST(WhatIfValidate, UnknownKernelIsATypedError) {
  whatif::ValidateOptions options = options_for("no_such_kernel");
  whatif::Error error;
  const whatif::ValidateReport report =
      whatif::run_validation(options, &error);
  EXPECT_EQ(error.code, whatif::ErrorCode::kUnknownPath);
  EXPECT_TRUE(report.cases.empty());
}

TEST(WhatIfValidate, DefaultGatesOnlyLoosenDocumentedKernels) {
  const auto gates = whatif::default_kernel_gates();
  for (const auto& [kernel, gate] : gates) {
    EXPECT_GE(gate.tolerance, 0.15) << kernel;
    EXPECT_LE(gate.tolerance, 0.50) << kernel;
  }
  // floorplan's branch-and-bound pruning is schedule-dependent; it is the
  // only kernel excused from structure equality.
  for (const auto& [kernel, gate] : gates) {
    if (kernel != "floorplan") {
      EXPECT_TRUE(gate.require_identical_structure) << kernel;
    } else {
      EXPECT_FALSE(gate.require_identical_structure);
    }
  }
}

}  // namespace
}  // namespace taskprof

// Golden corpus for the diagnosis engine: each seeded anti-pattern shape
// runs on the deterministic sim engine and its full JSON report must
// match tests/corpus/diagnose/<name>.case byte-for-byte.  Regenerate
// after an intentional detector/schema change with
//   TASKPROF_REGEN_DIAGNOSE=1 ./test_diagnose_corpus
// and commit the updated .case files alongside the change.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "check/shapes.hpp"
#include "diagnose/diagnose.hpp"
#include "diagnose/render.hpp"
#include "test_util.hpp"

namespace taskprof {
namespace {

#ifndef TASKPROF_DIAGNOSE_CORPUS_DIR
#error "tests/CMakeLists.txt must define TASKPROF_DIAGNOSE_CORPUS_DIR"
#endif

std::string diagnosis_json_for(check::AntiPattern pattern) {
  const check::ShapeRun run = check::run_anti_pattern(pattern);
  diag::DiagnosisInput input;
  input.profile = &run.profile;
  input.registry = run.registry.get();
  input.trace = &run.trace;
  input.telemetry = &run.telemetry;
  return diag::render_diagnosis_json(diag::run_diagnosis(input));
}

std::filesystem::path case_path(check::AntiPattern pattern) {
  return std::filesystem::path(TASKPROF_DIAGNOSE_CORPUS_DIR) /
         (std::string(check::anti_pattern_name(pattern)) + ".case");
}

TEST(DiagnoseCorpus, GoldenReportsAreStable) {
  for (const check::AntiPattern pattern : check::kAllAntiPatterns) {
    SCOPED_TRACE(check::anti_pattern_name(pattern));
    testutil::check_golden(case_path(pattern), diagnosis_json_for(pattern),
                           "TASKPROF_REGEN_DIAGNOSE");
  }
}

TEST(DiagnoseCorpus, RunsAreDeterministic) {
  // Two fresh runs of the same shape must serialize identically — the
  // property the goldens rely on.
  EXPECT_EQ(diagnosis_json_for(check::AntiPattern::kCreationStorm),
            diagnosis_json_for(check::AntiPattern::kCreationStorm));
}

}  // namespace
}  // namespace taskprof

// Golden views of recorded sim traces: for each run, the trace analysis
// as `--analyze-trace` prints it and the diagnosis JSON (work, span, span
// length and the per-construct span shares) must match
// tests/corpus/trace_views/<run>.{analysis.txt,diagnosis.json} byte for
// byte.  The runs cover untied tasks that migrate (so taskwait ends reach
// threads with no open scheduling point), phased taskwaits, a starved
// wide team and per-depth call paths.  Regenerate after an intentional
// change to the replay with
//   TASKPROF_REGEN_TRACE_VIEWS=1 ./test_trace_views
// and commit the updated files alongside the change.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "bots/kernel.hpp"
#include "diagnose/diagnose.hpp"
#include "diagnose/render.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/sim_runtime.hpp"
#include "test_util.hpp"
#include "trace/analysis.hpp"
#include "trace/recorder.hpp"

namespace taskprof {
namespace {

#ifndef TASKPROF_TRACE_VIEWS_CORPUS_DIR
#error "tests/CMakeLists.txt must define TASKPROF_TRACE_VIEWS_CORPUS_DIR"
#endif

struct ViewCase {
  const char* name;
  const char* kernel;
  int threads;
  bool untied;
  bool depth_parameter;
};

std::string case_name(const ::testing::TestParamInfo<ViewCase>& param) {
  return param.param.name;
}

class TraceViewsTest : public ::testing::TestWithParam<ViewCase> {};

TEST_P(TraceViewsTest, AnalysisAndDiagnosisMatchTheGoldens) {
  const ViewCase& c = GetParam();
  RegionRegistry registry;
  rt::SimRuntime runtime;
  Instrumentor instrumentor(registry);
  trace::TraceRecorder recorder;
  rt::FanoutHooks fanout;
  fanout.add(&instrumentor);
  fanout.add(&recorder);
  runtime.set_hooks(&fanout);
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
  const AggregateProfile profile = instrumentor.aggregate();
  const trace::Trace recorded = recorder.take();

  diag::DiagnosisInput input;
  input.profile = &profile;
  input.registry = &registry;
  input.trace = &recorded;
  const std::filesystem::path dir(TASKPROF_TRACE_VIEWS_CORPUS_DIR);
  testutil::check_golden(
      dir / (std::string(c.name) + ".analysis.txt"),
      trace::render_analysis(*recorded.analysis(), registry),
      "TASKPROF_REGEN_TRACE_VIEWS");
  testutil::check_golden(
      dir / (std::string(c.name) + ".diagnosis.json"),
      diag::render_diagnosis_json(diag::run_diagnosis(input)),
      "TASKPROF_REGEN_TRACE_VIEWS");
}

INSTANTIATE_TEST_SUITE_P(
    SimRuns, TraceViewsTest,
    ::testing::Values(
        ViewCase{"health_untied_t2", "health", 2, true, false},
        ViewCase{"fib_untied_t4", "fib", 4, true, false},
        ViewCase{"sort_t4", "sort", 4, false, false},
        ViewCase{"sparselu_t8", "sparselu", 8, false, false},
        ViewCase{"nqueens_depth_params_t4", "nqueens", 4, false, true}),
    case_name);

}  // namespace
}  // namespace taskprof

// Quickstart: profile a small task program and read the call-path
// profile — the 60-second tour of the public API.
//
//   1. register task regions in a RegionRegistry,
//   2. attach an Instrumentor to a runtime engine,
//   3. run a parallel region that creates tasks,
//   4. render the profile (paper Fig. 5 layout) and diagnose it.
#include <cstdio>
#include <iostream>

#include "diagnose/diagnose.hpp"
#include "diagnose/render.hpp"
#include "instrument/instrumentor.hpp"
#include "report/text_report.hpp"
#include "rt/sim_runtime.hpp"

using namespace taskprof;

int main() {
  // A registry gives every source construct a handle.
  RegionRegistry registry;
  const RegionHandle process_chunk =
      registry.register_region("process_chunk", RegionType::kTask);
  const RegionHandle checksum_fn =
      registry.register_region("checksum", RegionType::kFunction);

  // The simulator engine: deterministic virtual time.  Swap in
  // rt::RealRuntime for wall-clock measurements — same code.
  rt::SimRuntime runtime;
  Instrumentor instrumentor(registry);
  runtime.set_hooks(&instrumentor);

  // A parallel region: one thread creates 8 tasks, everyone executes.
  runtime.parallel(4, [&](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int chunk = 0; chunk < 8; ++chunk) {
      rt::TaskAttrs attrs;
      attrs.region = process_chunk;
      ctx.create_task(
          [&, chunk](rt::TaskContext& task_ctx) {
            task_ctx.work(50'000 + 10'000 * chunk);  // uneven chunks
            rt::ScopedRegion fn(task_ctx, checksum_fn);
            task_ctx.work(5'000);
          },
          attrs);
    }
    ctx.taskwait();
  });
  runtime.set_hooks(nullptr);
  instrumentor.finalize();

  // The profile: main tree (with '*' stub nodes showing where task
  // execution happened) plus one merged tree per task construct.
  const AggregateProfile profile = instrumentor.aggregate();
  std::fputs(render_profile(profile, registry).c_str(), stdout);

  // The detectors that read a profile alone (paper §VI workflow,
  // automated); a recorded trace would unlock the time-domain ones.
  diag::render_diagnosis_text(diag::run_diagnosis({&profile, &registry}),
                              std::cout);
  return 0;
}

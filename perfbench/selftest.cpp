// Determinism test of the callpath_wide generator: at one worker the same
// seed must give the same rt.tasks, trace.events and profile.callpaths,
// and a different seed must change all three.  Exits 0 on success.
#include <cstdio>

#include "callpath.hpp"
#include "instrument/instrumentor.hpp"
#include "layers.hpp"
#include "rt/real_runtime.hpp"
#include "trace/recorder.hpp"

using namespace taskprof;

namespace {

struct Shape {
  bool ok = false;
  std::uint64_t tasks = 0;
  std::size_t events = 0;
  std::size_t callpaths = 0;
};

Shape run_once(std::uint64_t seed) {
  const auto kernel = perfbench::make_callpath_kernel();
  rt::RealRuntime runtime;
  RegionRegistry registry;
  Instrumentor instr(registry);
  trace::TraceRecorder recorder;
  rt::FanoutHooks fanout{&instr, &recorder};
  runtime.set_hooks(&fanout);
  bots::KernelConfig config;
  config.threads = 1;
  config.seed = seed;
  const bots::KernelResult run = kernel->run(runtime, registry, config);
  runtime.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile profile = instr.aggregate();
  return {run.ok, run.stats.tasks_executed, recorder.take().event_count(),
          perfbench::count_callpaths(profile)};
}

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void print(const char* label, const Shape& s) {
  std::printf(
      "%s: ok=%d rt.tasks=%llu trace.events=%zu profile.callpaths=%zu\n",
      label, s.ok ? 1 : 0, static_cast<unsigned long long>(s.tasks), s.events,
      s.callpaths);
}

}  // namespace

int main() {
  const Shape a = run_once(1);
  const Shape again = run_once(1);
  const Shape other = run_once(2);
  print("seed 1", a);
  print("seed 1 again", again);
  print("seed 2", other);

  expect(a.ok && again.ok && other.ok, "kernel self-check passes");
  expect(a.tasks == perfbench::callpath_reference(1).tasks,
         "task count matches the serial reference");
  expect(a.tasks == again.tasks, "same seed, same rt.tasks");
  expect(a.events == again.events, "same seed, same trace.events");
  expect(a.callpaths == again.callpaths, "same seed, same profile.callpaths");
  expect(a.tasks != other.tasks, "other seed, other rt.tasks");
  expect(a.events != other.events, "other seed, other trace.events");
  expect(a.callpaths != other.callpaths, "other seed, other profile.callpaths");
  std::printf("%s\n", failures == 0 ? "selftest: passed" : "selftest: FAILED");
  return failures == 0 ? 0 : 1;
}

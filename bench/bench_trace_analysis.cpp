// Paper §VII (future work), implemented: trace-based decomposition of
// synchronization time into *management* and *waiting*, the
// management-to-execution ratio, queue latencies, and the creation depth
// (the longest parent -> child creation chain) — checked against the
// §V-B claim that it estimates the concurrent-instance count of
// Table II.
#include "common.hpp"
#include "report/analysis.hpp"
#include "trace/analysis.hpp"
#include "trace/recorder.hpp"

using namespace taskprof;

int main(int argc, char** argv) {
  const bench::Options options = bench::parse_options(argc, argv);
  bench::print_header(
      "=== Section VII: trace-based management/waiting decomposition ===",
      "Lorenz et al. 2012, Section VII (proposed future work)", options);

  TextTable table({"code", "threads", "task execution", "sync management",
                   "sync waiting", "mgmt/exec ratio", "mean queue latency",
                   "creation depth", "max conc (profile)"});

  for (const std::string& name : {std::string("fib"), std::string("nqueens"),
                                  std::string("sort"),
                                  std::string("strassen")}) {
    auto kernel = bots::make_kernel(name);
    for (int threads : {1, 8}) {
      bots::KernelConfig config;
      config.threads = threads;
      config.size = options.size;
      config.seed = options.seed;
      config.cutoff = false;

      RegionRegistry registry;
      rt::SimRuntime sim;
      Instrumentor instr(registry);
      trace::TraceRecorder recorder;
      rt::FanoutHooks fanout{&instr, &recorder};
      sim.set_hooks(&fanout);
      const auto result = kernel->run(sim, registry, config);
      sim.set_hooks(nullptr);
      instr.finalize();
      if (!result.ok) {
        std::fprintf(stderr, "FATAL: %s failed self-check\n", name.c_str());
        return 1;
      }

      const trace::TraceAnalysis analysis =
          trace::analyze_trace(recorder.take());
      const AggregateProfile profile = instr.aggregate();
      table.add_row(
          {name, std::to_string(threads),
           format_ticks(analysis.total_active),
           format_ticks(analysis.sync_management),
           format_ticks(analysis.sync_waiting),
           format_share(analysis.management_to_execution_ratio()),
           format_ticks(static_cast<Ticks>(analysis.queue_latency.mean())),
           std::to_string(analysis.max_creation_depth),
           std::to_string(profile.max_concurrent_any_thread)});
    }
  }
  std::fputs(table.str().c_str(), stdout);
  std::puts(
      "\nreadings: the management share of sync time grows with threads for "
      "the fine-grained codes (the profile alone cannot make this split, "
      "paper SS VII); the creation depth upper-bounds the measured max "
      "concurrent instances (paper SS V-B's estimate).");
  return 0;
}

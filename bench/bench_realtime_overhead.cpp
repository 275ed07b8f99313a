// Section V-A on the real-thread engine: wall-clock overhead of profiling
// for the BOTS kernels, instrumented vs. uninstrumented, on real threads.
//
// This bench runs on the actual host (the paper-style experiment), so the
// numbers are wall-clock and noisy — especially on an oversubscribed
// machine.  It measures 1 and 2 threads and reports the median of three
// repetitions; committed numbers (EXPERIMENTS.md §V-A) name the host they
// came from.  The virtual-time counterpart (bench_fig13/14) is the
// primary reproduction.
#include <algorithm>
#include <vector>

#include "common.hpp"
#include "rt/real_runtime.hpp"

namespace {

using namespace taskprof;

Ticks median_span(bots::Kernel& kernel, const bots::KernelConfig& config,
                  bool instrumented, int reps) {
  std::vector<Ticks> spans;
  for (int rep = 0; rep < reps; ++rep) {
    RegionRegistry registry;
    rt::RealRuntime runtime;
    bots::KernelResult result;
    if (instrumented) {
      Instrumentor instr(registry);
      runtime.set_hooks(&instr);
      result = kernel.run(runtime, registry, config);
      runtime.set_hooks(nullptr);
      instr.finalize();
    } else {
      result = kernel.run(runtime, registry, config);
    }
    if (!result.ok) {
      std::fprintf(stderr, "FATAL: %s failed self-check\n",
                   std::string(kernel.name()).c_str());
      std::exit(1);
    }
    spans.push_back(result.stats.parallel_ticks);
  }
  std::sort(spans.begin(), spans.end());
  return spans[spans.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::parse_options(argc, argv);
  std::puts("=== Section V-A: wall-clock profiling overhead (real engine) ===");
  std::puts("reproduces: Lorenz et al. 2012, Figure 13 methodology");
  std::printf("engine: real threads (host wall clock) | size class: %s\n\n",
              bots::size_name(options.size));

  constexpr int kReps = 3;
  TextTable table({"code", "version", "plain (1t)", "instr (1t)",
                   "overhead (1t)", "overhead (2t)"});
  for (auto& kernel : bots::make_all_kernels()) {
    bots::KernelConfig config;
    config.size = options.size == bots::SizeClass::kMedium
                      ? bots::SizeClass::kSmall  // keep wall time bounded
                      : options.size;
    config.seed = options.seed;
    config.cutoff = kernel->has_cutoff_version();

    config.threads = 1;
    const Ticks plain1 = median_span(*kernel, config, false, kReps);
    const Ticks instr1 = median_span(*kernel, config, true, kReps);
    config.threads = 2;
    const Ticks plain2 = median_span(*kernel, config, false, kReps);
    const Ticks instr2 = median_span(*kernel, config, true, kReps);

    table.add_row({std::string(kernel->name()),
                   kernel->has_cutoff_version() ? "cut-off" : "plain",
                   format_ticks(plain1), format_ticks(instr1),
                   format_percent(bench::overhead(plain1, instr1)),
                   format_percent(bench::overhead(plain2, instr2))});
  }
  std::fputs(table.str().c_str(), stdout);
  std::puts(
      "\nexpected shape: fine-grained codes (fib) pay the most; coarse "
      "codes (alignment, strassen, sparselu) pay the least.  Wall-clock "
      "noise on a shared host can exceed small overheads.");
  return 0;
}

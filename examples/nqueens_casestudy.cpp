// The paper's Section VI case study, replayed end to end:
//
//  1. run nqueens without a cut-off and observe that most time inside the
//     tasks is spent *creating* child tasks,
//  2. add parameter instrumentation to break the profile down by
//     recursion depth (Table IV),
//  3. conclude — as the paper does — that cutting task creation at level 3
//     keeps enough parallelism while removing almost all overhead,
//  4. verify the conclusion by running the cut-off version.
#include <cstdio>
#include <iostream>

#include "bots/kernel.hpp"
#include "common/format.hpp"
#include "diagnose/diagnose.hpp"
#include "diagnose/render.hpp"
#include "instrument/instrumentor.hpp"
#include "report/analysis.hpp"
#include "rt/sim_runtime.hpp"

using namespace taskprof;

namespace {

struct Measurement {
  bots::KernelResult result;
  AggregateProfile profile;
  std::unique_ptr<RegionRegistry> registry;
};

/// The detectors that read a profile alone.
void print_diagnosis(const Measurement& run) {
  diag::render_diagnosis_text(
      diag::run_diagnosis({&run.profile, run.registry.get()}), std::cout);
}

Measurement measure(const bots::KernelConfig& config) {
  auto kernel = bots::make_kernel("nqueens");
  auto registry = std::make_unique<RegionRegistry>();
  rt::SimRuntime runtime;
  Instrumentor instrumentor(*registry);
  runtime.set_hooks(&instrumentor);
  auto result = kernel->run(runtime, *registry, config);
  runtime.set_hooks(nullptr);
  instrumentor.finalize();
  return Measurement{std::move(result), instrumentor.aggregate(),
                     std::move(registry)};
}

}  // namespace

int main() {
  std::puts("=== nqueens granularity case study (paper Section VI) ===\n");

  bots::KernelConfig config;
  config.threads = 4;
  config.size = bots::SizeClass::kSmall;

  // Step 1: first impression from the profile of the non-cut-off run.
  std::puts("step 1: profile the version without a creation cut-off");
  const Measurement plain = measure(config);
  const auto constructs = task_construct_stats(plain.profile, *plain.registry);
  for (const auto& c : constructs) {
    const double exec_mean = c.instances == 0
                                 ? 0.0
                                 : static_cast<double>(c.exclusive_total) /
                                       static_cast<double>(c.instances);
    std::printf(
        "  task '%s': %s instances, mean exclusive execution %s,\n"
        "  mean creation time %s -> creation %s execution\n",
        c.name.c_str(), format_count(c.instances).c_str(),
        format_ticks(static_cast<Ticks>(exec_mean)).c_str(),
        format_ticks(static_cast<Ticks>(c.create_mean)).c_str(),
        c.create_mean > exec_mean ? "costs more than" : "costs less than");
  }
  print_diagnosis(plain);

  // Step 2: parameter instrumentation by recursion depth (Table IV).
  std::puts("\nstep 2: per-depth breakdown via parameter instrumentation");
  bots::KernelConfig depth_config = config;
  depth_config.depth_parameter = true;
  const Measurement by_depth = measure(depth_config);
  const RegionHandle region =
      by_depth.registry->register_region("nqueens_task", RegionType::kTask);
  const auto rows =
      parameter_breakdown(by_depth.profile, *by_depth.registry, region);
  TextTable table({"depth", "mean time", "sum", "tasks"});
  Ticks shallow_sum = 0;
  std::uint64_t shallow_tasks = 0;
  for (const auto& row : rows) {
    table.add_row({std::to_string(row.parameter),
                   format_ticks(static_cast<Ticks>(row.inclusive_mean)),
                   format_ticks(row.inclusive_total),
                   format_count(row.instances)});
    if (row.parameter <= 3) {
      shallow_sum += row.inclusive_total;
      shallow_tasks += row.instances;
    }
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "  depths 0-3 hold only %s of task time yet provide %s tasks —\n"
      "  plenty to balance the team, so cut task creation at level 3.\n",
      format_ticks(shallow_sum).c_str(), format_count(shallow_tasks).c_str());

  // Step 3/4: apply the cut-off and compare.
  std::puts("\nstep 3: apply the cut-off at depth 3 and re-measure");
  bots::KernelConfig cutoff_config = config;
  cutoff_config.cutoff = true;
  const Measurement cutoff = measure(cutoff_config);
  const double speedup =
      static_cast<double>(plain.result.stats.parallel_ticks) /
      static_cast<double>(cutoff.result.stats.parallel_ticks);
  std::printf(
      "  runtime %s -> %s: %.1fx faster (paper: 187 s -> 11.5 s, 16x)\n",
      format_ticks(plain.result.stats.parallel_ticks).c_str(),
      format_ticks(cutoff.result.stats.parallel_ticks).c_str(), speedup);
  std::printf("  tasks %s -> %s; both computed the same %llu solutions\n",
              format_count(plain.result.stats.tasks_executed).c_str(),
              format_count(cutoff.result.stats.tasks_executed).c_str(),
              static_cast<unsigned long long>(cutoff.result.checksum));
  std::puts("  the fixed version:");
  print_diagnosis(cutoff);
  return 0;
}

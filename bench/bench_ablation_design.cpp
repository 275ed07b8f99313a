// Ablation of the paper's design decisions (DESIGN.md §4), on nqueens:
//
//  1. stub nodes on/off       — §IV-B4: without stubs, barrier time cannot
//                               be split into task execution vs. waiting.
//  2. pause-on-suspend on/off — §IV-B3: without it, suspended tasks absorb
//                               the time of tasks executed in between
//                               (double counting: task tree > stub time).
//  3. execution- vs creation-site attribution — §IV-B2 / Fig. 3: the
//                               creation-site variant produces negative
//                               exclusive times (run single-threaded).
//  4. LIFO vs FIFO dequeue    — §V-B: breadth-first scheduling inflates
//                               the number of concurrently active
//                               instances (profiler memory) far beyond
//                               the recursion depth.
#include <cstdint>
#include <memory>

#include "common.hpp"
#include "report/analysis.hpp"

using namespace taskprof;

namespace {

struct VariantRun {
  rt::TeamStats stats;
  AggregateProfile profile;
  std::unique_ptr<RegionRegistry> registry;
};

VariantRun run_variant(bots::Kernel& kernel, const bots::KernelConfig& config,
                       const MeasureOptions& measure,
                       const rt::SimConfig& sim_config) {
  auto registry = std::make_unique<RegionRegistry>();
  rt::SimRuntime sim(sim_config);
  Instrumentor instr(*registry, measure);
  sim.set_hooks(&instr);
  const auto result = kernel.run(sim, *registry, config);
  sim.set_hooks(nullptr);
  instr.finalize();
  if (!result.ok) {
    std::fprintf(stderr, "FATAL: kernel self-check failed\n");
    std::exit(1);
  }
  return VariantRun{result.stats, instr.aggregate(), std::move(registry)};
}

Ticks stub_total(const AggregateProfile& profile) {
  Ticks total = 0;
  for_each_node(profile.implicit_root, [&](const CallNode& node, int) {
    if (node.is_stub) total += node.inclusive;
  });
  return total;
}

Ticks min_exclusive(const AggregateProfile& profile) {
  Ticks least = 0;
  auto scan = [&](const CallNode* root) {
    for_each_node(root, [&](const CallNode& node, int) {
      least = std::min(least, node.exclusive());
    });
  };
  scan(profile.implicit_root);
  for (const CallNode* root : profile.task_roots) scan(root);
  return least;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options options = bench::parse_options(argc, argv);
  bench::print_header("=== Ablation: the paper's design decisions ===",
                      "Lorenz et al. 2012, Section IV-B design rationale",
                      options);

  auto kernel = bots::make_kernel("nqueens");
  bots::KernelConfig config;
  config.threads = 4;
  config.size = options.size;
  config.seed = options.seed;
  config.cutoff = false;

  TextTable table({"variant", "barrier excl", "stub time", "task tree time",
                   "min excl anywhere", "span"});
  struct Variant {
    const char* name;
    MeasureOptions measure;
    int threads;
  };
  MeasureOptions defaults;
  MeasureOptions no_stubs;
  no_stubs.stub_nodes = false;
  MeasureOptions no_pause;
  no_pause.pause_on_suspend = false;
  MeasureOptions creation_site;
  creation_site.creation_site_attribution = true;
  const Variant variants[] = {
      {"paper design", defaults, 4},
      {"no stub nodes", no_stubs, 4},
      {"no pause on suspend", no_pause, 4},
      {"creation-site attribution (1 thread)", creation_site, 1},
  };
  for (const Variant& variant : variants) {
    bots::KernelConfig cfg = config;
    cfg.threads = variant.threads;
    const auto run = run_variant(*kernel, cfg, variant.measure, {});
    const auto summary =
        scheduling_point_summary(run.profile, *run.registry);
    Ticks task_total = 0;
    for (const CallNode* root : run.profile.task_roots) {
      task_total += root->inclusive;
    }
    table.add_row({variant.name, format_ticks(summary.barrier_exclusive),
                   format_ticks(stub_total(run.profile)),
                   format_ticks(task_total),
                   format_ticks(min_exclusive(run.profile)),
                   format_ticks(run.stats.parallel_ticks)});
  }
  std::fputs(table.str().c_str(), stdout);

  std::puts("\n--- scheduling-policy ablation (Table II memory bound) ---");
  std::puts(
      "(test-size input: breadth-first scheduling keeps tens of thousands "
      "of suspended task stacks alive at larger sizes — the memory "
      "explosion this ablation demonstrates)");
  TextTable sched({"scheduling policy", "max concurrent instances", "span"});
  // Relaxed policies suspend O(live tasks) fibers at once; keep the input
  // small so the breadth-first row stays within a laptop's memory.
  config.size = bots::SizeClass::kTest;
  struct Policy {
    const char* name;
    bool strict;
    bool lifo;
  };
  const Policy policies[] = {
      {"children-first taskwait + LIFO (default, libgomp-like)", true, true},
      {"any-task taskwait + LIFO (LLVM-like)", false, true},
      {"any-task taskwait + FIFO (breadth-first)", false, false},
  };
  for (const Policy& policy : policies) {
    rt::SimConfig sim_config;
    sim_config.strict_taskwait_scheduling = policy.strict;
    sim_config.lifo_dequeue = policy.lifo;
    const auto run =
        run_variant(*kernel, config, MeasureOptions{}, sim_config);
    sched.add_row({policy.name,
                   std::to_string(run.profile.max_concurrent_any_thread),
                   format_ticks(run.stats.parallel_ticks)});
  }
  std::fputs(sched.str().c_str(), stdout);

  std::puts(
      "\nreadings: 'no stub nodes' zeroes the stub column and dumps task "
      "execution into barrier exclusive (waiting and working become "
      "indistinguishable); 'no pause' inflates task-tree time above stub "
      "time (suspension double-counted); creation-site attribution drives "
      "an exclusive time negative (Fig. 3); relaxed scheduling policies "
      "inflate concurrent instances (profiler memory) beyond the recursion "
      "depth.");
  return 0;
}

// Topology-aware hierarchical stealing vs. flat victim selection on
// simulated NUMA machines — the 256-worker scaling study.
//
// The virtual-time engine prices a multi-domain machine (interconnect
// round trips, cold-cache refills, remote lock-line bouncing; see
// rt/topology.hpp and DESIGN.md #15), which lets us A/B the *victim
// policy* on machines the host does not have: for each BOTS kernel and
// each machine in {1x8, 2x32, 4x64} the same task graph runs once under
// the flat policy (every queue take is an individually paid, possibly
// remote, lock op) and once under the hierarchical policy (same-domain
// work preferred, cross-domain transfers claimed in batched leases).
// Both runs execute identical work — the task-count cross-check fails
// the bench if a policy ever changes the computation — so the
// virtual-span ratio isolates scheduling cost.
//
// The single-domain 1x8 machine is the control: both policies must
// price identically there (ratio exactly 1.0), because a one-domain
// topology is defined to be the pre-topology engine.
//
// Writes BENCH_numa_scaling.json (tracked across PRs; gated in CI by
// tools/check_bench_regression.py --check=numa_scaling).
#include <cstdio>
#include <string>
#include <vector>

#include "bots/kernel.hpp"
#include "common.hpp"
#include "common/format.hpp"
#include "rt/sim_runtime.hpp"
#include "rt/topology.hpp"

namespace taskprof {
namespace {

struct Machine {
  const char* name;
  std::uint32_t domains;
  std::uint32_t workers_per_domain;
};

// The sweep: one small SMP control and two progressively wider NUMA
// boxes, up to 256 virtual workers (4 sockets x 64).
constexpr Machine kMachines[] = {
    {"1x8", 1, 8},
    {"2x32", 2, 32},
    {"4x64", 4, 64},
};

// fib = deep binary recursion (steal-heavy ramp-up), nqueens = wide
// fan-out (every node spawns up to 8 children — the kernel the 1.5x
// floor at 4x64 is gated on), sparselu = coarse dependency phases
// (tasks big enough that topology should not matter; its ratio ~1.0 is
// the negative control).
constexpr const char* kKernels[] = {"fib", "nqueens", "sparselu"};
constexpr const char* kWideFanoutKernel = "nqueens";

rt::Topology make_topology(const Machine& machine, bool hierarchical) {
  rt::Topology topo;
  topo.domains = machine.domains;
  topo.workers_per_domain = machine.workers_per_domain;
  topo.hierarchical = hierarchical;
  return topo;
}

struct Cell {
  std::string kernel;
  std::string machine;
  std::uint32_t domains = 0;
  std::uint32_t workers = 0;
  Ticks flat_span = 0;
  Ticks hier_span = 0;
  std::uint64_t flat_tasks = 0;
  std::uint64_t hier_tasks = 0;

  [[nodiscard]] double ratio() const {
    return hier_span == 0 ? 0.0
                          : static_cast<double>(flat_span) /
                                static_cast<double>(hier_span);
  }
  [[nodiscard]] bool counts_match() const {
    return flat_tasks == hier_tasks && flat_tasks > 0;
  }
};

Ticks run_cell(bots::Kernel& kernel, const bots::KernelConfig& config,
               const rt::Topology& topo, std::uint64_t* tasks) {
  rt::SimConfig sim_config;
  sim_config.topology = topo;
  bench::SimRun run =
      bench::run_sim(kernel, config, /*instrumented=*/false, sim_config);
  *tasks = run.result.stats.tasks_executed;
  return run.result.stats.parallel_ticks;
}

}  // namespace
}  // namespace taskprof

int main(int argc, char** argv) {
  using namespace taskprof;
  const bench::TrajectoryOptions options =
      bench::parse_trajectory_options(argc, argv, "BENCH_numa_scaling.json");

  std::printf("=== NUMA scaling: hierarchical vs. flat victim policy ===\n");
  std::printf(
      "engine: virtual-time simulator (deterministic; reps are redundant\n"
      "and skipped) | size class: %s | seed: %llu\n\n",
      bots::size_name(options.size),
      static_cast<unsigned long long>(options.seed));

  const rt::Topology defaults;
  std::vector<Cell> cells;
  bool all_counts_match = true;

  for (const char* kernel_name : kKernels) {
    auto kernel = bots::make_kernel(kernel_name);
    if (kernel == nullptr) {
      std::fprintf(stderr, "FATAL: unknown kernel %s\n", kernel_name);
      return 1;
    }
    for (const Machine& machine : kMachines) {
      bots::KernelConfig config;
      config.size = options.size;
      config.seed = options.seed;
      config.threads =
          static_cast<int>(machine.domains * machine.workers_per_domain);

      Cell cell;
      cell.kernel = kernel_name;
      cell.machine = machine.name;
      cell.domains = machine.domains;
      cell.workers = machine.domains * machine.workers_per_domain;
      cell.flat_span = run_cell(*kernel, config,
                                make_topology(machine, /*hierarchical=*/false),
                                &cell.flat_tasks);
      cell.hier_span = run_cell(*kernel, config,
                                make_topology(machine, /*hierarchical=*/true),
                                &cell.hier_tasks);
      all_counts_match = all_counts_match && cell.counts_match();
      cells.push_back(cell);
    }
  }

  std::printf("%-10s %-6s %8s %14s %14s %8s\n", "kernel", "machine",
              "workers", "flat span", "hier span", "ratio");
  for (const Cell& cell : cells) {
    std::printf("%-10s %-6s %8u %14s %14s %7.2fx%s\n", cell.kernel.c_str(),
                cell.machine.c_str(), cell.workers,
                format_ticks(cell.flat_span).c_str(),
                format_ticks(cell.hier_span).c_str(), cell.ratio(),
                cell.counts_match() ? "" : "  COUNT MISMATCH");
  }
  std::printf(
      "\nratio = flat span / hierarchical span (> 1 means the hierarchical\n"
      "policy finished the same task graph sooner on the same machine).\n");
  if (!all_counts_match) {
    std::fprintf(stderr,
                 "FATAL: a victim policy changed the executed task count\n");
    return 1;
  }

  JsonWriter json;
  json.begin_object();
  json.field("bench", "numa_scaling");
  json.field("engine", "sim");
  json.field("size", bots::size_name(options.size));
  json.field("seed", options.seed);
  json.field("wide_fanout_kernel", kWideFanoutKernel);
  json.begin_object("machine_model");
  json.field("remote_steal_latency_ticks",
             static_cast<std::uint64_t>(defaults.remote_steal_latency));
  json.field("cache_affinity_cost_ticks",
             static_cast<std::uint64_t>(defaults.cache_affinity_cost));
  json.field("remote_contention_weight", defaults.remote_contention_weight);
  json.field("steal_batch_max",
             static_cast<std::uint64_t>(defaults.steal_batch_max));
  json.end_object();
  json.begin_array("results");
  for (const Cell& cell : cells) {
    json.begin_object();
    json.field("kernel", cell.kernel);
    json.field("machine", cell.machine);
    json.field("domains", static_cast<std::uint64_t>(cell.domains));
    json.field("workers", static_cast<std::uint64_t>(cell.workers));
    json.field("tasks", cell.flat_tasks);
    json.field("flat_span_ticks", static_cast<std::uint64_t>(cell.flat_span));
    json.field("hier_span_ticks", static_cast<std::uint64_t>(cell.hier_span));
    json.field("ratio", cell.ratio());
    json.field("counts_match", cell.counts_match());
    json.end_object();
  }
  json.end_array();
  json.end_object();
  if (!bench::write_json(options.out_path, json)) return 1;
  std::printf("wrote %s\n", options.out_path.c_str());
  return 0;
}

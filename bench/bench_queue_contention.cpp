// Scheduler contention benchmark: spawn/steal throughput and taskwait
// latency of the real engine's two scheduler modes
// (RealConfig::scheduler), swept over 1–8 threads on five workload
// shapes:
//
//   spawn_drain   one producer, everyone else stealing at the barrier —
//                 pure spawn+steal throughput
//   fib           cut-off-free fib recursion (the paper's worst case,
//                 Fig. 14) — fine-grained tasks + taskwait pressure
//   nqueens       cut-off-free nqueens recursion — wider fan-out, deeper
//                 taskwait nesting
//   taskwait_ping one child + taskwait per round on every thread —
//                 taskwait round-trip latency
//   sweep         the recurring-iteration workload (sparselu/stencil
//                 style): one producer spawns a task per grid block,
//                 every iteration repeats the identical graph.  The
//                 first iteration is warmup — and, for the taskgraph
//                 scheduler, the recording pass — and is excluded from
//                 the measurement, so the comparison is dynamic steady
//                 state vs. replay.
//
// Every (workload, threads) cell runs both schedulers (chase_lev /
// taskgraph) and verifies they executed the *identical* number of
// tasks; results go to stdout and to BENCH_queue_contention.json (the
// machine-readable trajectory file — schema per bench/common.hpp).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/concurrency.hpp"
#include "rt/real_runtime.hpp"

using namespace taskprof;

namespace {

struct Sizes {
  std::uint64_t spawn_tasks;
  int fib_n;
  int nqueens_n;
  std::uint64_t ping_rounds;
  std::uint64_t sweep_blocks;
};

Sizes sizes_for(bots::SizeClass size) {
  switch (size) {
    case bots::SizeClass::kTest: return {20000, 16, 6, 2000, 8000};
    case bots::SizeClass::kSmall: return {50000, 20, 8, 5000, 40000};
    case bots::SizeClass::kMedium: return {200000, 25, 10, 20000, 100000};
  }
  return {50000, 20, 8, 5000, 40000};
}

/// Iterations of the recurring sweep: 1 warmup/record + the measured
/// steady state.
constexpr int kSweepMeasuredIters = 8;

const char* scheduler_name(rt::SchedulerKind kind) {
  switch (kind) {
    case rt::SchedulerKind::kChaseLev: return "chase_lev";
    case rt::SchedulerKind::kTaskGraph: return "taskgraph";
  }
  return "?";
}

struct RunResult {
  rt::TeamStats stats;
  std::uint64_t checksum = 0;   ///< workload self-check value
  std::uint64_t rounds = 0;     ///< taskwait_ping: taskwait round-trips
  int measured_iters = 1;       ///< regions aggregated into stats
};

struct Workload {
  std::string name;
  std::int64_t param;
  std::function<RunResult(rt::RealRuntime&, int threads, RegionHandle task)>
      run;
};

void accumulate(rt::TeamStats& into, const rt::TeamStats& stats) {
  into.parallel_ticks += stats.parallel_ticks;
  into.tasks_executed += stats.tasks_executed;
  into.tasks_created += stats.tasks_created;
  into.steals += stats.steals;
  into.steal_attempts += stats.steal_attempts;
  into.migrations += stats.migrations;
}

RunResult run_spawn_drain(rt::RealRuntime& runtime, int threads,
                          RegionHandle task, std::uint64_t num_tasks) {
  std::atomic<std::uint64_t> executed{0};
  RunResult out;
  out.stats = runtime.parallel(threads, [&](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    rt::TaskAttrs attrs;
    attrs.region = task;
    for (std::uint64_t i = 0; i < num_tasks; ++i) {
      ctx.create_task(
          [&executed](rt::TaskContext&) {
            executed.fetch_add(1, std::memory_order_relaxed);
          },
          attrs);
    }
  });
  out.checksum = executed.load();
  return out;
}

RunResult run_fib(rt::RealRuntime& runtime, int threads, RegionHandle task,
                  int n) {
  long result = 0;
  RunResult out;
  out.stats = runtime.parallel(threads, [&](rt::TaskContext& ctx) {
    if (ctx.single()) bench::fib_workload(ctx, task, n, &result);
  });
  out.checksum = static_cast<std::uint64_t>(result);
  return out;
}

RunResult run_nqueens(rt::RealRuntime& runtime, int threads, RegionHandle task,
                      int n) {
  std::atomic<std::uint64_t> solutions{0};
  RunResult out;
  out.stats = runtime.parallel(threads, [&](rt::TaskContext& ctx) {
    if (ctx.single()) {
      bench::nqueens_workload(ctx, task, n, 0, 0, 0, 0, solutions);
    }
  });
  out.checksum = solutions.load();
  return out;
}

RunResult run_taskwait_ping(rt::RealRuntime& runtime, int threads,
                            RegionHandle task, std::uint64_t rounds) {
  std::atomic<std::uint64_t> children{0};
  RunResult out;
  out.stats = runtime.parallel(threads, [&](rt::TaskContext& ctx) {
    rt::TaskAttrs attrs;
    attrs.region = task;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      ctx.create_task(
          [&children](rt::TaskContext&) {
            children.fetch_add(1, std::memory_order_relaxed);
          },
          attrs);
      ctx.taskwait();
    }
  });
  out.checksum = children.load();
  out.rounds = rounds * static_cast<std::uint64_t>(threads);
  return out;
}

/// The recurring workload: every iteration is one parallel region whose
/// producer spawns `blocks` leaf tasks, task b updating its own disjoint
/// 8-lane block of a persistent grid.  Per-task work is deliberately
/// tiny (8 FMAs) so the cell measures scheduling overhead, which is what
/// the taskgraph replay removes.  Iteration 0 (warmup / recording) is
/// excluded from the aggregated stats for every scheduler.
RunResult run_sweep(rt::RealRuntime& runtime, int threads, RegionHandle task,
                    std::uint64_t blocks) {
  constexpr std::uint64_t kLanes = 8;
  std::vector<double> grid(blocks * kLanes);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    grid[i] = 1.0 + static_cast<double>(i % 7);
  }
  double* data = grid.data();
  RunResult out;
  out.measured_iters = kSweepMeasuredIters;
  for (int iter = 0; iter <= kSweepMeasuredIters; ++iter) {
    const rt::TeamStats stats =
        runtime.parallel(threads, [&](rt::TaskContext& ctx) {
          if (!ctx.single()) return;
          rt::TaskAttrs attrs;
          attrs.region = task;
          for (std::uint64_t b = 0; b < blocks; ++b) {
            attrs.parameter = static_cast<std::int64_t>(b);
            ctx.create_task(
                [data, b](rt::TaskContext&) {
                  double* cell = data + b * kLanes;
                  for (std::uint64_t k = 0; k < kLanes; ++k) {
                    cell[k] = cell[k] * 1.0000001 + static_cast<double>(k);
                  }
                },
                attrs);
          }
        });
    if (iter == 0) continue;
    accumulate(out.stats, stats);
  }
  // Blocks are disjoint and each sees the same FP sequence regardless of
  // scheduling, so the folded bit pattern is identical across schedulers.
  std::uint64_t h = 1469598103934665603ull;
  for (const double d : grid) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    h = (h ^ bits) * 1099511628211ull;
  }
  out.checksum = h;
  return out;
}

struct CellResult {
  RunResult run;
  double span_ms = 0.0;
  double tasks_per_sec = 0.0;
  double ns_per_round = 0.0;
};

CellResult measure_once(const Workload& workload, rt::SchedulerKind scheduler,
                        int threads, RegionHandle task) {
  rt::RealConfig config;
  config.scheduler = scheduler;
  rt::RealRuntime runtime(config);
  CellResult cell;
  cell.run = workload.run(runtime, threads, task);
  const double span_sec =
      static_cast<double>(cell.run.stats.parallel_ticks) / kTicksPerSec;
  cell.span_ms = span_sec * 1e3;
  if (span_sec > 0) {
    cell.tasks_per_sec =
        static_cast<double>(cell.run.stats.tasks_executed) / span_sec;
  }
  if (cell.run.rounds > 0) {
    cell.ns_per_round =
        static_cast<double>(cell.run.stats.parallel_ticks) /
        static_cast<double>(cell.run.rounds);
  }
  return cell;
}

/// Median-of-`reps` measurement for every scheduler of one
/// (workload, threads) cell, with reps interleaved across schedulers
/// (A,B, A,B, ...).  Two estimator choices, both deliberate:
///
///  * median by span, not min-of-N: min would filter out exactly the
///    lock-holder-preemption convoys that ARE the contention being
///    measured;
///  * interleaved rounds, not per-scheduler batches: the host can stall
///    for whole seconds (VM steal, background churn), longer than one
///    scheduler's entire batch.  Interleaving makes a burst degrade the
///    same rep round of every scheduler instead of one scheduler's whole
///    sample, so the cross-scheduler *ratios* stay honest even when the
///    absolute spans are inflated.
///
/// Task counts must agree across reps — they are deterministic per
/// workload.
void measure_cell(const Workload& workload, const rt::SchedulerKind* scheds,
                  int nscheds, int threads, RegionHandle task, int reps,
                  CellResult* out) {
  std::vector<std::vector<CellResult>> cells(
      static_cast<std::size_t>(nscheds));
  for (int r = 0; r < reps; ++r) {
    for (int s = 0; s < nscheds; ++s) {
      auto& sample = cells[static_cast<std::size_t>(s)];
      sample.push_back(measure_once(workload, scheds[s], threads, task));
      if (sample.back().run.stats.tasks_executed !=
          sample.front().run.stats.tasks_executed) {
        std::fprintf(stderr,
                     "FATAL: %s x%d (%s) task count varies across reps\n",
                     workload.name.c_str(), threads,
                     scheduler_name(scheds[s]));
        std::exit(1);
      }
    }
  }
  for (int s = 0; s < nscheds; ++s) {
    auto& sample = cells[static_cast<std::size_t>(s)];
    std::sort(sample.begin(), sample.end(),
              [](const CellResult& a, const CellResult& b) {
                return a.span_ms < b.span_ms;
              });
    out[s] = sample[sample.size() / 2];
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::TrajectoryOptions options = bench::parse_trajectory_options(
      argc, argv, "BENCH_queue_contention.json");
  const bots::SizeClass size = options.size;
  const std::uint64_t seed = options.seed;
  const int reps = options.reps;
  const std::string& out_path = options.out_path;

  const Sizes sz = sizes_for(size);
  std::printf(
      "=== Scheduler contention: Chase-Lev vs. taskgraph replay ===\n");
  std::printf(
      "engine: real threads | size class: %s | host threads: %u | "
      "median of %d reps\n\n",
      bots::size_name(size), taskprof::hardware_threads(), reps);

  RegionRegistry registry;
  const RegionHandle task = registry.register_region("t", RegionType::kTask);

  const Workload workloads[] = {
      {"spawn_drain", static_cast<std::int64_t>(sz.spawn_tasks),
       [&sz](rt::RealRuntime& r, int t, RegionHandle h) {
         return run_spawn_drain(r, t, h, sz.spawn_tasks);
       }},
      {"fib", sz.fib_n,
       [&sz](rt::RealRuntime& r, int t, RegionHandle h) {
         return run_fib(r, t, h, sz.fib_n);
       }},
      {"nqueens", sz.nqueens_n,
       [&sz](rt::RealRuntime& r, int t, RegionHandle h) {
         return run_nqueens(r, t, h, sz.nqueens_n);
       }},
      {"taskwait_ping", static_cast<std::int64_t>(sz.ping_rounds),
       [&sz](rt::RealRuntime& r, int t, RegionHandle h) {
         return run_taskwait_ping(r, t, h, sz.ping_rounds);
       }},
      {"sweep", static_cast<std::int64_t>(sz.sweep_blocks),
       [&sz](rt::RealRuntime& r, int t, RegionHandle h) {
         return run_sweep(r, t, h, sz.sweep_blocks);
       }},
  };
  const int thread_counts[] = {1, 2, 4, 8};
  const rt::SchedulerKind schedulers[] = {rt::SchedulerKind::kChaseLev,
                                          rt::SchedulerKind::kTaskGraph};
  constexpr int kSchedulerCount = 2;

  JsonWriter json;
  json.begin_object();
  json.field("bench", "queue_contention");
  json.field("size", bots::size_name(size));
  json.field("seed", seed);
  json.field("host_threads",
             static_cast<std::uint64_t>(taskprof::hardware_threads()));
  json.field("reps", reps);
  json.field("sweep_measured_iters",
             static_cast<std::uint64_t>(kSweepMeasuredIters));
  json.begin_array("results");

  bool counts_match = true;
  double ratio_sweep_4 = 0.0;
  double ratio_sweep_8 = 0.0;

  for (const Workload& workload : workloads) {
    TextTable table({"workload", "threads", "scheduler", "tasks", "steals",
                     "span ms", "tasks/s", "tw ns"});
    for (int threads : thread_counts) {
      std::uint64_t tasks_first = 0;
      double throughput[kSchedulerCount] = {0.0, 0.0};
      CellResult measured[kSchedulerCount];
      measure_cell(workload, schedulers, kSchedulerCount, threads, task,
                   reps, measured);
      for (int s = 0; s < kSchedulerCount; ++s) {
        const rt::SchedulerKind scheduler = schedulers[s];
        const CellResult& cell = measured[s];
        const rt::TeamStats& stats = cell.run.stats;
        throughput[s] = cell.tasks_per_sec;
        if (s == 0) {
          tasks_first = stats.tasks_executed;
        } else if (stats.tasks_executed != tasks_first) {
          std::fprintf(
              stderr,
              "FATAL: task-count mismatch on %s x%d: chase_lev=%llu "
              "%s=%llu\n",
              workload.name.c_str(), threads,
              static_cast<unsigned long long>(tasks_first),
              scheduler_name(scheduler),
              static_cast<unsigned long long>(stats.tasks_executed));
          counts_match = false;
        }
        table.add_row(
            {workload.name, std::to_string(threads),
             scheduler_name(scheduler), std::to_string(stats.tasks_executed),
             std::to_string(stats.steals),
             format_fixed(cell.span_ms, 2),
             format_fixed(cell.tasks_per_sec, 0),
             cell.run.rounds > 0
                 ? format_fixed(cell.ns_per_round, 0)
                 : "-"});

        json.begin_object();
        json.field("workload", workload.name);
        json.field("param", workload.param);
        json.field("threads", threads);
        json.field("scheduler", scheduler_name(scheduler));
        json.field("tasks_executed", stats.tasks_executed);
        json.field("steals", stats.steals);
        json.field("span_ns", static_cast<std::int64_t>(stats.parallel_ticks));
        json.field("tasks_per_sec", cell.tasks_per_sec);
        if (cell.run.measured_iters > 1) {
          json.field("measured_iters",
                     static_cast<std::uint64_t>(cell.run.measured_iters));
        }
        if (cell.run.rounds > 0) {
          json.field("taskwait_ns_per_round", cell.ns_per_round);
        }
        json.field("checksum", cell.run.checksum);
        json.end_object();
      }
      if (throughput[0] > 0 && workload.name == "sweep") {
        const double replay_ratio = throughput[1] / throughput[0];
        if (threads == 4) ratio_sweep_4 = replay_ratio;
        if (threads == 8) ratio_sweep_8 = replay_ratio;
      }
    }
    std::fputs(table.str().c_str(), stdout);
    std::fputs("\n", stdout);
  }

  json.end_array();
  json.field("task_counts_identical", counts_match);
  json.field("taskgraph_speedup_sweep_4t", ratio_sweep_4);
  json.field("taskgraph_speedup_sweep_8t", ratio_sweep_8);
  json.end_object();
  const bool wrote = bench::write_json(out_path, json);

  std::printf("taskgraph / chase_lev throughput, sweep x4: %.2fx\n",
              ratio_sweep_4);
  std::printf("taskgraph / chase_lev throughput, sweep x8: %.2fx\n",
              ratio_sweep_8);
  std::printf("task counts identical across schedulers: %s\n",
              counts_match ? "yes" : "NO");
  if (wrote) std::printf("wrote %s\n", out_path.c_str());
  return counts_match && wrote ? 0 : 1;
}

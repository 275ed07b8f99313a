// Event-engine hot-path trajectory bench (BENCH_event_hotpath.json).
//
// Drives ThreadTaskProfiler directly with synthetic event streams shaped
// like the paper's workloads — no engine, no scheduler, so the numbers
// isolate the measurement layer itself.  Every shape runs twice:
//
//   baseline  child_lookup_acceleration=false, leaf_fast_path=false
//             (the plain engine: linear sibling scans, full merge walks)
//   fastpath  the defaults (hot_child cache, promoted child indexes,
//             merged-root index, leaf merge fast path)
//
// The committed JSON is the before/after evidence for the fast-path work
// and the reference for tools/check_bench_regression.py: the per-shape
// fastpath/baseline speedup is machine-independent enough to gate CI on.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/clock.hpp"
#include "measure/task_profiler.hpp"
#include "profile/region.hpp"

namespace {

using namespace taskprof;

struct Regions {
  RegionRegistry registry;
  RegionHandle implicit =
      registry.register_region("implicit task", RegionType::kImplicitTask);
  RegionHandle fn = registry.register_region("work", RegionType::kFunction);
  RegionHandle barrier = registry.register_region(
      "implicit barrier", RegionType::kImplicitBarrier);
  RegionHandle taskwait =
      registry.register_region("taskwait", RegionType::kTaskwait);
  RegionHandle create =
      registry.register_region("create task", RegionType::kTaskCreate);
  RegionHandle task = registry.register_region("task", RegionType::kTask);
};

/// One measured event stream: returns the number of profiler calls made
/// ("events"); the driver times the call.
using Shape = std::uint64_t (*)(ThreadTaskProfiler&, const Regions&,
                                std::uint64_t n);

/// Tight enter/exit of one region: the hot_child happy path and the
/// per-event floor (dominated by the clock read).
std::uint64_t shape_enter_exit_hot(ThreadTaskProfiler& prof, const Regions& r,
                                   std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    prof.enter(r.fn);
    prof.exit(r.fn);
  }
  return 2 * n;
}

/// 256 parameter-distinguished siblings hit round-robin: the promoted
/// child index vs. an O(256) scan per enter.
std::uint64_t shape_enter_exit_wide256(ThreadTaskProfiler& prof,
                                       const Regions& r, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    prof.enter(r.fn, static_cast<std::int64_t>(i % 256));
    prof.exit(r.fn);
  }
  return 2 * n;
}

/// Non-cut-off fib leaves with per-depth parameter profiling (paper
/// Table IV): every task is a single-node instance tree that begins and
/// immediately ends — the leaf merge fast path's case — and the depth
/// parameter spreads the merged roots and barrier stubs over ~40
/// identities, which the baseline engine rescans on every event.
std::uint64_t shape_fib_leaf_tasks(ThreadTaskProfiler& prof, const Regions& r,
                                   std::uint64_t n) {
  prof.enter(r.barrier);
  TaskInstanceId id = 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    // Stride-7 walk over 40 depths: consecutive completions rarely share
    // a depth, as when the scheduler drains interleaved subtrees.
    const auto depth = static_cast<std::int64_t>((i * 7) % 40);
    prof.task_begin(r.task, id, depth);
    prof.task_end(id);
    ++id;
  }
  prof.exit(r.barrier);
  return 2 * n + 2;
}

/// Fib interior nodes under per-depth profiling: create/create/taskwait
/// inside each task, so the instance trees have children and take the
/// general merge into the per-depth merged tree.
std::uint64_t shape_fib_with_creates(ThreadTaskProfiler& prof,
                                     const Regions& r, std::uint64_t n) {
  prof.enter(r.barrier);
  TaskInstanceId id = 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto depth = static_cast<std::int64_t>((i * 7) % 40);
    prof.task_begin(r.task, id, depth);
    prof.enter(r.create);
    prof.exit(r.create);
    prof.enter(r.create);
    prof.exit(r.create);
    prof.enter(r.taskwait);
    prof.exit(r.taskwait);
    prof.task_end(id);
    ++id;
  }
  prof.exit(r.barrier);
  return 8 * n + 2;
}

/// Per-depth parameter profiling (paper Table IV): tasks of 48 different
/// parameter values interleaved, so the merged-root lookup on every
/// task_end misses the last-hit pointer and hundreds of roots accumulate.
std::uint64_t shape_nqueens_param_tasks(ThreadTaskProfiler& prof,
                                        const Regions& r, std::uint64_t n) {
  prof.enter(r.barrier);
  TaskInstanceId id = 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::int64_t>(i % 48);
    prof.task_begin(r.task, id, p);
    prof.enter(r.fn, p);
    prof.exit(r.fn);
    prof.task_end(id);
    ++id;
  }
  prof.exit(r.barrier);
  return 4 * n + 2;
}

struct ShapeSpec {
  const char* name;
  Shape run;
  std::uint64_t n;  ///< iteration count at size=small
};

std::uint64_t scaled(std::uint64_t n, bots::SizeClass size) {
  switch (size) {
    case bots::SizeClass::kTest: return n / 20;
    case bots::SizeClass::kSmall: return n;
    case bots::SizeClass::kMedium: return n * 4;
  }
  return n;
}

struct Measurement {
  std::uint64_t events = 0;
  std::int64_t best_ns = 0;
};

Measurement measure(const ShapeSpec& spec, const MeasureOptions& options,
                    bots::SizeClass size, int reps) {
  Measurement m;
  const std::uint64_t n = std::max<std::uint64_t>(1, scaled(spec.n, size));
  for (int rep = 0; rep < reps; ++rep) {
    Regions r;
    SteadyClock clock;
    ThreadTaskProfiler prof(0, clock, r.implicit, options);
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t events = spec.run(prof, r, n);
    const auto stop = std::chrono::steady_clock::now();
    prof.finalize();
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
            .count();
    m.events = events;
    if (rep == 0 || ns < m.best_ns) m.best_ns = ns;
  }
  if (m.best_ns < 1) m.best_ns = 1;
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::TrajectoryOptions options = bench::parse_trajectory_options(
      argc, argv, "BENCH_event_hotpath.json");

  const ShapeSpec shapes[] = {
      {"enter_exit_hot", shape_enter_exit_hot, 2'000'000},
      {"enter_exit_wide256", shape_enter_exit_wide256, 1'000'000},
      {"fib_leaf_tasks", shape_fib_leaf_tasks, 1'000'000},
      {"fib_with_creates", shape_fib_with_creates, 500'000},
      {"nqueens_param_tasks", shape_nqueens_param_tasks, 500'000},
  };

  MeasureOptions baseline;
  baseline.child_lookup_acceleration = false;
  baseline.leaf_fast_path = false;
  const MeasureOptions fastpath;  // defaults: acceleration on

  JsonWriter json;
  json.begin_object();
  json.field("bench", "event_hotpath");
  json.field("size", bots::size_name(options.size));
  json.field("reps", options.reps);
  json.begin_array("results");

  std::printf("event-engine hot path: events/sec per shape (best of %d)\n\n",
              options.reps);
  std::printf("%-22s %14s %14s %8s\n", "shape", "baseline", "fastpath",
              "speedup");
  for (const ShapeSpec& spec : shapes) {
    const Measurement base = measure(spec, baseline, options.size,
                                     options.reps);
    const Measurement fast = measure(spec, fastpath, options.size,
                                     options.reps);
    const double base_eps = static_cast<double>(base.events) * 1e9 /
                            static_cast<double>(base.best_ns);
    const double fast_eps = static_cast<double>(fast.events) * 1e9 /
                            static_cast<double>(fast.best_ns);
    std::printf("%-22s %14.0f %14.0f %7.2fx\n", spec.name, base_eps, fast_eps,
                fast_eps / base_eps);
    for (int mode = 0; mode < 2; ++mode) {
      const Measurement& m = mode == 0 ? base : fast;
      json.begin_object();
      json.field("shape", spec.name);
      json.field("mode", mode == 0 ? "baseline" : "fastpath");
      json.field("events", m.events);
      json.field("best_ns", m.best_ns);
      json.field("events_per_sec", mode == 0 ? base_eps : fast_eps);
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  if (!bench::write_json(options.out_path, json)) return 1;
  std::printf("\nwrote %s\n", options.out_path.c_str());
  return 0;
}

// Event-engine hot-path trajectory bench (BENCH_event_hotpath.json).
//
// Drives ThreadTaskProfiler, the call-tree node pool and merge, and the
// clocks directly with synthetic streams shaped like the paper's
// workloads — no engine, no scheduler, so the numbers isolate the
// measurement layer itself.  Every shape runs once per rep and reports
// its best rep as ns per event.
//
// `clock_read` (one SteadyClock read, which every profiler event below
// pays once) is the run's floor: tools/check_bench_regression.py caps
// each other shape's ns/event as a multiple of it.  A ratio of two
// numbers timed in the same run depends far less on the host than raw
// ns do.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/clock.hpp"
#include "measure/task_profiler.hpp"
#include "profile/calltree.hpp"
#include "profile/region.hpp"

namespace {

using namespace taskprof;

/// Everything a shape may drive.  Built outside the timed region (the
/// first TscClock of the process calibrates for 5 ms).
struct Fixture {
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
  SteadyClock clock;
  TscClock tsc;
  ThreadTaskProfiler prof{0, clock, implicit};
};

/// One measured stream: returns the number of events it made (profiler
/// calls, nodes merged, pool operations or clock reads, per shape); the
/// caller, measure(), times the call.
using Shape = std::uint64_t (*)(Fixture&, std::uint64_t n);

/// Keeps clock reads observable without a library barrier.
volatile Ticks g_sink = 0;

/// Tight enter/exit of one region: the hot_child happy path.
std::uint64_t shape_enter_exit_hot(Fixture& f, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    f.prof.enter(f.fn);
    f.prof.exit(f.fn);
  }
  return 2 * n;
}

/// The same enter/exit at the leaf of a 16-deep call path.
std::uint64_t shape_enter_exit_deep16(Fixture& f, std::uint64_t n) {
  std::vector<RegionHandle> path;
  for (int i = 0; i < 16; ++i) {
    path.push_back(f.registry.register_region("level" + std::to_string(i),
                                              RegionType::kFunction));
    f.prof.enter(path.back());
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    f.prof.enter(f.fn);
    f.prof.exit(f.fn);
  }
  for (auto it = path.rbegin(); it != path.rend(); ++it) f.prof.exit(*it);
  return 2 * n + 2 * path.size();
}

/// 256 parameter-distinguished siblings hit round-robin, so the
/// hot_child cache misses and the promoted child index answers (a linear
/// scan would average 128 siblings per enter).
std::uint64_t shape_enter_exit_wide256(Fixture& f, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    f.prof.enter(f.fn, static_cast<std::int64_t>(i % 256));
    f.prof.exit(f.fn);
  }
  return 2 * n;
}

/// Non-cut-off fib leaves with per-depth parameter profiling (paper
/// Table IV): every task is a leaf instance that begins and immediately
/// ends, and the depth parameter spreads the construct roots and barrier
/// stubs over ~40 identities.
std::uint64_t shape_fib_leaf_tasks(Fixture& f, std::uint64_t n) {
  f.prof.enter(f.barrier);
  TaskInstanceId id = 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    // Stride-7 walk over 40 depths: consecutive completions rarely share
    // a depth, as when the scheduler drains interleaved subtrees.
    const auto depth = static_cast<std::int64_t>((i * 7) % 40);
    f.prof.task_begin(f.task, id, depth);
    f.prof.task_end(id);
    ++id;
  }
  f.prof.exit(f.barrier);
  return 2 * n + 2;
}

/// Fib interior nodes under per-depth profiling: create/create/taskwait
/// inside each task, so every instance enters child nodes of its
/// per-depth construct tree.
std::uint64_t shape_fib_with_creates(Fixture& f, std::uint64_t n) {
  f.prof.enter(f.barrier);
  TaskInstanceId id = 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto depth = static_cast<std::int64_t>((i * 7) % 40);
    f.prof.task_begin(f.task, id, depth);
    f.prof.enter(f.create);
    f.prof.exit(f.create);
    f.prof.enter(f.create);
    f.prof.exit(f.create);
    f.prof.enter(f.taskwait);
    f.prof.exit(f.taskwait);
    f.prof.task_end(id);
    ++id;
  }
  f.prof.exit(f.barrier);
  return 8 * n + 2;
}

/// Per-depth parameter profiling (paper Table IV): tasks of 48 different
/// parameter values interleaved, so the construct-root lookup on every
/// task_begin misses the last-hit pointer.
std::uint64_t shape_nqueens_param_tasks(Fixture& f, std::uint64_t n) {
  f.prof.enter(f.barrier);
  TaskInstanceId id = 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto p = static_cast<std::int64_t>(i % 48);
    f.prof.task_begin(f.task, id, p);
    f.prof.enter(f.fn, p);
    f.prof.exit(f.fn);
    f.prof.task_end(id);
    ++id;
  }
  f.prof.exit(f.barrier);
  return 4 * n + 2;
}

/// One task with a one-region body per iteration, no parameter: each
/// instance writes its root and one child node of the construct tree.
std::uint64_t shape_task_with_body(Fixture& f, std::uint64_t n) {
  f.prof.enter(f.barrier);
  TaskInstanceId id = 1;
  for (std::uint64_t i = 0; i < n; ++i) {
    f.prof.task_begin(f.task, id);
    f.prof.enter(f.fn);
    f.prof.exit(f.fn);
    f.prof.task_end(id);
    ++id;
  }
  f.prof.exit(f.barrier);
  return 4 * n + 2;
}

/// Two live instances switched back and forth: suspend/resume of the
/// instance state and the stub enter/exit under the barrier.
std::uint64_t shape_task_switch_pingpong(Fixture& f, std::uint64_t n) {
  f.prof.enter(f.barrier);
  f.prof.task_begin(f.task, 1);
  f.prof.task_begin(f.task, 2);
  for (std::uint64_t i = 0; i < n; ++i) {
    f.prof.task_switch(1);
    f.prof.task_switch(2);
  }
  f.prof.task_end(2);
  f.prof.task_switch(1);
  f.prof.task_end(1);
  f.prof.exit(f.barrier);
  return 2 * n + 7;
}

/// Allocate one child node and release it again (two pool operations).
std::uint64_t shape_node_pool_alloc_release(Fixture&, std::uint64_t n) {
  NodePool pool;
  CallNode* root = pool.allocate(0, kNoParameter, false, nullptr);
  for (std::uint64_t i = 0; i < n; ++i) {
    pool.release_subtree(pool.allocate(1, kNoParameter, false, root));
  }
  return 2 * n;
}

/// Merge a root with 4 children into an existing same-shape tree; one
/// event per node merged.
std::uint64_t shape_merge_small(Fixture&, std::uint64_t n) {
  NodePool src_pool;
  CallNode* src = src_pool.allocate(0, kNoParameter, false, nullptr);
  for (RegionHandle r = 1; r <= 4; ++r) {
    CallNode* child = src_pool.allocate(r, kNoParameter, false, src);
    child->inclusive = 10;
    child->visits = 1;
  }
  NodePool dst_pool;
  CallNode* dst = dst_pool.allocate(0, kNoParameter, false, nullptr);
  for (std::uint64_t i = 0; i < n; ++i) {
    merge_subtree(dst_pool, dst, src, {}, {});
  }
  return 5 * n;
}

/// Merge a 64-way parameter fan-out into an existing same-shape tree:
/// every child lookup in the destination hits the promoted index.
std::uint64_t shape_merge_wide64(Fixture&, std::uint64_t n) {
  constexpr std::int64_t kFanout = 64;
  NodePool src_pool;
  CallNode* src = src_pool.allocate(0, kNoParameter, false, nullptr);
  for (std::int64_t p = 0; p < kFanout; ++p) {
    CallNode* child = src_pool.allocate(1, p, false, src);
    child->inclusive = 10;
    child->visits = 1;
    child->visit_stats.add(10);
  }
  NodePool dst_pool;
  CallNode* dst = dst_pool.allocate(0, kNoParameter, false, nullptr);
  merge_subtree(dst_pool, dst, src, {}, {});  // pre-build the destination
  for (std::uint64_t i = 0; i < n; ++i) {
    merge_subtree(dst_pool, dst, src, {}, {});
  }
  return static_cast<std::uint64_t>(kFanout + 1) * n;
}

/// One SteadyClock read: the floor every other shape is divided by.
std::uint64_t shape_clock_read(Fixture& f, std::uint64_t n) {
  Ticks sum = 0;
  for (std::uint64_t i = 0; i < n; ++i) sum += f.clock.now();
  g_sink = sum;
  return n;
}

/// One TscClock read (steady_clock when the CPU lacks an invariant TSC).
std::uint64_t shape_tsc_clock_read(Fixture& f, std::uint64_t n) {
  Ticks sum = 0;
  for (std::uint64_t i = 0; i < n; ++i) sum += f.tsc.now();
  g_sink = sum;
  return n;
}

/// One event as the real engine stamps it: mark a new event, then the
/// first listener's virtual now() reads the TSC and a second listener
/// gets the same stamp.
std::uint64_t shape_event_stamp(Fixture&, std::uint64_t n) {
  EventClock<TscClock> events;
  // Read through a volatile pointer so the calls stay virtual, as a
  // listener's are.
  const Clock* volatile opaque = &events;
  const Clock* clock = opaque;
  Ticks sum = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    events.next_event();
    sum += clock->now();
    sum += clock->now();
  }
  g_sink = sum;
  return n;
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

Measurement measure(const ShapeSpec& spec, bots::SizeClass size, int reps) {
  Measurement m;
  const std::uint64_t n = std::max<std::uint64_t>(1, scaled(spec.n, size));
  for (int rep = 0; rep < reps; ++rep) {
    Fixture f;
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t events = spec.run(f, n);
    const auto stop = std::chrono::steady_clock::now();
    f.prof.finalize();
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
      {"clock_read", shape_clock_read, 4'000'000},
      {"tsc_clock_read", shape_tsc_clock_read, 4'000'000},
      {"event_stamp", shape_event_stamp, 4'000'000},
      {"enter_exit_hot", shape_enter_exit_hot, 2'000'000},
      {"enter_exit_deep16", shape_enter_exit_deep16, 2'000'000},
      {"enter_exit_wide256", shape_enter_exit_wide256, 1'000'000},
      {"fib_leaf_tasks", shape_fib_leaf_tasks, 1'000'000},
      {"fib_with_creates", shape_fib_with_creates, 500'000},
      {"nqueens_param_tasks", shape_nqueens_param_tasks, 500'000},
      {"task_with_body", shape_task_with_body, 500'000},
      {"task_switch_pingpong", shape_task_switch_pingpong, 1'000'000},
      {"node_pool_alloc_release", shape_node_pool_alloc_release, 2'000'000},
      {"merge_small", shape_merge_small, 1'000'000},
      {"merge_wide64", shape_merge_wide64, 200'000},
  };

  JsonWriter json;
  json.begin_object();
  json.field("bench", "event_hotpath");
  json.field("size", bots::size_name(options.size));
  json.field("reps", options.reps);
  json.begin_array("results");

  std::printf("event-engine hot path: ns per event (best of %d)\n\n",
              options.reps);
  std::printf("%-24s %12s %10s %8s\n", "shape", "events", "ns/event",
              "x clock");
  double clock_ns = 0.0;
  for (const ShapeSpec& spec : shapes) {
    const Measurement m = measure(spec, options.size, options.reps);
    const double ns_per_event =
        static_cast<double>(m.best_ns) / static_cast<double>(m.events);
    if (clock_ns == 0.0) clock_ns = ns_per_event;  // clock_read runs first
    std::printf("%-24s %12llu %10.2f %7.2fx\n", spec.name,
                static_cast<unsigned long long>(m.events), ns_per_event,
                ns_per_event / clock_ns);
    json.begin_object();
    json.field("shape", spec.name);
    json.field("events", m.events);
    json.field("best_ns", m.best_ns);
    json.field("ns_per_event", ns_per_event);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  if (!bench::write_json(options.out_path, json)) return 1;
  std::printf("\nwrote %s\n", options.out_path.c_str());
  return 0;
}

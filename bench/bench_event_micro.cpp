// Microbenchmarks of the measurement-layer primitives (google-benchmark):
// the per-event costs that bound the instrumentation overhead the paper
// measures.  Score-P-era profilers aim for O(100 ns) per event; these
// benches verify our primitives are in that class.
#include <benchmark/benchmark.h>

#include "common/clock.hpp"
#include "measure/task_profiler.hpp"
#include "profile/region.hpp"

namespace {

using namespace taskprof;

struct Fixture {
  RegionRegistry registry;
  SteadyClock clock;
  RegionHandle implicit =
      registry.register_region("implicit task", RegionType::kImplicitTask);
  RegionHandle foo = registry.register_region("foo", RegionType::kFunction);
  RegionHandle barrier = registry.register_region(
      "implicit barrier", RegionType::kImplicitBarrier);
  RegionHandle task = registry.register_region("task", RegionType::kTask);
};

void BM_EnterExit(benchmark::State& state) {
  Fixture f;
  ThreadTaskProfiler prof(0, f.clock, f.implicit);
  for (auto _ : state) {
    prof.enter(f.foo);
    prof.exit(f.foo);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_EnterExit);

void BM_EnterExitDeepPath(benchmark::State& state) {
  Fixture f;
  ThreadTaskProfiler prof(0, f.clock, f.implicit);
  // Pre-build a path of depth 16, then measure hot enter/exit at the leaf.
  std::vector<RegionHandle> path;
  for (int i = 0; i < 16; ++i) {
    path.push_back(f.registry.register_region("level" + std::to_string(i),
                                              RegionType::kFunction));
    prof.enter(path.back());
  }
  for (auto _ : state) {
    prof.enter(f.foo);
    prof.exit(f.foo);
  }
  for (auto it = path.rbegin(); it != path.rend(); ++it) prof.exit(*it);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_EnterExitDeepPath);

// Wide fan-out: 256 parameter-distinguished children under one node, hit
// round-robin so the hot_child cache misses and the lookup cost is what's
// measured.  `accelerated=false` pins the engine to the plain sibling
// scan for the A/B.
void BM_EnterExitWideFanout(benchmark::State& state) {
  Fixture f;
  const bool accelerated = state.range(0) != 0;
  MeasureOptions options;
  options.child_lookup_acceleration = accelerated;
  ThreadTaskProfiler prof(0, f.clock, f.implicit, options);
  constexpr std::int64_t kFanout = 256;
  std::int64_t p = 0;
  for (auto _ : state) {
    prof.enter(f.foo, p);
    prof.exit(f.foo);
    p = (p + 1) % kFanout;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
  state.SetLabel(accelerated ? "indexed" : "linear-scan");
}
BENCHMARK(BM_EnterExitWideFanout)->Arg(1)->Arg(0);

void BM_TaskBeginEnd(benchmark::State& state) {
  Fixture f;
  ThreadTaskProfiler prof(0, f.clock, f.implicit);
  prof.enter(f.barrier);
  TaskInstanceId id = 1;
  for (auto _ : state) {
    prof.task_begin(f.task, id);
    prof.task_end(id);
    ++id;
  }
  prof.exit(f.barrier);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TaskBeginEnd);

// Same leaf-task stream with the merge fast path disabled: the delta is
// what the general merge walk costs per single-node instance tree.
void BM_TaskBeginEndNoLeafFastPath(benchmark::State& state) {
  Fixture f;
  MeasureOptions options;
  options.leaf_fast_path = false;
  ThreadTaskProfiler prof(0, f.clock, f.implicit, options);
  prof.enter(f.barrier);
  TaskInstanceId id = 1;
  for (auto _ : state) {
    prof.task_begin(f.task, id);
    prof.task_end(id);
    ++id;
  }
  prof.exit(f.barrier);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TaskBeginEndNoLeafFastPath);

void BM_TaskBeginEndWithBody(benchmark::State& state) {
  Fixture f;
  ThreadTaskProfiler prof(0, f.clock, f.implicit);
  prof.enter(f.barrier);
  TaskInstanceId id = 1;
  for (auto _ : state) {
    prof.task_begin(f.task, id);
    prof.enter(f.foo);
    prof.exit(f.foo);
    prof.task_end(id);
    ++id;
  }
  prof.exit(f.barrier);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_TaskBeginEndWithBody);

void BM_TaskSwitchPingPong(benchmark::State& state) {
  Fixture f;
  ThreadTaskProfiler prof(0, f.clock, f.implicit);
  prof.enter(f.barrier);
  prof.task_begin(f.task, 1);
  prof.task_begin(f.task, 2);
  for (auto _ : state) {
    prof.task_switch(1);
    prof.task_switch(2);
  }
  prof.task_end(2);
  prof.task_switch(1);
  prof.task_end(1);
  prof.exit(f.barrier);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_TaskSwitchPingPong);

void BM_NodePoolAllocateRelease(benchmark::State& state) {
  NodePool pool;
  CallNode* root = pool.allocate(0, kNoParameter, false, nullptr);
  for (auto _ : state) {
    CallNode* node = pool.allocate(1, kNoParameter, false, root);
    pool.release_subtree(node);
    benchmark::DoNotOptimize(node);
  }
}
BENCHMARK(BM_NodePoolAllocateRelease);

void BM_MergeSmallTree(benchmark::State& state) {
  NodePool src_pool;
  CallNode* src = src_pool.allocate(0, kNoParameter, false, nullptr);
  for (RegionHandle r = 1; r <= 4; ++r) {
    CallNode* child = src_pool.allocate(r, kNoParameter, false, src);
    child->inclusive = 10;
    child->visits = 1;
  }
  NodePool dst_pool;
  CallNode* dst = dst_pool.allocate(0, kNoParameter, false, nullptr);
  for (auto _ : state) {
    merge_subtree(dst_pool, dst, src);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 5);
}
BENCHMARK(BM_MergeSmallTree);

// Merging a 64-way parameter fan-out into an existing same-shape tree:
// every child lookup in the destination hits the promoted index (or, at
// Arg(0), the linear scan).
void BM_MergeWideTree(benchmark::State& state) {
  const bool accelerated = state.range(0) != 0;
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
  dst_pool.set_lookup_acceleration(accelerated);
  CallNode* dst = dst_pool.allocate(0, kNoParameter, false, nullptr);
  merge_subtree(dst_pool, dst, src);  // pre-build the destination shape
  for (auto _ : state) {
    merge_subtree(dst_pool, dst, src);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          (kFanout + 1));
  state.SetLabel(accelerated ? "indexed" : "linear-scan");
}
BENCHMARK(BM_MergeWideTree)->Arg(1)->Arg(0);

void BM_ClockRead(benchmark::State& state) {
  SteadyClock clock;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.now());
  }
}
BENCHMARK(BM_ClockRead);

void BM_TscClockRead(benchmark::State& state) {
  const TscClock clock;
  state.SetLabel(clock.uses_tsc() ? "tsc" : "steady_clock fallback");
  for (auto _ : state) {
    benchmark::DoNotOptimize(clock.now());
  }
}
BENCHMARK(BM_TscClockRead);

/// One event as the real engine stamps it: mark a new event, then the
/// first listener's virtual now() reads the source and a second listener
/// gets the same stamp.
void BM_EventStamp(benchmark::State& state) {
  EventClock<TscClock> events;
  const Clock* clock = &events;
  benchmark::DoNotOptimize(clock);  // keep the calls virtual
  for (auto _ : state) {
    events.next_event();
    benchmark::DoNotOptimize(clock->now());
    benchmark::DoNotOptimize(clock->now());
  }
}
BENCHMARK(BM_EventStamp);

}  // namespace

BENCHMARK_MAIN();

// Tests for the scheduler-telemetry registry (src/telemetry): concurrent
// counter recording, monotonic gauges, snapshot aggregation, the JSON
// export, the sampled TimedHooks self-timing decorator (exact counts,
// exact constant-cost totals, no aliasing with periodic costs), and
// end-to-end agreement with the always-on TeamStats when attached to the
// real engine.
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "rt/real_runtime.hpp"
#include "rt/sim_runtime.hpp"
#include "rt/task_context.hpp"
#include "test_util.hpp"

namespace taskprof {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Registry;
using telemetry::Snapshot;

TEST(TelemetryRegistry, SingleThreadCountsExactly) {
  Registry registry;
  registry.prepare(2);
  registry.add(0, Counter::kTasksCreated);
  registry.add(0, Counter::kTasksCreated, 4);
  registry.add(1, Counter::kTasksCreated, 10);
  registry.add(1, Counter::kStealAttempts, 3);

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.threads, 2);
  EXPECT_EQ(snap.counter(Counter::kTasksCreated), 15u);
  EXPECT_EQ(snap.counter(Counter::kStealAttempts), 3u);
  EXPECT_EQ(snap.counter(Counter::kTasksExecuted), 0u);
  ASSERT_EQ(snap.per_thread.size(), 2u);
  EXPECT_EQ(snap.per_thread[0][static_cast<std::size_t>(
                Counter::kTasksCreated)],
            5u);
  EXPECT_EQ(snap.per_thread[1][static_cast<std::size_t>(
                Counter::kTasksCreated)],
            10u);
}

TEST(TelemetryRegistry, GaugesKeepHighWater) {
  Registry registry;
  registry.prepare(2);
  registry.gauge_max(0, Gauge::kDequeDepth, 5);
  registry.gauge_max(0, Gauge::kDequeDepth, 3);  // lower: ignored
  registry.gauge_max(0, Gauge::kDequeDepth, 9);
  registry.gauge_max(1, Gauge::kDequeDepth, 7);

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.gauge(Gauge::kDequeDepth), 9u);  // max over threads

  registry.reset();
  const Snapshot zero = registry.snapshot();
  EXPECT_EQ(zero.gauge(Gauge::kDequeDepth), 0u);
  EXPECT_EQ(zero.counter(Counter::kTasksCreated), 0u);
}

TEST(TelemetryRegistry, PrepareKeepsExistingCounts) {
  Registry registry;
  registry.prepare(1);
  registry.add(0, Counter::kTasksCreated, 7);
  registry.prepare(4);  // grow: existing block untouched
  EXPECT_EQ(registry.thread_capacity(), 4);
  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter(Counter::kTasksCreated), 7u);
}

// Each thread hammers its own block while the main thread snapshots
// concurrently.  Snapshots must never crash or read torn values larger
// than the final total; the final (quiescent) snapshot must be exact.
TEST(TelemetryRegistry, ConcurrentIncrementAndSnapshot) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 200000;
  Registry registry;
  registry.prepare(kThreads);

  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, &go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        registry.add(t, Counter::kTasksCreated);
        registry.gauge_max(t, Gauge::kDequeDepth, i % 97);
      }
    });
  }
  go.store(true, std::memory_order_release);

  // Concurrent snapshots: monotonically growing, never over the total.
  std::uint64_t last = 0;
  for (int i = 0; i < 50; ++i) {
    const Snapshot snap = registry.snapshot();
    const std::uint64_t seen = snap.counter(Counter::kTasksCreated);
    EXPECT_GE(seen, last);
    EXPECT_LE(seen, kPerThread * kThreads);
    last = seen;
  }
  for (auto& w : workers) w.join();

  const Snapshot final_snap = registry.snapshot();
  EXPECT_EQ(final_snap.counter(Counter::kTasksCreated),
            kPerThread * kThreads);
  EXPECT_EQ(final_snap.gauge(Gauge::kDequeDepth), 96u);
}

TEST(TelemetrySnapshot, DerivedRates) {
  Registry registry;
  registry.prepare(1);
  registry.add(0, Counter::kStealAttempts, 8);
  registry.add(0, Counter::kStealSuccesses, 2);
  registry.add(0, Counter::kHookEvents, 4);
  registry.add(0, Counter::kHookTicks, 100);

  const Snapshot snap = registry.snapshot();
  EXPECT_DOUBLE_EQ(snap.steal_success_rate(), 0.25);
  EXPECT_DOUBLE_EQ(snap.hook_mean_ticks(), 25.0);

  const Snapshot empty = Registry().snapshot();
  EXPECT_DOUBLE_EQ(empty.steal_success_rate(), 0.0);
  EXPECT_DOUBLE_EQ(empty.hook_mean_ticks(), 0.0);
}

TEST(TelemetrySnapshot, JsonExportContainsCountersAndDerived) {
  Registry registry;
  registry.prepare(2);
  registry.add(0, Counter::kTasksCreated, 3);
  registry.add(1, Counter::kStealAttempts, 4);
  registry.add(1, Counter::kStealSuccesses, 1);
  registry.gauge_max(0, Gauge::kDequeDepth, 11);

  const std::string json = telemetry::snapshot_to_json(registry.snapshot());
  EXPECT_NE(json.find("\"threads\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"tasks_created\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"deque_depth_hwm\": 11"), std::string::npos);
  EXPECT_NE(json.find("\"steal_success_rate\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("\"per_thread\""), std::string::npos);
  // Crude structural sanity: balanced braces/brackets.
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(TelemetryNames, AllEnumeratorsNamed) {
  for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
    EXPECT_FALSE(
        telemetry::counter_name(static_cast<Counter>(i)).empty());
  }
  for (std::size_t i = 0; i < telemetry::kGaugeCount; ++i) {
    EXPECT_FALSE(telemetry::gauge_name(static_cast<Gauge>(i)).empty());
  }
}

// Inner hooks that count every callback forwarded to them and, given a
// ManualClock, advance it by cost(n) on the n-th one, so TimedHooks'
// estimate can be checked against the true total.  With a clock they
// must stay on one OS thread (the simulator, or direct calls); without
// one they only count, from any number of threads.
class CostHooks final : public rt::SchedulerHooks {
 public:
  using CostFn = Ticks (*)(std::uint64_t n);

  explicit CostHooks(ManualClock* clock = nullptr, CostFn cost = nullptr)
      : clock_(clock), cost_(cost) {}

  [[nodiscard]] std::uint64_t forwarded() const noexcept {
    return forwarded_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t true_ticks() const noexcept { return ticks_; }

  void on_parallel_begin(int) override { charge(); }
  void on_parallel_end() override { charge(); }
  void on_implicit_task_begin(ThreadId, const Clock&) override { charge(); }
  void on_implicit_task_end(ThreadId) override { charge(); }
  void on_task_create_begin(ThreadId, RegionHandle, std::int64_t) override {
    charge();
  }
  void on_task_create_end(ThreadId, TaskInstanceId, RegionHandle,
                          std::int64_t) override {
    charge();
  }
  void on_task_begin(ThreadId, TaskInstanceId, RegionHandle,
                     std::int64_t) override {
    charge();
  }
  void on_task_end(ThreadId, TaskInstanceId) override { charge(); }
  void on_task_switch(ThreadId, TaskInstanceId) override { charge(); }
  void on_task_migrate(ThreadId, ThreadId, TaskInstanceId) override {
    charge();
  }
  void on_task_work(ThreadId, Ticks) override { charge(); }
  void on_taskwait_begin(ThreadId) override { charge(); }
  void on_taskwait_end(ThreadId) override { charge(); }
  void on_barrier_begin(ThreadId, bool) override { charge(); }
  void on_barrier_end(ThreadId, bool) override { charge(); }
  void on_region_enter(ThreadId, RegionHandle, std::int64_t) override {
    charge();
  }
  void on_region_exit(ThreadId, RegionHandle) override { charge(); }
  void on_scheduler_note(ThreadId, rt::SchedulerNote,
                         std::int64_t) override {
    charge();
  }

 private:
  void charge() noexcept {
    const std::uint64_t n =
        forwarded_.fetch_add(1, std::memory_order_relaxed);
    if (clock_ == nullptr) return;
    const Ticks cost = cost_(n);
    clock_->advance(cost);
    ticks_ += static_cast<std::uint64_t>(cost);
  }

  ManualClock* clock_;
  CostFn cost_;
  std::atomic<std::uint64_t> forwarded_{0};
  std::uint64_t ticks_ = 0;
};

using testutil::spawn_tree;

std::uint64_t hook_events(const Registry& registry) {
  return registry.snapshot().counter(Counter::kHookEvents);
}

// The engine contract: on_parallel_begin sizes the samplers, the region's
// boundary callbacks close every open gap, and a note fired after
// on_parallel_end (the real engine's residue sweep) closes its own.
TEST(TimedHooks, ChargesInnerCallbackTimeToRegistry) {
  Registry registry;
  ManualClock clock;
  CostHooks inner(&clock, [](std::uint64_t) -> Ticks { return 10; });
  telemetry::TimedHooks timed(&inner, &registry, &clock);

  timed.on_parallel_begin(2);
  timed.on_implicit_task_begin(0, clock);
  timed.on_implicit_task_begin(1, clock);
  timed.on_task_begin(0, 1, 0, kNoParameter);
  timed.on_task_end(0, 1);
  timed.on_task_migrate(0, 1, 2);  // runs on the destination, thread 1
  timed.on_task_switch(1, 2);
  timed.on_implicit_task_end(1);
  timed.on_implicit_task_end(0);
  timed.on_parallel_end();
  timed.on_scheduler_note(0, rt::SchedulerNote::kTaskgraphDivergeResidue, 3);

  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter(Counter::kHookEvents), 11u);
  EXPECT_EQ(snap.counter(Counter::kHookTicks), 110u);
  EXPECT_DOUBLE_EQ(snap.hook_mean_ticks(), 10.0);
  ASSERT_EQ(snap.per_thread.size(), 2u);
  const auto events = static_cast<std::size_t>(Counter::kHookEvents);
  EXPECT_EQ(snap.per_thread[0][events], 7u);  // begin/end, 3 task, note
  EXPECT_EQ(snap.per_thread[1][events], 4u);  // migrate charged to `to`
}

// A callback of constant cost makes every gap's estimate exact, so on the
// simulator the sampled total equals the true one, and the count equals
// the callbacks forwarded, after every region at every team size.
TEST(TimedHooks, ConstantCostIsEstimatedExactly) {
  constexpr Ticks kCost = 7;
  rt::TaskAttrs untied;
  untied.binding = rt::TaskBinding::kUntied;
  std::uint64_t migrations = 0;
  for (int threads = 1; threads <= 4; ++threads) {
    SCOPED_TRACE(threads);
    ManualClock clock;
    CostHooks inner(&clock, [](std::uint64_t) -> Ticks { return kCost; });
    Registry registry;
    telemetry::TimedHooks timed(&inner, &registry, &clock);
    rt::SimRuntime runtime;
    runtime.set_hooks(&timed);
    runtime.set_telemetry(&registry);
    for (int region = 0; region < 3; ++region) {
      (void)runtime.parallel(threads, [region, untied](rt::TaskContext& ctx) {
        if (ctx.single()) spawn_tree(ctx, 6 + region, untied);
      });
      const Snapshot snap = registry.snapshot();
      EXPECT_EQ(snap.counter(Counter::kHookEvents), inner.forwarded());
      EXPECT_EQ(snap.counter(Counter::kHookTicks),
                kCost * snap.counter(Counter::kHookEvents));
      EXPECT_EQ(snap.counter(Counter::kHookTicks), inner.true_ticks());
    }
    runtime.set_hooks(nullptr);
    runtime.set_telemetry(nullptr);
    migrations += registry.snapshot().counter(Counter::kMigrations);
  }
  // Untied resumptions moved tasks, so on_task_migrate was exercised.
  EXPECT_GT(migrations, 0u);
}

// Costs that cycle with the callback index: random gaps land on every
// phase, so the estimated mean tracks the true one.  A fixed stride of 64
// would sample a single phase of each cycle, reading 10 or 30 instead of
// 20 for periods 2 and 64 -- the aliasing the random gaps exist to avoid.
template <std::uint64_t kPeriod>
Ticks cyclic_cost(std::uint64_t n) {
  return 10 + static_cast<Ticks>(20 * (n % kPeriod) / (kPeriod - 1));
}

void expect_unaliased(CostHooks::CostFn cost) {
  constexpr int kCallbacks = 1 << 19;
  ManualClock clock;
  CostHooks inner(&clock, cost);
  Registry registry;
  telemetry::TimedHooks timed(&inner, &registry, &clock);
  timed.on_parallel_begin(1);
  timed.on_implicit_task_begin(0, clock);
  for (int i = 0; i < kCallbacks; ++i) {
    timed.on_task_switch(0, static_cast<TaskInstanceId>(i));
  }
  timed.on_implicit_task_end(0);
  timed.on_parallel_end();

  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counter(Counter::kHookEvents), inner.forwarded());
  const double truth = static_cast<double>(inner.true_ticks()) /
                       static_cast<double>(inner.forwarded());
  EXPECT_NEAR(snap.hook_mean_ticks(), truth, 0.03 * truth);
}

TEST(TimedHooks, RandomGapsDoNotAliasWithPeriodicCosts) {
  {
    SCOPED_TRACE("period 2");
    expect_unaliased(&cyclic_cost<2>);
  }
  {
    SCOPED_TRACE("period 6");
    expect_unaliased(&cyclic_cost<6>);
  }
  {
    SCOPED_TRACE("period 64");
    expect_unaliased(&cyclic_cost<64>);
  }
}

// kHookEvents counts every forwarded callback exactly once a region ends,
// on the real engine too, and through taskgraph record, replay and
// divergence.
TEST(TimedHooks, CountsEveryCallbackOnTheRealEngine) {
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    CostHooks inner;
    Registry registry;
    telemetry::TimedHooks timed(&inner, &registry);
    rt::RealRuntime runtime;
    runtime.set_hooks(&timed);
    runtime.set_telemetry(&registry);
    for (int region = 0; region < 3; ++region) {
      (void)runtime.parallel(threads, [region](rt::TaskContext& ctx) {
        if (ctx.single()) spawn_tree(ctx, 5 + region, {});
      });
      EXPECT_EQ(hook_events(registry), inner.forwarded());
    }
    runtime.set_hooks(nullptr);
    runtime.set_telemetry(nullptr);
    EXPECT_GT(registry.snapshot().counter(Counter::kHookTicks), 0u);
  }
}

TEST(TimedHooks, CountsEveryCallbackThroughTaskgraphDivergence) {
  rt::RealConfig config;
  config.scheduler = rt::SchedulerKind::kTaskGraph;
  rt::RealRuntime runtime(config);
  CostHooks inner;
  Registry registry;
  telemetry::TimedHooks timed(&inner, &registry);
  runtime.set_hooks(&timed);
  runtime.set_telemetry(&registry);
  // The residue note, fired after on_parallel_end, needs graph slots that
  // no detectable divergence cancelled; no program here reaches that
  // sweep, so ChargesInnerCallbackTimeToRegistry drives its order.
  for (const int depth : testutil::kTaskgraphDivergenceDepths) {
    (void)runtime.parallel(4, [depth](rt::TaskContext& ctx) {
      if (ctx.single()) spawn_tree(ctx, depth, {});
    });
    EXPECT_EQ(hook_events(registry), inner.forwarded()) << depth;
  }
  runtime.set_hooks(nullptr);
  runtime.set_telemetry(nullptr);
  const Snapshot snap = registry.snapshot();
  EXPECT_GE(snap.counter(Counter::kTaskgraphDivergences), 1u);
  EXPECT_GE(snap.counter(Counter::kTaskgraphFallbacks), 1u);
}

TEST(TimedHooks, ParallelBeginPreparesRegistry) {
  Registry registry;
  rt::SchedulerHooks inner;  // all no-ops
  telemetry::TimedHooks timed(&inner, &registry);
  timed.on_parallel_begin(3);
  EXPECT_GE(registry.thread_capacity(), 3);
}

// End-to-end on the real engine: deep telemetry must agree with the
// always-on TeamStats summary for the shared quantities.
TEST(TelemetryEndToEnd, ChaseLevMatchesTeamStats) {
  rt::RealRuntime runtime;
  Registry registry;
  runtime.set_telemetry(&registry);

  constexpr int kTasks = 200;
  std::atomic<int> ran{0};
  const rt::TeamStats stats =
      runtime.parallel(4, [&ran](rt::TaskContext& ctx) {
        if (ctx.thread_id() != 0) return;
        for (int i = 0; i < kTasks; ++i) {
          ctx.create_task(
              [&ran](rt::TaskContext&) {
                ran.fetch_add(1, std::memory_order_relaxed);
              },
              {});
        }
        ctx.taskwait();
      });
  runtime.set_telemetry(nullptr);

  EXPECT_EQ(ran.load(), kTasks);
  const Snapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counter(Counter::kTasksCreated), stats.tasks_created);
  EXPECT_EQ(snap.counter(Counter::kTasksCreated),
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(snap.counter(Counter::kTasksExecuted),
            stats.tasks_executed);
  EXPECT_EQ(snap.counter(Counter::kStealAttempts), stats.steal_attempts);
  EXPECT_EQ(snap.counter(Counter::kStealSuccesses), stats.steals);
  EXPECT_LE(snap.counter(Counter::kStealSuccesses),
            snap.counter(Counter::kStealAttempts));
  // Every created task got a slab record, and all were returned.
  EXPECT_EQ(snap.counter(Counter::kSlabAllocs),
            static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(snap.counter(Counter::kSlabRecycles),
            static_cast<std::uint64_t>(kTasks));
  EXPECT_GE(snap.gauge(Gauge::kSlabRecords), 1u);
  EXPECT_GE(snap.counter(Counter::kTaskwaitEntries), 1u);
  EXPECT_GE(snap.counter(Counter::kBarrierEntries), 4u);
}

TEST(TelemetryEndToEnd, NoSinkMeansNoRegistryTouches) {
  // Running without set_telemetry must leave a separate registry empty
  // (nothing global leaks) and still fill TeamStats.
  rt::RealRuntime runtime;
  Registry registry;  // never attached
  std::atomic<int> ran{0};
  const rt::TeamStats stats =
      runtime.parallel(2, [&ran](rt::TaskContext& ctx) {
        if (ctx.thread_id() != 0) return;
        for (int i = 0; i < 10; ++i) {
          ctx.create_task(
              [&ran](rt::TaskContext&) {
                ran.fetch_add(1, std::memory_order_relaxed);
              },
              {});
        }
        ctx.taskwait();
      });
  EXPECT_EQ(ran.load(), 10);
  EXPECT_EQ(stats.tasks_created, 10u);
  EXPECT_EQ(registry.snapshot().counter(Counter::kTasksCreated), 0u);
}

}  // namespace
}  // namespace taskprof

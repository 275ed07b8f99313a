#include "rt/real_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "check/invariants.hpp"
#include "common/clock.hpp"
#include "instrument/instrumentor.hpp"
#include "profile/region.hpp"
#include "test_util.hpp"
#include "trace/recorder.hpp"

namespace taskprof {
namespace {

rt::TaskAttrs attrs_for(RegionHandle region) {
  rt::TaskAttrs attrs;
  attrs.region = region;
  return attrs;
}

class RealRuntimeTest : public ::testing::Test {
 protected:
  RegionRegistry registry_;
  RegionHandle task_ = registry_.register_region("t", RegionType::kTask);
  rt::RealRuntime runtime_;
};

TEST_F(RealRuntimeTest, RejectsNonPositiveThreadCount) {
  EXPECT_THROW(runtime_.parallel(0, [](rt::TaskContext&) {}),
               std::invalid_argument);
  EXPECT_THROW(runtime_.parallel(-3, [](rt::TaskContext&) {}),
               std::invalid_argument);
}

TEST_F(RealRuntimeTest, BodyRunsOncePerThread) {
  std::atomic<int> bodies{0};
  std::mutex mutex;
  std::set<ThreadId> threads;
  runtime_.parallel(4, [&](rt::TaskContext& ctx) {
    bodies.fetch_add(1);
    std::scoped_lock lock(mutex);
    threads.insert(ctx.thread_id());
    EXPECT_EQ(ctx.num_threads(), 4);
  });
  EXPECT_EQ(bodies.load(), 4);
  EXPECT_EQ(threads, (std::set<ThreadId>{0, 1, 2, 3}));
}

TEST_F(RealRuntimeTest, SingleClaimsExactlyOneThreadPerEncounter) {
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  runtime_.parallel(4, [&](rt::TaskContext& ctx) {
    if (ctx.single()) first.fetch_add(1);
    ctx.barrier();
    if (ctx.single()) second.fetch_add(1);
  });
  EXPECT_EQ(first.load(), 1);
  EXPECT_EQ(second.load(), 1);
}

TEST_F(RealRuntimeTest, ImplicitBarrierDrainsAllTasks) {
  constexpr int kTasks = 200;
  std::atomic<int> executed{0};
  auto stats = runtime_.parallel(3, [&](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int i = 0; i < kTasks; ++i) {
      ctx.create_task([&executed](rt::TaskContext&) { executed.fetch_add(1); },
                      attrs_for(task_));
    }
  });
  EXPECT_EQ(executed.load(), kTasks);
  EXPECT_EQ(stats.tasks_executed, static_cast<std::uint64_t>(kTasks));
}

TEST_F(RealRuntimeTest, TaskwaitWaitsForDirectChildren) {
  std::atomic<int> children_done{0};
  bool observed_after_wait = false;
  runtime_.parallel(4, [&](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    ctx.create_task(
        [&](rt::TaskContext& inner) {
          for (int i = 0; i < 10; ++i) {
            inner.create_task(
                [&children_done](rt::TaskContext&) {
                  children_done.fetch_add(1);
                },
                attrs_for(task_));
          }
          inner.taskwait();
          observed_after_wait = children_done.load() == 10;
        },
        attrs_for(task_));
    ctx.taskwait();
  });
  EXPECT_TRUE(observed_after_wait);
}

TEST_F(RealRuntimeTest, RecursiveTaskTreeComputesCorrectly) {
  std::function<void(rt::TaskContext&, int, long*)> fib =
      [&fib, this](rt::TaskContext& ctx, int n, long* out) {
        if (n < 2) {
          *out = n;
          return;
        }
        long a = 0;
        long b = 0;
        ctx.create_task([&fib, n, &a](rt::TaskContext& c) { fib(c, n - 1, &a); },
                        attrs_for(task_));
        ctx.create_task([&fib, n, &b](rt::TaskContext& c) { fib(c, n - 2, &b); },
                        attrs_for(task_));
        ctx.taskwait();
        *out = a + b;
      };
  long result = 0;
  runtime_.parallel(4, [&](rt::TaskContext& ctx) {
    if (ctx.single()) {
      fib(ctx, 15, &result);
    }
  });
  EXPECT_EQ(result, 610);
}

TEST_F(RealRuntimeTest, UndeferredTaskRunsInsideCreate) {
  bool ran_inline = false;
  runtime_.parallel(2, [&](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    rt::TaskAttrs attrs = attrs_for(task_);
    attrs.undeferred = true;
    ctx.create_task([&ran_inline](rt::TaskContext&) { ran_inline = true; },
                    attrs);
    // Undeferred semantics: complete before create_task returns.
    EXPECT_TRUE(ran_inline);
  });
}

TEST_F(RealRuntimeTest, UndeferredTasksCanNestAndWait) {
  int value = 0;
  runtime_.parallel(2, [&](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    rt::TaskAttrs undeferred = attrs_for(task_);
    undeferred.undeferred = true;
    ctx.create_task(
        [&value, this](rt::TaskContext& inner) {
          inner.create_task([&value](rt::TaskContext&) { value += 5; },
                            attrs_for(task_));
          inner.taskwait();
          value *= 2;
        },
        undeferred);
  });
  EXPECT_EQ(value, 10);
}

TEST_F(RealRuntimeTest, ExplicitBarrierSynchronizesPhases) {
  constexpr int kThreads = 4;
  std::atomic<int> phase1{0};
  std::atomic<bool> ordering_ok{true};
  runtime_.parallel(kThreads, [&](rt::TaskContext& ctx) {
    phase1.fetch_add(1);
    ctx.barrier();
    if (phase1.load() != kThreads) ordering_ok.store(false);
  });
  EXPECT_TRUE(ordering_ok.load());
}

TEST_F(RealRuntimeTest, TasksCanBeStolenByOtherThreads) {
  // The creator busy-waits outside any scheduling point, so only the
  // other thread (draining tasks at its implicit barrier) can run the
  // task: a guaranteed steal, deterministic even on a one-core host.
  std::atomic<bool> done{false};
  std::atomic<ThreadId> executor{99};
  auto stats = runtime_.parallel(2, [&](rt::TaskContext& ctx) {
    if (ctx.thread_id() != 0) return;
    ctx.create_task(
        [&](rt::TaskContext& inner) {
          executor.store(inner.thread_id());
          done.store(true);
        },
        attrs_for(task_));
    while (!done.load()) std::this_thread::yield();
  });
  EXPECT_EQ(executor.load(), 1u);
  EXPECT_EQ(stats.steals, 1u);
  EXPECT_EQ(stats.tasks_executed, 1u);
}

TEST_F(RealRuntimeTest, OversubscribedManyThreadsStillCompletes) {
  std::atomic<int> executed{0};
  runtime_.parallel(8, [&](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int i = 0; i < 100; ++i) {
      ctx.create_task([&executed](rt::TaskContext&) { executed.fetch_add(1); },
                      attrs_for(task_));
    }
  });
  EXPECT_EQ(executed.load(), 100);
}

TEST_F(RealRuntimeTest, SequentialParallelRegionsAreIndependent) {
  for (int round = 0; round < 3; ++round) {
    std::atomic<int> executed{0};
    runtime_.parallel(2, [&](rt::TaskContext& ctx) {
      if (!ctx.single()) return;
      for (int i = 0; i < 50; ++i) {
        ctx.create_task(
            [&executed](rt::TaskContext&) { executed.fetch_add(1); },
            attrs_for(task_));
      }
    });
    EXPECT_EQ(executed.load(), 50);
  }
}

TEST_F(RealRuntimeTest, HooksSeeBalancedEventsSingleThread) {
  testutil::RecordingHooks hooks;
  runtime_.set_hooks(&hooks);
  runtime_.parallel(1, [&](rt::TaskContext& ctx) {
    ctx.create_task([](rt::TaskContext& inner) { inner.taskwait(); },
                    attrs_for(task_));
    ctx.create_task([](rt::TaskContext&) {}, attrs_for(task_));
  });
  runtime_.set_hooks(nullptr);

  EXPECT_EQ(hooks.count("parallel_begin"), 1u);
  EXPECT_EQ(hooks.count("parallel_end"), 1u);
  EXPECT_EQ(hooks.count("implicit_begin"), 1u);
  EXPECT_EQ(hooks.count("implicit_end"), 1u);
  EXPECT_EQ(hooks.count("create_begin"), 2u);
  EXPECT_EQ(hooks.count("create_end"), 2u);
  EXPECT_EQ(hooks.count("task_begin"), 2u);
  EXPECT_EQ(hooks.count("task_end"), 2u);
  EXPECT_EQ(hooks.count("taskwait_begin"), hooks.count("taskwait_end"));
  EXPECT_EQ(hooks.count("ibarrier_begin"), 1u);
  EXPECT_EQ(hooks.count("ibarrier_end"), 1u);

  // Instance ids announced at creation match execution.
  std::set<TaskInstanceId> created;
  std::set<TaskInstanceId> begun;
  for (const auto& event : hooks.events()) {
    if (event.kind == "create_end") created.insert(event.id);
    if (event.kind == "task_begin") begun.insert(event.id);
  }
  EXPECT_EQ(created, begun);
  EXPECT_EQ(created.size(), 2u);
}

TEST_F(RealRuntimeTest, RegionEventsRouteToHooks) {
  testutil::RecordingHooks hooks;
  runtime_.set_hooks(&hooks);
  const RegionHandle foo =
      registry_.register_region("foo", RegionType::kFunction);
  runtime_.parallel(1, [&](rt::TaskContext& ctx) {
    rt::ScopedRegion region(ctx, foo);
    ctx.work(100);  // no-op on the real engine
  });
  runtime_.set_hooks(nullptr);
  EXPECT_EQ(hooks.count("region_enter"), 1u);
  EXPECT_EQ(hooks.count("region_exit"), 1u);
}

TEST_F(RealRuntimeTest, ParallelTicksArePositive) {
  auto stats = runtime_.parallel(2, [](rt::TaskContext&) {});
  EXPECT_GT(stats.parallel_ticks, 0);
  EXPECT_GT(runtime_.now(), 0);
}

// --- Event clocks: one stamp per scheduler event -------------------------

/// Reads, in every thread-bound callback, the Clock& its thread was handed
/// and keeps the stamp; then busy-waits `wait` ns of steady time.  Each
/// thread writes only its own slot, sized at on_parallel_begin.
class StampProbe final : public rt::SchedulerHooks {
 public:
  struct Stamp {
    std::string_view kind;
    Ticks time = 0;
  };

  explicit StampProbe(Ticks wait = 0) : wait_(wait) {}

  [[nodiscard]] const std::vector<Stamp>& stamps(ThreadId thread) const {
    return slots_[thread].stamps;
  }
  [[nodiscard]] std::size_t threads() const noexcept { return slots_.size(); }
  [[nodiscard]] std::set<std::string_view> kinds() const {
    std::set<std::string_view> out;
    for (const Slot& slot : slots_) {
      for (const Stamp& s : slot.stamps) out.insert(s.kind);
    }
    return out;
  }
  [[nodiscard]] std::size_t count(std::string_view kind) const {
    std::size_t n = 0;
    for (const Slot& slot : slots_) {
      for (const Stamp& s : slot.stamps) n += s.kind == kind ? 1 : 0;
    }
    return n;
  }

  void on_parallel_begin(int n) override {
    if (slots_.size() < static_cast<std::size_t>(n)) slots_.resize(n);
  }
  void on_implicit_task_begin(ThreadId t, const Clock& clock) override {
    slots_[t].clock = &clock;
    stamp(t, "implicit_begin");
  }
  void on_implicit_task_end(ThreadId t) override { stamp(t, "implicit_end"); }
  void on_task_create_begin(ThreadId t, RegionHandle, std::int64_t) override {
    stamp(t, "create_begin");
  }
  void on_task_create_end(ThreadId t, TaskInstanceId, RegionHandle,
                          std::int64_t) override {
    stamp(t, "create_end");
  }
  void on_task_begin(ThreadId t, TaskInstanceId, RegionHandle,
                     std::int64_t) override {
    stamp(t, "task_begin");
  }
  void on_task_end(ThreadId t, TaskInstanceId) override {
    stamp(t, "task_end");
  }
  void on_task_switch(ThreadId t, TaskInstanceId) override {
    stamp(t, "task_switch");
  }
  void on_taskwait_begin(ThreadId t) override { stamp(t, "taskwait_begin"); }
  void on_taskwait_end(ThreadId t) override { stamp(t, "taskwait_end"); }
  void on_barrier_begin(ThreadId t, bool implicit) override {
    stamp(t, implicit ? "ibarrier_begin" : "barrier_begin");
  }
  void on_barrier_end(ThreadId t, bool implicit) override {
    stamp(t, implicit ? "ibarrier_end" : "barrier_end");
  }
  void on_region_enter(ThreadId t, RegionHandle, std::int64_t) override {
    stamp(t, "region_enter");
  }
  void on_region_exit(ThreadId t, RegionHandle) override {
    stamp(t, "region_exit");
  }
  void on_scheduler_note(ThreadId t, rt::SchedulerNote,
                         std::int64_t) override {
    stamp(t, "note");
  }

 private:
  struct alignas(64) Slot {
    const Clock* clock = nullptr;
    std::vector<Stamp> stamps;
  };

  void stamp(ThreadId t, std::string_view kind) {
    Slot& slot = slots_[t];
    slot.stamps.push_back({kind, slot.clock->now()});
    const Ticks until = steady_.now() + wait_;
    while (steady_.now() < until) {
    }
  }

  SteadyClock steady_;
  Ticks wait_;
  std::vector<Slot> slots_;
};

/// Every thread-bound callback kind: regions, deferred and undeferred
/// creates, task begin/end, a task switch (an undeferred child ending
/// inside an explicit task), taskwaits and both barrier kinds.
void every_event_kind(rt::TaskContext& ctx, RegionHandle task,
                      RegionHandle function) {
  rt::ScopedRegion region(ctx, function);
  if (ctx.single()) {
    for (int i = 0; i < 4; ++i) {
      ctx.create_task(
          [task](rt::TaskContext& c) {
            rt::TaskAttrs inline_attrs = attrs_for(task);
            inline_attrs.undeferred = true;
            c.create_task([](rt::TaskContext&) {}, inline_attrs);
            c.create_task([](rt::TaskContext&) {}, attrs_for(task));
            c.taskwait();
          },
          attrs_for(task));
    }
    ctx.taskwait();
  }
  ctx.barrier();
}

/// Successive stamps on one thread are at least `wait` apart: the probe
/// waited that long after each read, and a stale stamp would repeat.
void expect_fresh_stamps(const StampProbe& probe, Ticks wait) {
  for (ThreadId t = 0; t < probe.threads(); ++t) {
    const std::vector<StampProbe::Stamp>& stamps = probe.stamps(t);
    for (std::size_t i = 1; i < stamps.size(); ++i) {
      const Ticks step = stamps[i].time - stamps[i - 1].time;
      ASSERT_GE(step, wait) << "thread " << t << ": " << stamps[i - 1].kind
                            << " -> " << stamps[i].kind << " at " << i;
    }
  }
}

// About 200 ns: far above a stale stamp's 0, and the probe spins a little
// longer so the TSC's unfenced reads cannot eat into it.
constexpr Ticks kStampGap = 200;
constexpr Ticks kProbeWait = kStampGap + 50;

TEST_F(RealRuntimeTest, EveryCallbackGetsAFreshStamp) {
  const RegionHandle fn =
      registry_.register_region("f", RegionType::kFunction);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    StampProbe probe(kProbeWait);
    runtime_.set_hooks(&probe);
    runtime_.parallel(threads, [&](rt::TaskContext& ctx) {
      every_event_kind(ctx, task_, fn);
    });
    runtime_.set_hooks(nullptr);
    expect_fresh_stamps(probe, kStampGap);
    EXPECT_EQ(probe.kinds(),
              (std::set<std::string_view>{
                  "implicit_begin", "implicit_end", "create_begin",
                  "create_end", "task_begin", "task_end", "task_switch",
                  "taskwait_begin", "taskwait_end", "barrier_begin",
                  "barrier_end", "ibarrier_begin", "ibarrier_end",
                  "region_enter", "region_exit"}));
    // Deferred and undeferred creates both reached create_end.
    EXPECT_EQ(probe.count("create_end"), 12u);
  }
}

// The taskgraph paths: replay-static create_end, divergence notes on the
// workers and the fallback-stale note on the master.  The post-join
// residue note needs graph slots that no detectable divergence cancelled;
// no known program reaches it, so it is not covered here.
TEST(EventClock, TaskgraphCallbacksGetFreshStamps) {
  rt::RealConfig config;
  config.scheduler = rt::SchedulerKind::kTaskGraph;
  rt::RealRuntime runtime(config);
  StampProbe probe(kProbeWait);
  runtime.set_hooks(&probe);
  for (const int depth : testutil::kTaskgraphDivergenceDepths) {
    (void)runtime.parallel(4, [depth](rt::TaskContext& ctx) {
      if (ctx.single()) testutil::spawn_tree(ctx, depth, {});
    });
  }
  runtime.set_hooks(nullptr);
  EXPECT_TRUE(runtime.taskgraph_stale());
  EXPECT_GE(probe.count("note"), 3u);  // >= 1 divergence + 2 fallbacks
  expect_fresh_stamps(probe, kStampGap);
}

// Score-P profiles and traces at once: every listener of one event must
// see the same time, or profile and trace disagree about the same run.
TEST(EventClock, ListenersOfOneEventShareItsStamp) {
  RegionRegistry registry;
  const RegionHandle task = registry.register_region("t", RegionType::kTask);
  const RegionHandle fn = registry.register_region("f", RegionType::kFunction);
  rt::RealRuntime runtime;
  StampProbe first;
  Instrumentor instr(registry);
  trace::TraceRecorder recorder;
  StampProbe last;
  rt::FanoutHooks hooks{&first, &instr, &recorder, &last};
  runtime.set_hooks(&hooks);
  for (const int threads : {1, 4}) {
    runtime.parallel(threads, [&](rt::TaskContext& ctx) {
      every_event_kind(ctx, task, fn);
    });
  }
  runtime.set_hooks(nullptr);
  instr.finalize();
  const trace::Trace trace = recorder.take();
  ASSERT_EQ(trace.thread_count(), first.threads());
  for (ThreadId t = 0; t < first.threads(); ++t) {
    const std::vector<StampProbe::Stamp>& a = first.stamps(t);
    const std::vector<StampProbe::Stamp>& b = last.stamps(t);
    const std::vector<trace::TraceEvent>& events = trace.thread_events(t);
    ASSERT_EQ(a.size(), b.size()) << t;
    ASSERT_EQ(a.size(), events.size()) << t;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].time, b[i].time) << t << ": " << a[i].kind << " at " << i;
      ASSERT_EQ(a[i].time, events[i].time)
          << t << ": " << a[i].kind << " at " << i;
    }
  }
}

// A profiler keeps its thread's clock pointer across regions; slots 2 and
// 3 sit out the second and third regions, and finalize() reads their
// clocks after all of them.
TEST(EventClock, ProfilerClocksOutliveTheRegionsThatBoundThem) {
  RegionRegistry registry;
  const RegionHandle task = registry.register_region("t", RegionType::kTask);
  const RegionHandle fn = registry.register_region("f", RegionType::kFunction);
  rt::RealRuntime runtime;
  Instrumentor instr(registry);
  const auto body = [&](rt::TaskContext& ctx) {
    every_event_kind(ctx, task, fn);
  };
  runtime.set_hooks(&instr);
  runtime.parallel(4, body);
  runtime.parallel(2, body);
  runtime.set_hooks(nullptr);
  runtime.parallel(4, body);
  instr.finalize();
  const check::InvariantReport report =
      check::check_profile(instr.aggregate(), registry);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

}  // namespace
}  // namespace taskprof

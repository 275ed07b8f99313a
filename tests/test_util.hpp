// Shared test helpers: an event-recording hook listener, hand-built
// traces and golden-file checks.
#pragma once

#include <gtest/gtest.h>

#include <pthread.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rt/hooks.hpp"
#include "rt/task_context.hpp"
#include "trace/trace.hpp"

namespace taskprof::testutil {

/// Binary task tree of the given depth with a taskwait at every level.
inline void spawn_tree(rt::TaskContext& ctx, int depth, rt::TaskAttrs attrs) {
  ctx.work(30);
  if (depth == 0) return;
  for (int child = 0; child < 2; ++child) {
    ctx.create_task(
        [depth, attrs](rt::TaskContext& c) { spawn_tree(c, depth - 1, attrs); },
        attrs);
  }
  ctx.taskwait();
}

/// spawn_tree depths, one region each, that drive a kTaskGraph real
/// runtime through record, replay, divergence (the deeper tree fires
/// structure notes on the workers) and two regions on the stale graph (a
/// fallback note each).  Replay regions take the static create path.
inline constexpr int kTaskgraphDivergenceDepths[] = {5, 5, 6, 4, 5};

/// Records every scheduler event (thread-safe; the real engine emits from
/// many threads).
class RecordingHooks final : public rt::SchedulerHooks {
 public:
  struct Event {
    std::string kind;
    ThreadId thread = 0;
    TaskInstanceId id = 0;
    RegionHandle region = kInvalidRegion;
  };

  void on_parallel_begin(int) override { add("parallel_begin", 0, 0); }
  void on_parallel_end() override { add("parallel_end", 0, 0); }
  void on_implicit_task_begin(ThreadId t, const Clock&) override {
    add("implicit_begin", t, 0);
  }
  void on_implicit_task_end(ThreadId t) override {
    add("implicit_end", t, 0);
  }
  void on_task_create_begin(ThreadId t, RegionHandle r,
                            std::int64_t) override {
    add("create_begin", t, 0, r);
  }
  void on_task_create_end(ThreadId t, TaskInstanceId id, RegionHandle r,
                          std::int64_t) override {
    add("create_end", t, id, r);
  }
  void on_task_begin(ThreadId t, TaskInstanceId id, RegionHandle r,
                     std::int64_t) override {
    add("task_begin", t, id, r);
  }
  void on_task_end(ThreadId t, TaskInstanceId id) override {
    add("task_end", t, id);
  }
  void on_task_switch(ThreadId t, TaskInstanceId id) override {
    add("task_switch", t, id);
  }
  void on_task_migrate(ThreadId from, ThreadId to,
                       TaskInstanceId id) override {
    add("migrate", from, id, static_cast<RegionHandle>(to));
  }
  void on_taskwait_begin(ThreadId t) override { add("taskwait_begin", t, 0); }
  void on_taskwait_end(ThreadId t) override { add("taskwait_end", t, 0); }
  void on_barrier_begin(ThreadId t, bool implicit) override {
    add(implicit ? "ibarrier_begin" : "barrier_begin", t, 0);
  }
  void on_barrier_end(ThreadId t, bool implicit) override {
    add(implicit ? "ibarrier_end" : "barrier_end", t, 0);
  }
  void on_region_enter(ThreadId t, RegionHandle r, std::int64_t) override {
    add("region_enter", t, 0, r);
  }
  void on_region_exit(ThreadId t, RegionHandle r) override {
    add("region_exit", t, 0, r);
  }

  std::vector<Event> events() const {
    std::scoped_lock lock(mutex_);
    return events_;
  }

  std::vector<Event> events_for(ThreadId thread) const {
    std::scoped_lock lock(mutex_);
    std::vector<Event> out;
    for (const Event& e : events_) {
      if (e.thread == thread) out.push_back(e);
    }
    return out;
  }

  std::size_t count(const std::string& kind) const {
    std::scoped_lock lock(mutex_);
    std::size_t n = 0;
    for (const Event& e : events_) {
      if (e.kind == kind) ++n;
    }
    return n;
  }

 private:
  void add(std::string kind, ThreadId thread, TaskInstanceId id,
           RegionHandle region = kInvalidRegion) {
    std::scoped_lock lock(mutex_);
    events_.push_back(Event{std::move(kind), thread, id, region});
  }

  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

/// Hand-built per-thread event streams; each must stay time-ordered.
class TraceBuilder {
 public:
  explicit TraceBuilder(std::size_t threads) : streams_(threads) {}

  TraceBuilder& add(ThreadId thread, Ticks time, trace::EventKind kind,
                    TaskInstanceId task = kImplicitTaskId,
                    RegionHandle region = kInvalidRegion) {
    streams_[thread].push_back({.time = time,
                                .task = task,
                                .thread = thread,
                                .region = region,
                                .kind = kind});
    return *this;
  }

  /// Task `id` runs on `thread` from `begin` to `end`.
  TraceBuilder& run(ThreadId thread, Ticks begin, Ticks end,
                    TaskInstanceId id, RegionHandle region) {
    return add(thread, begin, trace::EventKind::kTaskBegin, id, region)
        .add(thread, end, trace::EventKind::kTaskEnd, id, region);
  }

  /// The thread's running task `creator` creates `id` at `time` and
  /// waits for it while the child runs inline for `duration` ticks.
  TraceBuilder& spawn_and_wait(ThreadId thread, Ticks time,
                               TaskInstanceId id, RegionHandle region,
                               Ticks duration,
                               TaskInstanceId creator = kImplicitTaskId) {
    add(thread, time, trace::EventKind::kCreateEnd, id, region)
        .add(thread, time, trace::EventKind::kTaskwaitBegin)
        .run(thread, time, time + duration, id, region);
    if (creator != kImplicitTaskId) {
      add(thread, time + duration, trace::EventKind::kTaskSwitch, creator);
    }
    return add(thread, time + duration, trace::EventKind::kTaskwaitEnd);
  }

  [[nodiscard]] trace::Trace build() {
    return trace::Trace(std::move(streams_));
  }

 private:
  std::vector<std::vector<trace::TraceEvent>> streams_;
};

/// A gapless serial chain on one thread: the implicit task creates task
/// i, waits for it, and it runs `duration` ticks, `tasks` times over, so
/// T1 == T∞ exactly.  Tasks alternate between regions `a` and `b`.
inline trace::Trace serial_chain(int tasks, Ticks duration, RegionHandle a,
                                 RegionHandle b) {
  TraceBuilder builder(1);
  builder.add(0, 0, trace::EventKind::kImplicitBegin);
  Ticks now = 0;
  for (int i = 0; i < tasks; ++i, now += duration) {
    builder.spawn_and_wait(0, now, static_cast<TaskInstanceId>(i + 1),
                           i % 2 == 0 ? a : b, duration);
  }
  return builder.add(0, now, trace::EventKind::kImplicitEnd).build();
}

/// Compare `actual` with the committed golden file at `path`, or rewrite
/// the file when the environment variable `regen_env` is set.
/// Run `body` on a thread with a `stack_bytes` stack, so a walk whose
/// recursion depth grows with its input's depth overflows it.
inline void run_on_small_stack(std::size_t stack_bytes,
                               const std::function<void()>& body) {
  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_setstacksize(&attr, stack_bytes), 0);
  pthread_t thread;
  const auto trampoline = [](void* arg) -> void* {
    (*static_cast<const std::function<void()>*>(arg))();
    return nullptr;
  };
  ASSERT_EQ(pthread_create(&thread, &attr, trampoline,
                           const_cast<std::function<void()>*>(&body)),
            0);
  pthread_join(thread, nullptr);
  pthread_attr_destroy(&attr);
}

inline void check_golden(const std::filesystem::path& path,
                         const std::string& actual, const char* regen_env) {
  if (std::getenv(regen_env) != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden " << path << " (regenerate with "
                  << regen_env << "=1)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str())
      << path << " drifted from the committed golden; if the change is "
      << "intentional, regenerate with " << regen_env << "=1";
}

}  // namespace taskprof::testutil

// TraceRecorder: a scheduler-event listener that records timestamped
// events per thread.  Attach alongside the profiler through
// rt::FanoutHooks for simultaneous profiling + tracing (Score-P style).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "rt/hooks.hpp"
#include "trace/trace.hpp"

namespace taskprof::trace {

class TraceRecorder final : public rt::SchedulerHooks {
 public:
  TraceRecorder() = default;

  // -- rt::SchedulerHooks ---------------------------------------------------
  void on_parallel_begin(int num_threads) override;
  void on_parallel_end() override;
  void on_implicit_task_begin(ThreadId thread, const Clock& clock) override;
  void on_implicit_task_end(ThreadId thread) override;
  void on_task_create_begin(ThreadId thread, RegionHandle region,
                            std::int64_t parameter) override;
  void on_task_create_end(ThreadId thread, TaskInstanceId created,
                          RegionHandle region,
                          std::int64_t parameter) override;
  void on_task_begin(ThreadId thread, TaskInstanceId id, RegionHandle region,
                     std::int64_t parameter) override;
  void on_task_end(ThreadId thread, TaskInstanceId id) override;
  void on_task_switch(ThreadId thread, TaskInstanceId id) override;
  void on_task_migrate(ThreadId from, ThreadId to, TaskInstanceId id) override;
  void on_task_work(ThreadId thread, Ticks cost) override;
  void on_taskwait_begin(ThreadId thread) override;
  void on_taskwait_end(ThreadId thread) override;
  void on_barrier_begin(ThreadId thread, bool implicit) override;
  void on_barrier_end(ThreadId thread, bool implicit) override;
  void on_region_enter(ThreadId thread, RegionHandle region,
                       std::int64_t parameter) override;
  void on_region_exit(ThreadId thread, RegionHandle region) override;
  void on_scheduler_note(ThreadId thread, rt::SchedulerNote note,
                         std::int64_t detail) override;

  // -- Results ----------------------------------------------------------------

  /// Move the recorded events out (the recorder resets and can record
  /// another measurement).
  [[nodiscard]] Trace take();

  [[nodiscard]] std::size_t event_count() const;

 private:
  struct ThreadStream {
    const Clock* clock = nullptr;
    std::vector<TraceEvent> events;
    TaskInstanceId max_task = kImplicitTaskId;  ///< largest id it created
  };

  /// The trace id of runtime instance `id` in the current region.
  [[nodiscard]] TaskInstanceId trace_id(TaskInstanceId id) const noexcept {
    return id == kImplicitTaskId ? id : id + id_offset_;
  }

  void record(ThreadId thread, EventKind kind,
              TaskInstanceId task = kImplicitTaskId,
              RegionHandle region = kInvalidRegion,
              std::int64_t parameter = kNoParameter, ThreadId peer = 0);
  ThreadStream& stream(ThreadId thread);

  // Pre-sized in on_parallel_begin; each worker then touches only its own
  // slot, so recording is lock-free on the hot path (mirrors the
  // per-thread memory rule of the measurement system).
  std::vector<std::unique_ptr<ThreadStream>> streams_;
  std::mutex resize_mutex_;
  // Both engines number task instances from 1 in every parallel region;
  // each region's ids are shifted past the previous regions' so they stay
  // unique within one trace.  Written only between regions.
  TaskInstanceId id_offset_ = 0;
};

}  // namespace taskprof::trace

#include "trace/recorder.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace taskprof::trace {

void TraceRecorder::on_parallel_begin(int num_threads) {
  std::scoped_lock lock(resize_mutex_);
  while (streams_.size() < static_cast<std::size_t>(num_threads)) {
    streams_.push_back(std::make_unique<ThreadStream>());
  }
  for (const auto& s : streams_) {
    id_offset_ = std::max(id_offset_, s->max_task);
  }
}

void TraceRecorder::on_parallel_end() {}

void TraceRecorder::on_implicit_task_begin(ThreadId thread,
                                           const Clock& clock) {
  ThreadStream& s = stream(thread);
  s.clock = &clock;
  record(thread, EventKind::kImplicitBegin);
}

void TraceRecorder::on_implicit_task_end(ThreadId thread) {
  record(thread, EventKind::kImplicitEnd);
}

void TraceRecorder::on_task_create_begin(ThreadId thread, RegionHandle region,
                                         std::int64_t parameter) {
  record(thread, EventKind::kCreateBegin, kImplicitTaskId, region, parameter);
}

void TraceRecorder::on_task_create_end(ThreadId thread,
                                       TaskInstanceId created,
                                       RegionHandle region,
                                       std::int64_t parameter) {
  const TaskInstanceId id = trace_id(created);
  ThreadStream& s = stream(thread);
  s.max_task = std::max(s.max_task, id);
  record(thread, EventKind::kCreateEnd, id, region, parameter);
}

void TraceRecorder::on_task_begin(ThreadId thread, TaskInstanceId id,
                                  RegionHandle region,
                                  std::int64_t parameter) {
  record(thread, EventKind::kTaskBegin, trace_id(id), region, parameter);
}

void TraceRecorder::on_task_end(ThreadId thread, TaskInstanceId id) {
  record(thread, EventKind::kTaskEnd, trace_id(id));
}

void TraceRecorder::on_task_switch(ThreadId thread, TaskInstanceId id) {
  record(thread, EventKind::kTaskSwitch, trace_id(id));
}

void TraceRecorder::on_task_migrate(ThreadId from, ThreadId to,
                                    TaskInstanceId id) {
  record(from, EventKind::kMigrate, trace_id(id), kInvalidRegion,
         kNoParameter, to);
}

void TraceRecorder::on_task_work(ThreadId thread, Ticks cost) {
  record(thread, EventKind::kWork, kImplicitTaskId, kInvalidRegion, cost);
}

void TraceRecorder::on_taskwait_begin(ThreadId thread) {
  record(thread, EventKind::kTaskwaitBegin);
}

void TraceRecorder::on_taskwait_end(ThreadId thread) {
  record(thread, EventKind::kTaskwaitEnd);
}

void TraceRecorder::on_barrier_begin(ThreadId thread, bool implicit) {
  (void)implicit;
  record(thread, EventKind::kBarrierBegin);
}

void TraceRecorder::on_barrier_end(ThreadId thread, bool implicit) {
  (void)implicit;
  record(thread, EventKind::kBarrierEnd);
}

void TraceRecorder::on_region_enter(ThreadId thread, RegionHandle region,
                                    std::int64_t parameter) {
  record(thread, EventKind::kRegionEnter, kImplicitTaskId, region, parameter);
}

void TraceRecorder::on_region_exit(ThreadId thread, RegionHandle region) {
  record(thread, EventKind::kRegionExit, kImplicitTaskId, region);
}

void TraceRecorder::on_scheduler_note(ThreadId thread, rt::SchedulerNote note,
                                      std::int64_t detail) {
  // Notes may fire before the thread's implicit task begins (e.g. a
  // stale-graph fallback announced at region entry); record with the last
  // known timestamp (0 at stream start) rather than asserting.
  ThreadStream& s = stream(thread);
  Ticks now = 0;
  if (s.clock != nullptr) {
    now = s.clock->now();
  } else if (!s.events.empty()) {
    now = s.events.back().time;
  }
  s.events.push_back(
      TraceEvent{.time = now,
                 .task = static_cast<TaskInstanceId>(detail),
                 .parameter = static_cast<std::int64_t>(note),
                 .thread = thread,
                 .kind = EventKind::kSchedulerNote});
}

Trace TraceRecorder::take() {
  std::vector<std::vector<TraceEvent>> per_thread;
  per_thread.reserve(streams_.size());
  for (auto& s : streams_) {
    per_thread.push_back(std::move(s->events));
    s->events.clear();
    s->clock = nullptr;
    s->max_task = kImplicitTaskId;
  }
  id_offset_ = 0;
  return Trace(std::move(per_thread));
}

std::size_t TraceRecorder::event_count() const {
  std::size_t total = 0;
  for (const auto& s : streams_) total += s->events.size();
  return total;
}

void TraceRecorder::record(ThreadId thread, EventKind kind,
                           TaskInstanceId task, RegionHandle region,
                           std::int64_t parameter, ThreadId peer) {
  ThreadStream& s = stream(thread);
  TASKPROF_ASSERT(s.clock != nullptr,
                  "trace event before the thread's implicit task began");
  s.events.push_back(TraceEvent{.time = s.clock->now(),
                                .task = task,
                                .parameter = parameter,
                                .thread = thread,
                                .region = region,
                                .peer = peer,
                                .kind = kind});
}

TraceRecorder::ThreadStream& TraceRecorder::stream(ThreadId thread) {
  TASKPROF_ASSERT(thread < streams_.size(),
                  "trace event from an unannounced thread");
  return *streams_[thread];
}

}  // namespace taskprof::trace

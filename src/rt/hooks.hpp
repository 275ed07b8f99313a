// Scheduler event hooks: the interface between the task runtime and the
// measurement system.
//
// This is the piece the paper's authors had to synthesize with OPARI2
// source instrumentation because "the OpenMP runtime does not provide any
// standardized hooks" (§I).  Our runtimes emit the events natively — in
// particular the TaskSwitch events that make untied-task profiling
// possible (§IV-D2).
//
// All callbacks carry the id of the thread on which the event occurs and
// are invoked *on* that thread (real engine) or while that virtual worker
// is current (simulator).  Default implementations are no-ops so engines
// can run uninstrumented against a null or partial listener.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/clock.hpp"
#include "common/types.hpp"

namespace taskprof::rt {

/// Out-of-band scheduler condition worth surfacing to observers: why a
/// taskgraph replay abandoned its static schedule, or that a region fell
/// back to dynamic scheduling before it started.  Carried by
/// on_scheduler_note so traces and telemetry can tell fallbacks apart.
enum class SchedulerNote : std::uint8_t {
  kNone = 0,
  /// Region started in fallback mode because the recorded graph was
  /// marked stale (a prior region diverged or recording failed).
  kTaskgraphFallbackStale = 1,
  /// A replayed task spawned a child whose construct/shape did not match
  /// the recorded graph node (structure mismatch).
  kTaskgraphDivergeStructure = 2,
  /// A replayed task (or the root) produced fewer children than the
  /// recorded graph expected (short spawn).
  kTaskgraphDivergeShortSpawn = 3,
  /// The region went quiescent with recorded graph nodes never spawned
  /// (unspawned residue).
  kTaskgraphDivergeResidue = 4,
};

/// Stable short identifier for a SchedulerNote (used as a trace-event /
/// telemetry label).
inline const char* scheduler_note_name(SchedulerNote note) {
  switch (note) {
    case SchedulerNote::kNone:
      return "none";
    case SchedulerNote::kTaskgraphFallbackStale:
      return "taskgraph_fallback_stale";
    case SchedulerNote::kTaskgraphDivergeStructure:
      return "taskgraph_diverge_structure";
    case SchedulerNote::kTaskgraphDivergeShortSpawn:
      return "taskgraph_diverge_short_spawn";
    case SchedulerNote::kTaskgraphDivergeResidue:
      return "taskgraph_diverge_residue";
  }
  return "unknown";
}

class SchedulerHooks {
 public:
  virtual ~SchedulerHooks() = default;

  // -- Parallel-region / thread lifecycle --------------------------------

  /// A parallel region with `num_threads` threads is about to start.
  /// Called once, on the encountering thread, before workers run.
  virtual void on_parallel_begin(int num_threads) { (void)num_threads; }

  /// The parallel region completed (after the final implicit barrier).
  virtual void on_parallel_end() {}

  /// Thread `thread` starts its implicit task.  `clock` is this thread's
  /// event clock: every now() during one event (one callback, and the
  /// same callback on every listener of a FanoutHooks) returns the same
  /// stamp.  The real engine reads a calibrated TSC lazily, once per
  /// event, and its clocks stay valid until the runtime is destroyed;
  /// the simulator returns the worker's virtual time, valid until its
  /// next parallel region starts.
  virtual void on_implicit_task_begin(ThreadId thread, const Clock& clock) {
    (void)thread;
    (void)clock;
  }
  virtual void on_implicit_task_end(ThreadId thread) { (void)thread; }

  // -- Task events (map 1:1 onto the paper's Fig. 12 algorithm) ----------

  /// Enter/exit of the task-creation region around create_task.  Both
  /// carry the region of the task construct being created (so creation
  /// time can be attributed per construct, paper Table III);
  /// on_task_create_end additionally carries the new instance's id.
  virtual void on_task_create_begin(ThreadId thread, RegionHandle region,
                                    std::int64_t parameter) {
    (void)thread;
    (void)region;
    (void)parameter;
  }
  virtual void on_task_create_end(ThreadId thread, TaskInstanceId created,
                                  RegionHandle region,
                                  std::int64_t parameter) {
    (void)thread;
    (void)created;
    (void)region;
    (void)parameter;
  }

  /// Instance `id` of task construct `region` starts executing.
  virtual void on_task_begin(ThreadId thread, TaskInstanceId id,
                             RegionHandle region, std::int64_t parameter) {
    (void)thread;
    (void)id;
    (void)region;
    (void)parameter;
  }

  /// The current instance `id` completes.
  virtual void on_task_end(ThreadId thread, TaskInstanceId id) {
    (void)thread;
    (void)id;
  }

  /// Thread resumes a previously suspended instance (or the implicit
  /// task, id == kImplicitTaskId).  Suspension itself is implied by the
  /// next on_task_begin / on_task_switch on that thread.
  virtual void on_task_switch(ThreadId thread, TaskInstanceId id) {
    (void)thread;
    (void)id;
  }

  /// A suspended *untied* instance moves from thread `from` to thread
  /// `to` (simulator only).  Fired before the on_task_switch on `to`.
  virtual void on_task_migrate(ThreadId from, ThreadId to,
                               TaskInstanceId id) {
    (void)from;
    (void)to;
    (void)id;
  }

  /// The running task declared `cost` ticks of virtual computation
  /// (simulator engines only: SimContext::work / replay equivalents).
  /// `cost` is the *effective* cost after any configured duration
  /// scaling, so observers see the same timings the virtual clock
  /// advances by.  The real engine never fires this — its computation
  /// is its own cost.
  virtual void on_task_work(ThreadId thread, Ticks cost) {
    (void)thread;
    (void)cost;
  }

  // -- Scheduling-point regions -------------------------------------------

  virtual void on_taskwait_begin(ThreadId thread) { (void)thread; }
  virtual void on_taskwait_end(ThreadId thread) { (void)thread; }
  virtual void on_barrier_begin(ThreadId thread, bool implicit) {
    (void)thread;
    (void)implicit;
  }
  virtual void on_barrier_end(ThreadId thread, bool implicit) {
    (void)thread;
    (void)implicit;
  }

  // -- User regions (compiler-instrumentation stand-in) -------------------

  virtual void on_region_enter(ThreadId thread, RegionHandle region,
                               std::int64_t parameter) {
    (void)thread;
    (void)region;
    (void)parameter;
  }
  virtual void on_region_exit(ThreadId thread, RegionHandle region) {
    (void)thread;
    (void)region;
  }

  // -- Scheduler diagnostics ----------------------------------------------

  /// The scheduler hit a noteworthy out-of-band condition (e.g. a
  /// taskgraph replay divergence).  `detail` is note-specific: the graph
  /// node / ordinal involved where known, 0 otherwise.  May fire on any
  /// worker thread, or on the encountering thread between
  /// on_parallel_begin and the workers' implicit-task begins.
  virtual void on_scheduler_note(ThreadId thread, SchedulerNote note,
                                 std::int64_t detail) {
    (void)thread;
    (void)note;
    (void)detail;
  }
};

/// Forwards every event to several listeners in order — e.g. a profiler
/// and a trace recorder at once, like Score-P's simultaneous profiling
/// and tracing.  Listeners must outlive the fanout.
class FanoutHooks final : public SchedulerHooks {
 public:
  FanoutHooks() = default;
  explicit FanoutHooks(std::initializer_list<SchedulerHooks*> listeners)
      : listeners_(listeners) {}

  void add(SchedulerHooks* listener) { listeners_.push_back(listener); }

  void on_parallel_begin(int num_threads) override {
    for (auto* l : listeners_) l->on_parallel_begin(num_threads);
  }
  void on_parallel_end() override {
    for (auto* l : listeners_) l->on_parallel_end();
  }
  void on_implicit_task_begin(ThreadId thread, const Clock& clock) override {
    for (auto* l : listeners_) l->on_implicit_task_begin(thread, clock);
  }
  void on_implicit_task_end(ThreadId thread) override {
    for (auto* l : listeners_) l->on_implicit_task_end(thread);
  }
  void on_task_create_begin(ThreadId thread, RegionHandle region,
                            std::int64_t parameter) override {
    for (auto* l : listeners_) {
      l->on_task_create_begin(thread, region, parameter);
    }
  }
  void on_task_create_end(ThreadId thread, TaskInstanceId created,
                          RegionHandle region,
                          std::int64_t parameter) override {
    for (auto* l : listeners_) {
      l->on_task_create_end(thread, created, region, parameter);
    }
  }
  void on_task_begin(ThreadId thread, TaskInstanceId id, RegionHandle region,
                     std::int64_t parameter) override {
    for (auto* l : listeners_) l->on_task_begin(thread, id, region, parameter);
  }
  void on_task_end(ThreadId thread, TaskInstanceId id) override {
    for (auto* l : listeners_) l->on_task_end(thread, id);
  }
  void on_task_switch(ThreadId thread, TaskInstanceId id) override {
    for (auto* l : listeners_) l->on_task_switch(thread, id);
  }
  void on_task_migrate(ThreadId from, ThreadId to,
                       TaskInstanceId id) override {
    for (auto* l : listeners_) l->on_task_migrate(from, to, id);
  }
  void on_task_work(ThreadId thread, Ticks cost) override {
    for (auto* l : listeners_) l->on_task_work(thread, cost);
  }
  void on_taskwait_begin(ThreadId thread) override {
    for (auto* l : listeners_) l->on_taskwait_begin(thread);
  }
  void on_taskwait_end(ThreadId thread) override {
    for (auto* l : listeners_) l->on_taskwait_end(thread);
  }
  void on_barrier_begin(ThreadId thread, bool implicit) override {
    for (auto* l : listeners_) l->on_barrier_begin(thread, implicit);
  }
  void on_barrier_end(ThreadId thread, bool implicit) override {
    for (auto* l : listeners_) l->on_barrier_end(thread, implicit);
  }
  void on_region_enter(ThreadId thread, RegionHandle region,
                       std::int64_t parameter) override {
    for (auto* l : listeners_) l->on_region_enter(thread, region, parameter);
  }
  void on_region_exit(ThreadId thread, RegionHandle region) override {
    for (auto* l : listeners_) l->on_region_exit(thread, region);
  }
  void on_scheduler_note(ThreadId thread, SchedulerNote note,
                         std::int64_t detail) override {
    for (auto* l : listeners_) l->on_scheduler_note(thread, note, detail);
  }

 private:
  std::vector<SchedulerHooks*> listeners_;
};

}  // namespace taskprof::rt

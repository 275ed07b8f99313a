// The instrumentation adapter: OPARI2/POMP2 stand-in.
//
// In the paper, OPARI2 rewrites the source so every OpenMP construct
// reports POMP2 events into Score-P.  Here the runtime engines emit
// scheduler events natively (rt::SchedulerHooks); the Instrumentor is the
// listener that translates them into the measurement layer's Enter / Exit
// / TaskBegin / TaskEnd / TaskSwitch calls and owns the per-thread
// profilers.
//
// Usage:
//   RegionRegistry registry;
//   Instrumentor instr(registry);
//   runtime.set_hooks(&instr);
//   runtime.parallel(4, body);
//   runtime.set_hooks(nullptr);
//   instr.finalize();
//   AggregateProfile profile = instr.aggregate();
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "measure/aggregate.hpp"
#include "measure/task_profiler.hpp"
#include "profile/region.hpp"
#include "rt/hooks.hpp"

namespace taskprof {

class Instrumentor final : public rt::SchedulerHooks {
 public:
  /// `registry` must outlive the instrumentor; construct regions
  /// ("parallel", "implicit barrier", "taskwait", ...) are registered in
  /// it here.  With options.snapshot_every > 0 this also registers the
  /// process for the capture barrier and throws std::system_error when
  /// the kernel refuses (ThreadTaskProfiler::register_capture_barrier).
  explicit Instrumentor(RegionRegistry& registry, MeasureOptions options = {});
  ~Instrumentor() override;

  /// Score-P-style measurement filtering: exclude a *user* region
  /// (RegionType::kFunction) from measurement — its enter/exit events are
  /// dropped, so its time folds into the parent node.  The standard
  /// mitigation when instrumentation of hot tiny functions dominates (the
  /// paper's fib scenario).  Task constructs and scheduling points cannot
  /// be filtered (the Fig. 12 algorithm needs them).  Call before
  /// measurement starts.
  void filter_region(RegionHandle region);

  Instrumentor(const Instrumentor&) = delete;
  Instrumentor& operator=(const Instrumentor&) = delete;

  // --- rt::SchedulerHooks --------------------------------------------------

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
  void on_taskwait_begin(ThreadId thread) override;
  void on_taskwait_end(ThreadId thread) override;
  void on_barrier_begin(ThreadId thread, bool implicit) override;
  void on_barrier_end(ThreadId thread, bool implicit) override;
  void on_region_enter(ThreadId thread, RegionHandle region,
                       std::int64_t parameter) override;
  void on_region_exit(ThreadId thread, RegionHandle region) override;

  // --- Results --------------------------------------------------------------

  /// Close the implicit roots of all thread profilers.  Each root closes
  /// at its clock's current reading without starting a new event, so on
  /// the real engine that is the thread's last event stamp (its implicit
  /// task's end), not the time of this call.  Call after the last
  /// parallel region and before the runtime is destroyed: the profilers
  /// read the engine's clocks.
  void finalize();

  /// Per-thread profile views (valid while the instrumentor lives).
  [[nodiscard]] std::vector<ThreadProfileView> views() const;

  /// Merged whole-program profile.
  [[nodiscard]] AggregateProfile aggregate() const;

  /// Mid-run crash-safe capture (src/snapshot): pause each live profiler
  /// at an event boundary in turn (ThreadTaskProfiler::capture) and fold
  /// its trees straight into one partial profile.  Requires
  /// MeasureOptions::snapshot_every > 0 (profilers refuse to capture
  /// otherwise) and must be called from a thread that drives no
  /// profiler's events — the snapshot flusher's background thread.
  struct CaptureResult {
    AggregateProfile profile;            ///< partial_capture == true
    std::size_t profilers_live = 0;      ///< profilers that exist
    std::size_t profilers_captured = 0;  ///< profilers folded successfully
  };
  [[nodiscard]] CaptureResult capture_snapshot() const;

  /// Reset the per-thread concurrency high-water marks (the paper records
  /// the maximum per parallel region).
  void reset_concurrency_marks();

  /// Memory footprint of the measurement system (paper §V-B): call-tree
  /// nodes across all thread pools, one per distinct call path of each
  /// thread's trees.
  struct MemoryStats {
    std::size_t nodes = 0;  ///< nodes carved from the pools
    std::size_t bytes = 0;  ///< nodes * sizeof(CallNode)
  };
  [[nodiscard]] MemoryStats memory_stats() const;

  /// Direct access for tests; nullptr when the thread never ran.
  [[nodiscard]] ThreadTaskProfiler* profiler(ThreadId thread) noexcept;

  // --- Construct region handles ---------------------------------------------

  [[nodiscard]] RegionHandle implicit_task_region() const noexcept {
    return implicit_task_;
  }
  [[nodiscard]] RegionHandle parallel_region() const noexcept {
    return parallel_;
  }
  [[nodiscard]] RegionHandle implicit_barrier_region() const noexcept {
    return implicit_barrier_;
  }
  [[nodiscard]] RegionHandle barrier_region() const noexcept {
    return barrier_;
  }
  [[nodiscard]] RegionHandle taskwait_region() const noexcept {
    return taskwait_;
  }

  /// The "create task" region paired with a task-construct region
  /// (registered on demand: one creation region per construct).  Takes
  /// a mutex; the create events resolve through the calling thread's
  /// table instead and come here only on a thread's first creation of
  /// a construct.
  [[nodiscard]] RegionHandle create_region_for(RegionHandle task_region);

 private:
  /// Per-thread state; only the owning thread writes it after
  /// on_parallel_begin sized the table.
  struct ThreadSlot {
    std::unique_ptr<ThreadTaskProfiler> profiler;
    /// Create region per task-region handle, kInvalidRegion until this
    /// thread first creates a task of that construct.
    std::vector<RegionHandle> create_regions;
  };

  ThreadTaskProfiler& profiler_for(ThreadId thread, const Clock& clock);
  /// create_region_for through `thread`'s table: no lock once the
  /// thread has seen the construct.
  RegionHandle thread_create_region(ThreadId thread, RegionHandle region);

  RegionRegistry* registry_;
  MeasureOptions options_;

  RegionHandle implicit_task_;
  RegionHandle parallel_;
  RegionHandle implicit_barrier_;
  RegionHandle barrier_;
  RegionHandle taskwait_;

  // Indexed by ThreadId; slots are pre-sized single-threadedly in
  // on_parallel_begin, then each worker touches only its own slot.
  // threads_mutex_ serializes the points where the table itself changes
  // (resize, profiler creation) against capture_snapshot()'s iteration
  // from the flusher thread; per-event accesses read an already-created
  // slot and take no lock.
  std::vector<ThreadSlot> threads_;
  mutable std::mutex threads_mutex_;

  // The one registration point of create regions, behind the per-thread
  // tables.
  mutable std::mutex create_map_mutex_;
  std::unordered_map<RegionHandle, RegionHandle> create_regions_;

  // Filtered user regions (read-only during measurement).
  std::vector<bool> filtered_;
  [[nodiscard]] bool is_filtered(RegionHandle region) const noexcept {
    return region < filtered_.size() && filtered_[region];
  }
};

}  // namespace taskprof

// The paper's core contribution: call-path profiling of task-parallel
// programs (Lorenz et al., ICPP 2012, §IV).
//
// One ThreadTaskProfiler exists per thread.  It maintains
//
//  * the call tree of the thread's *implicit task*,
//  * the per-construct *task trees* ("all task instances of the same task
//    region will finally form a common sub-tree", §IV-B3),
//  * a table of *active explicit task instances*, each an open-frame
//    stack over the construct tree of the thread it began on, and
//  * a *current task* pointer.
//
// The paper builds one call tree per instance and merges it into the
// construct tree when the instance ends (Fig. 12).  Every merged metric
// is a sum or an extremum over visits (§IV-A), so the profile is the
// same when each frame adds its own duration to its construct-tree node
// at exit: the instance keeps only its frame stack, which is what tells
// the non-nested exits of Figs. 2 and 4 apart.
//
// The event interface mirrors the paper's Fig. 12 pseudocode: Enter/Exit
// for regions plus TaskBegin / TaskEnd / TaskSwitch for task scheduling.
// Key behaviours reproduced:
//
//  * Stub nodes (§IV-B4): while a thread executes an explicit task, the
//    implicit task's cursor sits inside a stub node beneath its current
//    scheduling point; the stub accumulates the time spent executing that
//    task's fragments there and counts the fragments.
//  * Pause/resume (§IV-B3): "time measurements for a task must be
//    stopped/resumed when the task is suspended/resumed"; the interval
//    between suspension and resumption is subtracted from every open frame
//    of the instance.
//  * Execution-site attribution (§IV-B2): task trees live beside the main
//    tree, not under the creating node — exclusive times stay non-negative.
//    The creation-site alternative of Fig. 3 is available as an option for
//    the ablation benchmark.
//  * Concurrency (§V-B): the profiler tracks the maximum number of
//    concurrently active instances (Table II); a construct tree holds one
//    node per distinct call path, however many instances run.
//  * Untied-task migration (§IV-D): instance state can be detached from one
//    profiler and adopted by another, moving the "pointer to the
//    task-specific data" with the task.  Its frames keep writing into the
//    construct tree of the thread the instance began on, inside that
//    profiler's capture handshake too.  Only the simulator engine uses
//    this (single OS thread), so no further synchronization is needed.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/clock.hpp"
#include "common/types.hpp"
#include "profile/calltree.hpp"
#include "profile/region.hpp"

namespace taskprof {

struct AggregateProfile;
class ThreadTaskProfiler;

/// Measurement-policy switches.  Defaults reproduce the paper's design;
/// the alternatives exist for the design-ablation benchmark.
struct MeasureOptions {
  /// Place a stub node for task execution under the implicit task's
  /// scheduling point (paper §IV-B4).  Off: the implicit tree does not
  /// record where task execution happened.
  bool stub_nodes = true;

  /// Subtract suspended intervals from a task's open frames (§IV-B3).
  /// Off: a suspended task's frames keep accumulating wall time, so a
  /// task's statistics include time spent executing *other* tasks.
  bool pause_on_suspend = true;

  /// Fig. 3 ablation: attach completed task trees beneath the node that
  /// *created* the task instead of beside the main tree.  Produces
  /// negative exclusive creation times; only meaningful single-threaded
  /// (cross-thread creations fall back to execution-site placement).
  bool creation_site_attribution = false;

  /// Maximum call-tree depth per tree (0 = unlimited).  Enter events
  /// below the limit are *folded* into the node at the limit: their time
  /// stays attributed there and fold_count counts them, but no nodes are
  /// created — the paper's guard against profiles that "explode or the
  /// tree depth limits might kick in" (§IV-B3).
  std::size_t max_tree_depth = 0;

  /// Period (ns) between crash-safe snapshot flushes (src/snapshot).
  /// Non-zero arms the capture handshake on every profiler: event
  /// methods then publish an odd/even sequence number with plain stores
  /// and read a pause flag with one acquire load — no lock and no locked
  /// instruction — so a background flusher can pause the profiler at an
  /// event boundary and fold its trees into a capture
  /// (ThreadTaskProfiler::capture).
  /// Arming needs the kernel's membarrier(2) private expedited command;
  /// the profiler and the instrumentor constructors throw
  /// std::system_error when it is refused.  0 (the default) disarms it
  /// completely — events pay one predictable branch, which keeps the
  /// unarmed event cost that bench_event_hotpath's ceilings gate.
  Ticks snapshot_every = 0;
};

/// State of one active explicit task instance (one row of the paper's
/// "table of explicit tasks", Figs. 6-11).
class TaskInstanceState {
 public:
  /// One open region frame of the instance's call stack.
  struct Frame {
    CallNode* node = nullptr;  ///< construct-tree node of the open region
    Ticks enter_time = 0;
    Ticks suspended_at_enter = 0;  ///< instance suspended_total at enter
  };

  TaskInstanceId id = 0;
  RegionHandle task_region = kInvalidRegion;
  std::int64_t parameter = kNoParameter;
  ThreadTaskProfiler* home = nullptr;  ///< where it began; frames write there
  std::vector<Frame> stack;       ///< open frames, root at index 0
  Ticks suspended_total = 0;      ///< accumulated suspension time
  Ticks suspend_start = 0;        ///< valid while suspended
  bool suspended = false;
  std::size_t folded = 0;         ///< open enters beyond max_tree_depth

  /// Reset for reuse through the instance free list.  Field-by-field
  /// rather than `*this = {}` so the open-frame stack keeps its vector
  /// capacity: a recycled instance would otherwise pay one heap
  /// allocation on its first frame push, on every task_begin.
  void reset() {
    id = 0;
    task_region = kInvalidRegion;
    parameter = kNoParameter;
    home = nullptr;
    stack.clear();
    suspended_total = 0;
    suspend_start = 0;
    suspended = false;
    folded = 0;
  }
};

/// Read-only view of one thread's finished profile.
struct ThreadProfileView {
  ThreadId thread = 0;
  const CallNode* implicit_root = nullptr;       ///< main call tree
  std::vector<const CallNode*> task_roots;       ///< per-construct task trees
  std::size_t max_concurrent_instances = 0;      ///< Table II metric
  std::uint64_t task_switches = 0;               ///< total TaskSwitch events
  std::uint64_t folded_events = 0;  ///< enters folded by max_tree_depth
};

/// Per-thread task-aware call-path profiler.
///
/// Not thread-safe: each thread drives its own profiler.  The only
/// cross-thread operation is detach/adopt of instance state for untied
/// migration, which the caller must serialize (the simulator runs on one
/// OS thread, the real engine never migrates).
class ThreadTaskProfiler {
 public:
  /// `clock` must outlive the profiler.  `implicit_region` names the root
  /// of the thread's main tree.
  ThreadTaskProfiler(ThreadId thread, const Clock& clock,
                     RegionHandle implicit_region,
                     MeasureOptions options = {});
  ~ThreadTaskProfiler();

  ThreadTaskProfiler(const ThreadTaskProfiler&) = delete;
  ThreadTaskProfiler& operator=(const ThreadTaskProfiler&) = delete;

  // --- Region events (attributed to the current task) -------------------

  /// Enter a region.  `parameter` distinguishes per-value sub-trees
  /// (paper Table IV); leave as kNoParameter otherwise.
  void enter(RegionHandle region, std::int64_t parameter = kNoParameter);

  /// Exit the innermost open region, which must match `region`.
  void exit(RegionHandle region);

  // --- Task events (paper Fig. 12) ---------------------------------------

  /// A new explicit task instance starts executing on this thread.
  /// Performs TaskSwitch(instance) then Enter(task_region), per Fig. 12:
  /// the instance's root frame is the construct's tree root (under the
  /// creation-site ablation, the construct's child of the creating node).
  void task_begin(RegionHandle task_region, TaskInstanceId id,
                  std::int64_t parameter = kNoParameter);

  /// The current task instance (which must be `id`) completes: Exit of
  /// its root frame, then TaskSwitch(implicit).
  void task_end(TaskInstanceId id);

  /// Switch to `id` (an active instance, or kImplicitTaskId for the
  /// implicit task).  No-op when already current.
  void task_switch(TaskInstanceId id);

  /// Record the creation site of instance `id` (used only by the
  /// creation-site ablation; called at task-creation time on the creating
  /// thread).
  void note_task_created(TaskInstanceId id);

  // --- Untied-task migration (paper §IV-D) -------------------------------

  /// Remove a *suspended* instance from this profiler's table so another
  /// profiler can adopt it.  Its frames stay in this thread's construct
  /// trees, and the adopting profiler keeps writing there
  /// (single-OS-thread engines only).
  std::unique_ptr<TaskInstanceState> detach_instance(TaskInstanceId id);

  /// Adopt a migrated instance (it stays suspended until task_switch).
  void adopt_instance(std::unique_ptr<TaskInstanceState> state);

  // --- Crash-safe capture (src/snapshot) ----------------------------------

  /// Fold this profiler's implicit tree and per-construct task trees,
  /// and its scalars, into `into` (fold_thread) without stopping the run
  /// for longer than one event boundary.  Protocol (DESIGN.md §11,
  /// "Capture handshake"): set the pause flag, run one process-wide
  /// memory barrier (membarrier(2)), which stands in for the fence the
  /// worker side leaves out, wait for the event sequence number to be
  /// even (no event body open), fold, clear the flag; an event that
  /// starts meanwhile observes the flag and parks at its boundary.  The
  /// fold closes every open frame in `into` while the live frames stay
  /// open: the implicit stack and the running instance's stack at the
  /// profiler's last event timestamp, a suspended instance's stack at its
  /// suspend instant.  So each in-flight instance is held up to the
  /// capture instant, and the capture satisfies the per-node fragment
  /// invariants and stub-vs-task time conservation (except for an
  /// instance lent to another profiler, DESIGN.md §11).  Returns false —
  /// folding nothing — when the handshake is disarmed
  /// (options.snapshot_every == 0), the barrier fails, or the worker
  /// failed to quiesce within the timeout.  Must be called from a thread
  /// that does not drive this profiler's events.
  [[nodiscard]] bool capture(AggregateProfile& into) const;

  /// Register the process for the capture barrier
  /// (MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED).  Armed profilers and
  /// instrumentors call it on construction; the kernel treats repeats as
  /// no-ops.  Throws std::system_error when the kernel refuses.
  static void register_capture_barrier();

  // --- Results ------------------------------------------------------------

  /// Close the remaining open implicit frames (normally just the implicit
  /// root) at the clock's current reading (an event clock returns the
  /// thread's last event stamp).  Call once, after all parallel work is
  /// done; required before the implicit root's inclusive time is valid.
  void finalize();

  [[nodiscard]] ThreadProfileView view() const;
  [[nodiscard]] const CallNode* implicit_root() const noexcept {
    return implicit_root_;
  }
  [[nodiscard]] TaskInstanceId current_task() const noexcept;
  [[nodiscard]] std::size_t active_instances() const noexcept {
    return instances_.size();
  }
  [[nodiscard]] std::size_t max_concurrent_instances() const noexcept {
    return max_active_;
  }
  /// Reset the concurrency high-water mark (paper records it per parallel
  /// region).
  void reset_max_concurrent() noexcept { max_active_ = instances_.size(); }

  /// Rebind the time source (engines may hand out a fresh per-worker
  /// clock for every parallel region).  The new clock must not read
  /// earlier than the previous one.
  void set_clock(const Clock& clock) noexcept { clock_ = &clock; }

  [[nodiscard]] NodePool& pool() noexcept { return pool_; }
  [[nodiscard]] const NodePool& pool() const noexcept { return pool_; }
  [[nodiscard]] const MeasureOptions& options() const noexcept {
    return options_;
  }

 private:
  struct ImplicitFrame {
    CallNode* node = nullptr;
    Ticks enter_time = 0;
  };

  void enter_stub(const TaskInstanceState& instance, Ticks now);
  void exit_stub(Ticks now);
  /// Fig. 12 TaskSwitch: suspend the current explicit task (if any), make
  /// `target` current (nullptr = implicit task), resume its measurement.
  void switch_to(TaskInstanceState* target, Ticks now);
  /// The time `frame` has been open at `now`, less the instance's
  /// suspension since its enter (when pause_on_suspend).
  [[nodiscard]] Ticks frame_duration(const TaskInstanceState& instance,
                                     const TaskInstanceState::Frame& frame,
                                     Ticks now) const noexcept;
  /// Add frame_duration to the frame's node as one visit.
  void close_frame(const TaskInstanceState& instance,
                   const TaskInstanceState::Frame& frame, Ticks now);
  TaskInstanceState* find_instance(TaskInstanceId id) noexcept;
  std::unique_ptr<TaskInstanceState> take_instance(TaskInstanceId id);
  CallNode* task_root_for(RegionHandle region, std::int64_t parameter);

  ThreadId thread_;
  const Clock* clock_;
  MeasureOptions options_;

  NodePool pool_;
  CallNode* implicit_root_;
  std::vector<ImplicitFrame> implicit_stack_;

  // Active instances.  Linear vector: the paper measured at most 20
  // concurrent instances per thread (Table II), so O(n) lookup is cheap
  // and avoids hashing on the hot path.  Untied/adopted instances can
  // accumulate far beyond that, so lookups keep a last-hit index (tasks
  // overwhelmingly re-address the instance they just touched) and
  // removal is swap-and-pop instead of an order-preserving erase.
  std::vector<std::unique_ptr<TaskInstanceState>> instances_;
  std::size_t last_hit_ = 0;  ///< index of the most recently found instance
  std::vector<std::unique_ptr<TaskInstanceState>> instance_freelist_;
  TaskInstanceState* current_ = nullptr;  // nullptr = implicit task

  // Per-construct task trees, beside the main tree (§IV-B3), in
  // first-begin order.  Lookup on task_begin keeps a last-hit pointer
  // (instances of one construct begin in runs) and promotes to an
  // open-addressed index once the root count crosses kChildIndexFanout —
  // parameter profiling (per-depth nqueens) produces one root per
  // parameter value, and an O(roots) scan per instance dominated those
  // runs.
  std::vector<CallNode*> task_roots_;
  CallNode* last_task_root_ = nullptr;
  ChildIndex task_root_index_;
  bool task_root_index_active_ = false;

  // Creation-site ablation bookkeeping: the implicit-tree node each
  // instance was created under.  Lazily allocated: the default
  // configuration never touches (or even constructs) the map.
  std::unique_ptr<std::unordered_map<TaskInstanceId, CallNode*>>
      creation_sites_;

  std::size_t max_active_ = 0;
  std::uint64_t task_switches_ = 0;
  std::size_t implicit_folded_ = 0;
  std::uint64_t total_folds_ = 0;

  // --- Crash-safe capture coordination (see capture()) --------------------
  // Armed only when options_.snapshot_every > 0; disarmed, every event
  // pays a single predictable branch and never touches the atomics.
  // event_seq_ is odd while an event body runs (EventScope, .cpp); only
  // the owning thread writes it.  capture_pause_ asks workers to hold at
  // their next event boundary.
  class EventScope;
  bool capture_enabled_ = false;
  mutable std::atomic<bool> capture_pause_{false};
  mutable std::atomic<std::uint64_t> event_seq_{0};
  /// Timestamp of the most recent event, used to close open frames in a
  /// capture — the engine's clock may live on a worker's stack and must
  /// not be dereferenced from the flusher thread.
  Ticks last_event_ticks_ = 0;
};

}  // namespace taskprof

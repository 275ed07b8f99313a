// Real-thread tasking engine.
//
// N std::thread workers execute a parallel region; explicit tasks go to
// per-thread deques (owner: LIFO, thieves: FIFO).  Tied-task semantics are
// realized by *nested execution*: a thread reaching a scheduling point
// (taskwait, barrier) runs further tasks on its own stack, so a suspended
// task resumes exactly where the nested task finishes — on the same
// thread.  This is how untied-less OpenMP runtimes behave and produces the
// interleaved event streams of the paper's Fig. 2 / Fig. 4.
//
// Untied tasks are demoted to tied (documented paper work-around, §IV-D2);
// the simulator engine implements real migration.
//
// Each worker's queue is a lock-free Chase–Lev work-stealing deque
// (DESIGN.md §7); the taskgraph scheduler replays a recorded task graph on
// top of it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "rt/runtime.hpp"
#include "rt/topology.hpp"

namespace taskprof::rt {

class SchedulePolicy;  // rt/schedule_policy.hpp

/// How the engine schedules explicit tasks.  Both kinds run the same
/// tasks; the taskgraph replay only changes who runs them when.
enum class SchedulerKind : std::uint8_t {
  kChaseLev,  ///< lock-free Chase–Lev deque (rt/steal_deque.hpp)
  /// Record-and-replay static scheduler (rt/taskgraph.hpp, DESIGN.md §12):
  /// the first parallel region records the task graph on the Chase–Lev
  /// core; subsequent regions replay it through precomputed per-worker
  /// run lists — no deque pushes, no steals, no allocation.  Divergence
  /// from the recorded shape falls back to the Chase–Lev deques within
  /// the region and marks the graph stale (fully dynamic afterwards).
  kTaskGraph,
};

struct RealConfig {
  /// Dynamic scheduling or taskgraph record-and-replay.
  SchedulerKind scheduler = SchedulerKind::kChaseLev;
  /// Seeded schedule perturbation (victim rotation, steal-before-pop,
  /// injected yields) for the fuzzing harness in src/check/.  Not owned;
  /// must outlive the runtime.  nullptr leaves scheduling unperturbed.
  const SchedulePolicy* policy = nullptr;
  /// Locality-domain layout for hierarchical victim selection
  /// (rt/topology.hpp): idle workers probe their own domain first and
  /// escalate to batched cross-domain steals only after repeated local
  /// misses.  The default (one domain) keeps the flat steal sweep
  /// bit-identical to the pre-topology engine.  Composes with `policy`
  /// (rotations stay seeded-deterministic within the hierarchy) and with
  /// the kTaskGraph divergence fallback (which steals through the same
  /// path).
  Topology topology;
};

class RealRuntime final : public Runtime {
 public:
  explicit RealRuntime(RealConfig config = {});
  ~RealRuntime() override;

  RealRuntime(const RealRuntime&) = delete;
  RealRuntime& operator=(const RealRuntime&) = delete;

  void set_hooks(SchedulerHooks* hooks) override;
  void set_telemetry(telemetry::Registry* registry) override;
  TeamStats parallel(int num_threads, TaskFn body) override;
  [[nodiscard]] Ticks now() const override;

  // --- SchedulerKind::kTaskGraph state (no-ops on the other kinds) ------

  /// True once a recording region has produced a frozen TaskGraph.
  [[nodiscard]] bool taskgraph_recorded() const noexcept;
  /// True when a replay diverged and later regions run fully dynamic.
  [[nodiscard]] bool taskgraph_stale() const noexcept;
  /// First cause of the staleness (SchedulerNote::kNone when not stale);
  /// sticky until reset_taskgraph().
  [[nodiscard]] SchedulerNote taskgraph_fallback_reason() const noexcept;
  /// Recorded node count (0 before the first recording).
  [[nodiscard]] std::size_t taskgraph_size() const noexcept;
  /// Drop the recorded graph: the next parallel region records afresh.
  void reset_taskgraph() noexcept;

  /// Implementation detail (public only so the engine-internal context
  /// class in the .cpp can name it; not part of the API).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace taskprof::rt

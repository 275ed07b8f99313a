// Discrete-event virtual-time SMP tasking engine.
//
// Substitute for the paper's evaluation platform (Juropa, 2x quad-core
// Nehalem): P virtual workers execute real task code on fibers while all
// *time* is virtual.  ctx.work(cost) advances the executing worker's
// clock; every task-management action (enqueue, dequeue, completion
// bookkeeping) passes through one simulated management lock with a
// configurable service time, so queueing delay — the paper's explanation
// for the scaling pathologies of fine-grained tasking ("presumably due to
// necessary locking during access to internal data structures", §V-A) —
// emerges from the event ordering.  When measurement hooks are attached,
// each event additionally charges a per-event instrumentation cost outside
// the lock, which reproduces the overhead-shadowing effect of Fig. 14.
//
// The engine runs on a single OS thread and is fully deterministic: the
// same program and configuration produce tick-identical results.
//
// Untied tasks: a suspended untied task parks in a global set and may be
// resumed by any worker, migrating its profiling state via the
// on_task_migrate hook — the design of paper §IV-D, which the authors
// could not exercise for lack of runtime support.
#pragma once

#include <memory>

#include "rt/runtime.hpp"
#include "rt/topology.hpp"

namespace taskprof::rt {

class DurationScale;   // rt/duration_scale.hpp
class SchedulePolicy;  // rt/schedule_policy.hpp

/// Virtual-time cost model (all values in ticks = nanoseconds).  Defaults
/// are calibrated so the BOTS reproduction exhibits the paper's shapes;
/// the ablation bench sweeps them.
struct SimCosts {
  Ticks create_local = 150;     ///< task setup on the creator, outside the lock
  Ticks create_service = 260;   ///< lock hold time for enqueueing a task
  Ticks dequeue_service = 220;  ///< lock hold time for dequeueing a task
  Ticks complete_service = 180; ///< lock hold time for completion bookkeeping
  Ticks switch_local = 90;      ///< local cost of suspending/resuming a task
  Ticks taskwait_check = 40;    ///< local cost of the taskwait child check
  Ticks poll_interval = 400;    ///< idle worker re-check period
  Ticks instr_event = 140;      ///< per measurement event, when instrumented

  /// Contention degradation: a lock operation's service time inflates by
  /// `1 + contention_penalty * competitors`, where competitors counts the
  /// other workers that issued a lock operation within the last
  /// `contention_window` ticks.  Models cache-line bouncing / CAS retry
  /// cost of a contended lock — the mechanism behind the paper's "mean
  /// time for a management action increases with increasing number of
  /// threads" (§VI) and the runtime growth of Fig. 15.
  double contention_penalty = 0.7;
  Ticks contention_window = 2'500;
};

struct SimConfig {
  SimCosts costs;
  /// Allow suspended untied tasks to resume on a different worker.
  bool untied_migration = true;
  /// Take the *newest* queued task at scheduling points (depth-first, how
  /// production runtimes behave and what bounds the paper's Table II
  /// concurrent-instance counts by the recursion depth).  false = FIFO
  /// (breadth-first), available for the ablation bench.
  bool lifo_dequeue = true;
  /// At a taskwait, a worker only executes *direct children* of the
  /// waiting task (GCC-4.6-libgomp behaviour, which the paper measured).
  /// This is what keeps the suspended-task chain — and thus the profiler's
  /// Table II memory bound — at the recursion depth.  false = any queued
  /// task may run at a taskwait (LLVM-style), available for the ablation.
  bool strict_taskwait_scheduling = true;
  /// Seeded schedule perturbation (dequeue choice, untied resume choice,
  /// virtual-time jitter) for the fuzzing harness in src/check/.  Not
  /// owned; must outlive the runtime.  Because the engine is
  /// deterministic, the same policy seed reproduces the exact same
  /// interleaving — this is the replay side of the seed protocol.
  const SchedulePolicy* policy = nullptr;
  /// What-if hypothesis (src/whatif): per-region factors applied to the
  /// declared ctx.work() cost of explicit tasks.  Not owned; must outlive
  /// the runtime.  nullptr = no scaling.
  const DurationScale* duration_scale = nullptr;
  /// Simulated machine topology (rt/topology.hpp).  With more than one
  /// locality domain the contention model becomes non-uniform: a dequeue
  /// whose task was created in another domain pays the interconnect
  /// latency plus a cold-cache refill, and remote competitors inflate
  /// lock service times more than local ones.  Topology::hierarchical
  /// selects the victim policy on that machine: workers prefer
  /// same-domain work and amortize cross-domain takes through batched
  /// transfer leases (DESIGN.md §15).  The default single-domain
  /// topology is bit-identical to the pre-topology engine.  This is how
  /// the simulator models machines we don't have — the 256-worker
  /// scaling study of bench_numa_scaling.
  Topology topology;
};

class SimRuntime final : public Runtime {
 public:
  explicit SimRuntime(SimConfig config = {});
  ~SimRuntime() override;

  SimRuntime(const SimRuntime&) = delete;
  SimRuntime& operator=(const SimRuntime&) = delete;

  void set_hooks(SchedulerHooks* hooks) override;
  void set_telemetry(telemetry::Registry* registry) override;
  TeamStats parallel(int num_threads, TaskFn body) override;

  /// Current virtual time (max over workers; advances across regions).
  [[nodiscard]] Ticks now() const override;

  [[nodiscard]] const SimConfig& config() const;

  /// Implementation detail (public only so the engine-internal context
  /// class in the .cpp can name it; not part of the API).
  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace taskprof::rt

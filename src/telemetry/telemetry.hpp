// Profiler self-observability: the lock-free scheduler telemetry registry.
//
// The paper makes *application* task scheduling visible; this subsystem
// makes the profiling engine itself visible — steal success rates, deque
// high-water marks, slab occupancy, and what the measurement layer costs
// (the §V overhead analysis, estimated from inside the run by timing a
// random sample of the hook callbacks instead of by comparing two wall
// clocks).  The design follows the same per-thread memory rule as the
// measurement layer:
//
//  * every thread owns one cache-line-isolated block of counter slots and
//    writes only to its own block; single-writer slots mean counters are
//    relaxed load+store (no locked RMW, no contention, no false sharing);
//  * gauges are monotonic high-water marks with a single writer per slot,
//    so a relaxed load/compare/store suffices — no CAS;
//  * snapshot() may run concurrently with recording: it reads every slot
//    relaxed and aggregates.  Values are exact once the region quiesces
//    and at-most-one-event stale while it runs, which is the right trade
//    for a dashboard/telemetry sink.  The exception is the hook pair
//    (kHookEvents / kHookTicks): TimedHooks charges a sampled gap at a
//    time, so mid-region they lag by less than one gap per thread;
//  * no sink attached (Registry* == nullptr at the engine) means no slot
//    is ever touched — the hot path pays one predictable branch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/types.hpp"
#include "rt/hooks.hpp"

namespace taskprof::telemetry {

/// Monotonic event counters.  Both engines record the shared subset;
/// engine-specific counters simply stay zero on the other engine.
enum class Counter : std::uint32_t {
  kTasksCreated,        ///< explicit task instances created
  kTasksExecuted,       ///< explicit task instances completed
  kTasksDeferred,       ///< created deferred (enqueued)
  kTasksUndeferred,     ///< created undeferred (ran inline)
  kStealAttempts,       ///< victim-queue probes by idle threads
  kStealSuccesses,      ///< probes that yielded a task
  kStealAborts,         ///< empty-handed probe rounds (all victims empty)
  kTaskwaitEntries,     ///< taskwait scheduling points entered
  kBarrierEntries,      ///< barrier scheduling points entered
  kSingleWins,          ///< single constructs won
  kSchedYields,         ///< idle spins that escalated to a thread yield
  kSlabAllocs,          ///< TaskRecord allocations (fresh or recycled)
  kSlabRecycles,        ///< records returned to their slab
  kSlabRemoteRecycles,  ///< ... returned by a thread other than the owner
  kMigrations,          ///< untied resumptions on a new worker (sim)
  kHookEvents,          ///< measurement-hook invocations (self-timing)
  kHookTicks,           ///< wall ticks inside measurement hooks (sampled
                        ///< estimate, see TimedHooks)
  kTaskgraphRecords,    ///< parallel regions that recorded a task graph
  kTaskgraphReplays,    ///< parallel regions replayed from a task graph
  kTaskgraphFallbacks,  ///< regions run dynamically on a stale graph
  kTaskgraphDivergences,    ///< replay shape mismatches detected
  kTaskgraphStaticSpawns,   ///< replay spawns served from the static slots
  kTaskgraphDynamicSpawns,  ///< replay spawns that fell back to the deques
  kTaskgraphDivergeStructure,  ///< divergences: recorded-shape mismatch
  kTaskgraphDivergeShortSpawn, ///< divergences: fewer children than recorded
  kTaskgraphDivergeResidue,    ///< divergences: unspawned residue at the end
  kStealsInDomain,      ///< steals whose victim shares the thief's domain
  kStealsCrossDomain,   ///< steals that crossed a locality-domain boundary
  kStealBatchTasks,     ///< tasks moved by batched cross-domain steals
  kStealEscalations,    ///< local-miss limits hit (worker went remote)
  kCount_
};

/// High-water gauges (monotonic maxima, reset() starts a new episode).
enum class Gauge : std::uint32_t {
  kDequeDepth,     ///< deepest owner deque observed at an enqueue
  kSlabRecords,    ///< most TaskRecords ever carved by one thread's slab
  kTaskStackDepth, ///< deepest nested-execution stack (real engine)
  kRunQueueDepth,  ///< central-queue depth (simulator)
  kCount_
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount_);
inline constexpr std::size_t kGaugeCount =
    static_cast<std::size_t>(Gauge::kCount_);

[[nodiscard]] std::string_view counter_name(Counter c) noexcept;
[[nodiscard]] std::string_view gauge_name(Gauge g) noexcept;

/// Aggregated point-in-time view of a Registry (see Registry::snapshot).
struct Snapshot {
  int threads = 0;  ///< per-thread blocks that have recorded anything
  std::array<std::uint64_t, kCounterCount> counters{};  ///< summed
  std::array<std::uint64_t, kGaugeCount> gauges{};      ///< max over threads
  std::vector<std::array<std::uint64_t, kCounterCount>> per_thread;

  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t gauge(Gauge g) const noexcept {
    return gauges[static_cast<std::size_t>(g)];
  }

  /// Steal successes / attempts; 0 when no attempt was made.
  [[nodiscard]] double steal_success_rate() const noexcept;

  /// Mean wall ticks per measurement-hook invocation (self-timing).
  [[nodiscard]] double hook_mean_ticks() const noexcept;
};

/// Machine-readable export of a snapshot (one flat JSON object: counters,
/// gauges, derived rates, and a per-thread counter matrix).
[[nodiscard]] std::string snapshot_to_json(const Snapshot& snapshot);

/// Fold `src` into `dst`, matching how the registry aggregates blocks:
/// counters sum, gauges take the maximum, and the per-thread matrices
/// concatenate (each source process keeps its own rows).  Used by the
/// snapshot merge tool to collate per-process telemetry sections.
void merge_into(Snapshot& dst, const Snapshot& src);

/// The telemetry sink.  Attach to an engine with Runtime::set_telemetry;
/// one registry may accumulate across several parallel regions.
class Registry {
 public:
  Registry();
  ~Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Ensure blocks for thread ids [0, num_threads) exist.  Called by the
  /// engines at parallel-region entry (single-threaded point); existing
  /// counts are kept.  Must not race with add/gauge_max.
  void prepare(int num_threads);

  /// Record `n` occurrences of `c` on `thread`'s block.  Wait-free: a
  /// relaxed load+store on a thread-private cache line.  Each slot has a
  /// single writer (the owning thread), so the non-RMW update loses
  /// nothing — and unlike fetch_add it compiles to plain moves instead of
  /// a locked instruction, which is what keeps the sink-attached hot path
  /// within the <5 % overhead budget on 100 ns tasks
  /// (bench_telemetry_overhead).
  void add(ThreadId thread, Counter c, std::uint64_t n = 1) noexcept {
    std::atomic<std::uint64_t>& s = slot(thread, c);
    s.store(s.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }

  class ThreadSlots;

  /// Borrow a direct handle to `thread`'s block (which must exist — call
  /// after prepare()).  Engines cache one per worker so the per-event path
  /// skips the registry's block-table indirection; the handle stays valid
  /// for the registry's lifetime (prepare() never moves blocks).
  [[nodiscard]] ThreadSlots slots(ThreadId thread) noexcept;

  /// Raise `g`'s high-water mark on `thread`'s block to at least `value`.
  /// Single writer per slot, so load+store (no CAS) is exact.
  void gauge_max(ThreadId thread, Gauge g, std::uint64_t value) noexcept {
    std::atomic<std::uint64_t>& s = gauge_slot(thread, g);
    if (value > s.load(std::memory_order_relaxed)) {
      s.store(value, std::memory_order_relaxed);
    }
  }

  /// Aggregate every block.  Safe to call while a region runs (relaxed
  /// reads; exact when quiescent).
  [[nodiscard]] Snapshot snapshot() const;

  /// Zero every slot (between measurement episodes; not concurrently with
  /// recording).
  void reset();

  [[nodiscard]] int thread_capacity() const noexcept {
    return static_cast<int>(blocks_.size());
  }

 private:
  /// One thread's slots, isolated to its own cache lines.
  struct alignas(64) Block {
    std::array<std::atomic<std::uint64_t>, kCounterCount> counters{};
    std::array<std::atomic<std::uint64_t>, kGaugeCount> gauges{};
  };

  std::atomic<std::uint64_t>& slot(ThreadId thread, Counter c) noexcept {
    return blocks_[thread]->counters[static_cast<std::size_t>(c)];
  }
  std::atomic<std::uint64_t>& gauge_slot(ThreadId thread, Gauge g) noexcept {
    return blocks_[thread]->gauges[static_cast<std::size_t>(g)];
  }

  // unique_ptr blocks: growth in prepare() never moves live atomics.
  std::vector<std::unique_ptr<Block>> blocks_;
};

/// Null-safe single-thread view of one worker's counter block.  Default
/// construction is the detached state: every call is a predictable-branch
/// no-op, so engines keep one unconditionally in their per-thread state
/// and skip the `registry != nullptr` check at each event site.  All
/// writes must come from the owning thread (single-writer slots).
class Registry::ThreadSlots {
 public:
  ThreadSlots() = default;

  [[nodiscard]] bool attached() const noexcept { return block_ != nullptr; }

  void add(Counter c, std::uint64_t n = 1) noexcept {
    if (block_ == nullptr) return;
    std::atomic<std::uint64_t>& s =
        block_->counters[static_cast<std::size_t>(c)];
    s.store(s.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }

  void gauge_max(Gauge g, std::uint64_t value) noexcept {
    if (block_ == nullptr) return;
    std::atomic<std::uint64_t>& s =
        block_->gauges[static_cast<std::size_t>(g)];
    if (value > s.load(std::memory_order_relaxed)) {
      s.store(value, std::memory_order_relaxed);
    }
  }

 private:
  friend class Registry;
  explicit ThreadSlots(Block* block) noexcept : block_(block) {}

  Block* block_ = nullptr;
};

inline Registry::ThreadSlots Registry::slots(ThreadId thread) noexcept {
  return ThreadSlots(blocks_[thread].get());
}

/// Self-timing decorator: forwards every scheduler event to `inner`,
/// counts each one exactly and times about one in kSampleGap, charging
/// Counter::kHookEvents / kHookTicks on the thread the callback runs on.
/// This is how the profiler's own overhead lands *next to* the profile it
/// produced — the paper's §V overhead numbers, measured in-band — without
/// two clock reads per event doubling the cost it measures.
///
/// Sampling is per thread.  A countdown picks the timed callback; the gap
/// before the next one is drawn uniformly from [1, 2 * kSampleGap - 1] by
/// a xorshift generator seeded from the thread id (random gaps, because a
/// fixed stride aliases with periodic callback sequences such as fib's
/// per-task pattern).  A timed callback stands for its whole gap:
/// kHookEvents += gap and kHookTicks += ticks x gap, so kHookTicks is an
/// unbiased estimate and a callback of constant cost gives it exactly.
/// on_implicit_task_end, on_parallel_end and on_scheduler_note are always
/// timed and close the open gap with the callbacks it holds, so
/// kHookEvents is exact once a region ends; mid-region it lags by less
/// than one gap per thread.
class TimedHooks final : public rt::SchedulerHooks {
 public:
  /// Mean number of callbacks one timed callback stands for.
  static constexpr std::uint32_t kSampleGap = 64;

  /// `inner` and `registry` must outlive the decorator.  `clock` defaults
  /// to a steady wall clock; tests inject a ManualClock.  Callbacks may
  /// only arrive after on_parallel_begin sized the per-thread samplers,
  /// which every engine guarantees.
  TimedHooks(rt::SchedulerHooks* inner, Registry* registry,
             const Clock* clock = nullptr);

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

 private:
  /// One thread's sampling state on its own cache line; only callbacks
  /// running on that thread touch it.
  struct alignas(64) Sampler {
    Registry::ThreadSlots slots;
    std::uint32_t countdown = 0;  ///< callbacks left in the open gap
    std::uint32_t gap = 0;        ///< callbacks the open gap stands for
    std::uint64_t rng = 0;        ///< xorshift64 state, never zero
  };

  /// Forward through `forward`, timing it only when the countdown ends.
  template <typename Forward>
  void sampled(ThreadId thread, const Forward& forward);
  /// Forward and time unconditionally, closing the open gap.
  template <typename Forward>
  void flushed(ThreadId thread, const Forward& forward);
  /// Time `forward`, charge it `weight` times and open the next gap.
  template <typename Forward>
  void timed(Sampler& sampler, std::uint32_t weight, const Forward& forward);

  rt::SchedulerHooks* inner_;
  Registry* registry_;
  SteadyClock default_clock_;
  const Clock* clock_;
  std::vector<Sampler> samplers_;  ///< grown only in on_parallel_begin
};

}  // namespace taskprof::telemetry

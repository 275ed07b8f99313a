// Layer timing for the benchmark's separate layer-timing pass: a hook
// decorator that times each listener per callback kind, and an in-memory
// span log around the coarse public calls.  The end-to-end samples never
// use either.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "measure/aggregate.hpp"
#include "rt/hooks.hpp"

namespace perfbench {

/// Callback kinds the decorator tells apart.
enum class Callback : std::uint8_t {
  kCreateBegin,
  kCreateEnd,
  kTaskBegin,
  kTaskEnd,
  kTaskSwitch,
  kTaskwaitBegin,
  kTaskwaitEnd,
  kRegionEnter,
  kRegionExit,
  kOther,  ///< parallel/implicit/barrier/migrate/work/note
  kCount_
};
inline constexpr std::size_t kCallbackKinds =
    static_cast<std::size_t>(Callback::kCount_);

/// Per-kind totals of one decorated listener over one run.
struct HookTotals {
  std::array<std::uint64_t, kCallbackKinds> count{};
  std::array<std::uint64_t, kCallbackKinds> ticks{};

  [[nodiscard]] std::uint64_t events() const noexcept;
  [[nodiscard]] std::uint64_t total_ticks() const noexcept;
  /// Mean ns per callback of `kind` with the clock floor taken out (the
  /// measured interval includes about one clock read); 0 when idle.
  [[nodiscard]] double mean_ns(Callback kind, double floor_ns) const noexcept;
  /// Mean ns per callback over all kinds, clock floor taken out.
  [[nodiscard]] double mean_ns(double floor_ns) const noexcept;
};

/// Forwards every scheduler event to `inner` and accumulates, per thread
/// and per callback kind, the number of calls and the ticks spent inside
/// them.  Each worker writes only its own cache-line-aligned slot; read
/// totals() only after the parallel region has joined.
class TimedLayer final : public taskprof::rt::SchedulerHooks {
 public:
  /// `inner` must outlive the decorator; regions may use at most
  /// `max_threads` threads.
  TimedLayer(taskprof::rt::SchedulerHooks* inner, int max_threads);
  TimedLayer(const TimedLayer&) = delete;
  TimedLayer& operator=(const TimedLayer&) = delete;

  [[nodiscard]] HookTotals totals() const;

  void on_parallel_begin(int num_threads) override;
  void on_parallel_end() override;
  void on_implicit_task_begin(taskprof::ThreadId thread,
                              const taskprof::Clock& clock) override;
  void on_implicit_task_end(taskprof::ThreadId thread) override;
  void on_task_create_begin(taskprof::ThreadId thread,
                            taskprof::RegionHandle region,
                            std::int64_t parameter) override;
  void on_task_create_end(taskprof::ThreadId thread,
                          taskprof::TaskInstanceId created,
                          taskprof::RegionHandle region,
                          std::int64_t parameter) override;
  void on_task_begin(taskprof::ThreadId thread, taskprof::TaskInstanceId id,
                     taskprof::RegionHandle region,
                     std::int64_t parameter) override;
  void on_task_end(taskprof::ThreadId thread,
                   taskprof::TaskInstanceId id) override;
  void on_task_switch(taskprof::ThreadId thread,
                      taskprof::TaskInstanceId id) override;
  void on_task_migrate(taskprof::ThreadId from, taskprof::ThreadId to,
                       taskprof::TaskInstanceId id) override;
  void on_task_work(taskprof::ThreadId thread, taskprof::Ticks cost) override;
  void on_taskwait_begin(taskprof::ThreadId thread) override;
  void on_taskwait_end(taskprof::ThreadId thread) override;
  void on_barrier_begin(taskprof::ThreadId thread, bool implicit) override;
  void on_barrier_end(taskprof::ThreadId thread, bool implicit) override;
  void on_region_enter(taskprof::ThreadId thread,
                       taskprof::RegionHandle region,
                       std::int64_t parameter) override;
  void on_region_exit(taskprof::ThreadId thread,
                      taskprof::RegionHandle region) override;
  void on_scheduler_note(taskprof::ThreadId thread,
                         taskprof::rt::SchedulerNote note,
                         std::int64_t detail) override;

 private:
  struct alignas(64) Slot {
    HookTotals totals;
  };

  /// Times one callback and charges it to the thread's slot.
  class Scope {
   public:
    Scope(TimedLayer& owner, taskprof::ThreadId thread, Callback kind) noexcept
        : slot_(owner.slots_[thread]),
          clock_(owner.clock_),
          kind_(static_cast<std::size_t>(kind)),
          start_(clock_.now()) {}
    ~Scope() {
      slot_.totals.count[kind_] += 1;
      slot_.totals.ticks[kind_] +=
          static_cast<std::uint64_t>(clock_.now() - start_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Slot& slot_;
    const taskprof::Clock& clock_;
    std::size_t kind_;
    taskprof::Ticks start_;
  };

  taskprof::rt::SchedulerHooks* inner_;
  taskprof::SteadyClock steady_;
  const taskprof::Clock& clock_ = steady_;
  std::vector<Slot> slots_;
};

/// Wall-clock ns per SteadyClock::now() through the virtual Clock
/// interface, the floor every timed interval above carries.
[[nodiscard]] double measure_clock_floor_ns();

/// Nodes of the implicit tree plus every merged task tree (the
/// profile.callpaths metric).
[[nodiscard]] std::size_t count_callpaths(
    const taskprof::AggregateProfile& profile);

/// Widest sibling list anywhere in the profile, the task-tree roots
/// included (the profile.max_fanout metric).
[[nodiscard]] std::size_t max_fanout(const taskprof::AggregateProfile& profile);

/// One timed call: name, start, end (steady-clock ns) and the index of the
/// enclosing span (-1 at top level).
struct Span {
  std::string name;
  taskprof::Ticks start = 0;
  taskprof::Ticks end = 0;
  int parent = -1;
};

/// Spans kept in memory for the whole layer-timing pass.  Single-threaded:
/// only the driver's main thread opens spans.
class SpanLog {
 public:
  /// Opens a span on construction and closes it on destruction; a null
  /// log makes it a no-op, which is how the end-to-end samples run.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  /// Record an already-timed span (e.g. one measured on another thread)
  /// under the currently open span.
  void add(const char* name, taskprof::Ticks start, taskprof::Ticks end);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Duration in seconds of the first span called `name` among the spans
  /// with index in [begin, end); 0 when there is none.
  [[nodiscard]] double seconds(const std::string& name, std::size_t begin,
                               std::size_t end) const;
  /// Spans as a JSON array of {name, start_ns, end_ns, parent}.
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Span> spans_;
  int open_ = -1;
  taskprof::SteadyClock clock_;
};

}  // namespace perfbench

#include "telemetry/telemetry.hpp"

#include "common/assert.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"

namespace taskprof::telemetry {

std::string_view counter_name(Counter c) noexcept {
  switch (c) {
    case Counter::kTasksCreated: return "tasks_created";
    case Counter::kTasksExecuted: return "tasks_executed";
    case Counter::kTasksDeferred: return "tasks_deferred";
    case Counter::kTasksUndeferred: return "tasks_undeferred";
    case Counter::kStealAttempts: return "steal_attempts";
    case Counter::kStealSuccesses: return "steal_successes";
    case Counter::kStealAborts: return "steal_aborts";
    case Counter::kTaskwaitEntries: return "taskwait_entries";
    case Counter::kBarrierEntries: return "barrier_entries";
    case Counter::kSingleWins: return "single_wins";
    case Counter::kSchedYields: return "sched_yields";
    case Counter::kSlabAllocs: return "slab_allocs";
    case Counter::kSlabRecycles: return "slab_recycles";
    case Counter::kSlabRemoteRecycles: return "slab_remote_recycles";
    case Counter::kMigrations: return "migrations";
    case Counter::kHookEvents: return "hook_events";
    case Counter::kHookTicks: return "hook_ticks";
    case Counter::kTaskgraphRecords: return "taskgraph_records";
    case Counter::kTaskgraphReplays: return "taskgraph_replays";
    case Counter::kTaskgraphFallbacks: return "taskgraph_fallbacks";
    case Counter::kTaskgraphDivergences: return "taskgraph_divergences";
    case Counter::kTaskgraphStaticSpawns: return "taskgraph_static_spawns";
    case Counter::kTaskgraphDynamicSpawns: return "taskgraph_dynamic_spawns";
    case Counter::kTaskgraphDivergeStructure:
      return "taskgraph_diverge_structure";
    case Counter::kTaskgraphDivergeShortSpawn:
      return "taskgraph_diverge_short_spawn";
    case Counter::kTaskgraphDivergeResidue:
      return "taskgraph_diverge_residue";
    case Counter::kStealsInDomain: return "steals_in_domain";
    case Counter::kStealsCrossDomain: return "steals_cross_domain";
    case Counter::kStealBatchTasks: return "steal_batch_tasks";
    case Counter::kStealEscalations: return "steal_escalations";
    case Counter::kCount_: break;
  }
  return "?";
}

std::string_view gauge_name(Gauge g) noexcept {
  switch (g) {
    case Gauge::kDequeDepth: return "deque_depth_hwm";
    case Gauge::kSlabRecords: return "slab_records_hwm";
    case Gauge::kTaskStackDepth: return "task_stack_depth_hwm";
    case Gauge::kRunQueueDepth: return "run_queue_depth_hwm";
    case Gauge::kCount_: break;
  }
  return "?";
}

double Snapshot::steal_success_rate() const noexcept {
  const std::uint64_t attempts = counter(Counter::kStealAttempts);
  if (attempts == 0) return 0.0;
  return static_cast<double>(counter(Counter::kStealSuccesses)) /
         static_cast<double>(attempts);
}

double Snapshot::hook_mean_ticks() const noexcept {
  const std::uint64_t events = counter(Counter::kHookEvents);
  if (events == 0) return 0.0;
  return static_cast<double>(counter(Counter::kHookTicks)) /
         static_cast<double>(events);
}

std::string snapshot_to_json(const Snapshot& snapshot) {
  JsonWriter json;
  json.begin_object();
  json.field("threads", snapshot.threads);
  json.begin_object("counters");
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    json.field(counter_name(static_cast<Counter>(i)), snapshot.counters[i]);
  }
  json.end_object();
  json.begin_object("gauges");
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    json.field(gauge_name(static_cast<Gauge>(i)), snapshot.gauges[i]);
  }
  json.end_object();
  json.begin_object("derived");
  json.field("steal_success_rate", snapshot.steal_success_rate());
  json.field("hook_mean_ns", snapshot.hook_mean_ticks());
  json.end_object();
  json.begin_array("per_thread");
  for (const auto& row : snapshot.per_thread) {
    json.begin_array({}, JsonWriter::kLine);
    for (const std::uint64_t v : row) json.value(v);
    json.end_array();
  }
  json.end_array();
  json.end_object();
  return json.finish();
}

void merge_into(Snapshot& dst, const Snapshot& src) {
  dst.threads += src.threads;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    dst.counters[i] += src.counters[i];
  }
  for (std::size_t i = 0; i < kGaugeCount; ++i) {
    if (src.gauges[i] > dst.gauges[i]) dst.gauges[i] = src.gauges[i];
  }
  dst.per_thread.insert(dst.per_thread.end(), src.per_thread.begin(),
                        src.per_thread.end());
}

Registry::Registry() = default;
Registry::~Registry() = default;

void Registry::prepare(int num_threads) {
  TASKPROF_ASSERT(num_threads >= 0, "negative thread count");
  while (blocks_.size() < static_cast<std::size_t>(num_threads)) {
    blocks_.push_back(std::make_unique<Block>());
  }
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  snap.threads = static_cast<int>(blocks_.size());
  snap.per_thread.resize(blocks_.size());
  for (std::size_t t = 0; t < blocks_.size(); ++t) {
    const Block& block = *blocks_[t];
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      const std::uint64_t v =
          block.counters[i].load(std::memory_order_relaxed);
      snap.per_thread[t][i] = v;
      snap.counters[i] += v;
    }
    for (std::size_t i = 0; i < kGaugeCount; ++i) {
      const std::uint64_t v = block.gauges[i].load(std::memory_order_relaxed);
      if (v > snap.gauges[i]) snap.gauges[i] = v;
    }
  }
  return snap;
}

void Registry::reset() {
  for (auto& block : blocks_) {
    for (auto& c : block->counters) c.store(0, std::memory_order_relaxed);
    for (auto& g : block->gauges) g.store(0, std::memory_order_relaxed);
  }
}

namespace {

/// Next gap length, uniform in [1, 2 * TimedHooks::kSampleGap - 1]
/// (xorshift64 step, then a multiply-shift range reduction).
std::uint32_t next_gap(std::uint64_t& rng) noexcept {
  rng ^= rng << 13;
  rng ^= rng >> 7;
  rng ^= rng << 17;
  constexpr std::uint64_t kSpan = 2 * TimedHooks::kSampleGap - 1;
  return 1 + static_cast<std::uint32_t>(((rng >> 32) * kSpan) >> 32);
}

}  // namespace

TimedHooks::TimedHooks(rt::SchedulerHooks* inner, Registry* registry,
                       const Clock* clock)
    : inner_(inner),
      registry_(registry),
      clock_(clock != nullptr ? clock : &default_clock_) {
  TASKPROF_ASSERT(inner != nullptr && registry != nullptr,
                  "TimedHooks needs an inner listener and a registry");
}

template <typename Forward>
void TimedHooks::sampled(ThreadId thread, const Forward& forward) {
  Sampler& sampler = samplers_[thread];
  if (--sampler.countdown != 0) {
    forward();
    return;
  }
  timed(sampler, sampler.gap, forward);
}

template <typename Forward>
void TimedHooks::flushed(ThreadId thread, const Forward& forward) {
  Sampler& sampler = samplers_[thread];
  timed(sampler, sampler.gap - sampler.countdown + 1, forward);
}

template <typename Forward>
void TimedHooks::timed(Sampler& sampler, std::uint32_t weight,
                       const Forward& forward) {
  const Ticks start = clock_->now();
  forward();
  const auto ticks = static_cast<std::uint64_t>(clock_->now() - start);
  sampler.slots.add(Counter::kHookEvents, weight);
  sampler.slots.add(Counter::kHookTicks, ticks * weight);
  sampler.gap = next_gap(sampler.rng);
  sampler.countdown = sampler.gap;
}

void TimedHooks::on_parallel_begin(int num_threads) {
  // Single-threaded point: no callback of this decorator is running.
  registry_->prepare(num_threads);
  while (samplers_.size() < static_cast<std::size_t>(num_threads)) {
    const auto thread = static_cast<ThreadId>(samplers_.size());
    Sampler& sampler = samplers_.emplace_back();
    sampler.slots = registry_->slots(thread);
    sampler.rng = SplitMix64(thread).next() | 1;
    sampler.gap = next_gap(sampler.rng);
    sampler.countdown = sampler.gap;
  }
  // The encountering thread is the master.
  sampled(0, [&] { inner_->on_parallel_begin(num_threads); });
}

void TimedHooks::on_parallel_end() {
  flushed(0, [&] { inner_->on_parallel_end(); });
}

void TimedHooks::on_implicit_task_begin(ThreadId thread, const Clock& clock) {
  sampled(thread, [&] { inner_->on_implicit_task_begin(thread, clock); });
}

void TimedHooks::on_implicit_task_end(ThreadId thread) {
  flushed(thread, [&] { inner_->on_implicit_task_end(thread); });
}

void TimedHooks::on_task_create_begin(ThreadId thread, RegionHandle region,
                                      std::int64_t parameter) {
  sampled(thread, [&] {
    inner_->on_task_create_begin(thread, region, parameter);
  });
}

void TimedHooks::on_task_create_end(ThreadId thread, TaskInstanceId created,
                                    RegionHandle region,
                                    std::int64_t parameter) {
  sampled(thread, [&] {
    inner_->on_task_create_end(thread, created, region, parameter);
  });
}

void TimedHooks::on_task_begin(ThreadId thread, TaskInstanceId id,
                               RegionHandle region, std::int64_t parameter) {
  sampled(thread,
          [&] { inner_->on_task_begin(thread, id, region, parameter); });
}

void TimedHooks::on_task_end(ThreadId thread, TaskInstanceId id) {
  sampled(thread, [&] { inner_->on_task_end(thread, id); });
}

void TimedHooks::on_task_switch(ThreadId thread, TaskInstanceId id) {
  sampled(thread, [&] { inner_->on_task_switch(thread, id); });
}

void TimedHooks::on_task_migrate(ThreadId from, ThreadId to,
                                 TaskInstanceId id) {
  // Fired while the destination worker is current (hooks.hpp), so `to`
  // is the thread that runs this callback.
  sampled(to, [&] { inner_->on_task_migrate(from, to, id); });
}

void TimedHooks::on_task_work(ThreadId thread, Ticks cost) {
  sampled(thread, [&] { inner_->on_task_work(thread, cost); });
}

void TimedHooks::on_taskwait_begin(ThreadId thread) {
  sampled(thread, [&] { inner_->on_taskwait_begin(thread); });
}

void TimedHooks::on_taskwait_end(ThreadId thread) {
  sampled(thread, [&] { inner_->on_taskwait_end(thread); });
}

void TimedHooks::on_barrier_begin(ThreadId thread, bool implicit) {
  sampled(thread, [&] { inner_->on_barrier_begin(thread, implicit); });
}

void TimedHooks::on_barrier_end(ThreadId thread, bool implicit) {
  sampled(thread, [&] { inner_->on_barrier_end(thread, implicit); });
}

void TimedHooks::on_region_enter(ThreadId thread, RegionHandle region,
                                 std::int64_t parameter) {
  sampled(thread, [&] { inner_->on_region_enter(thread, region, parameter); });
}

void TimedHooks::on_region_exit(ThreadId thread, RegionHandle region) {
  sampled(thread, [&] { inner_->on_region_exit(thread, region); });
}

void TimedHooks::on_scheduler_note(ThreadId thread, rt::SchedulerNote note,
                                   std::int64_t detail) {
  // Notes can follow on_parallel_end (the real engine's residue sweep),
  // so they close their gap too.
  flushed(thread, [&] { inner_->on_scheduler_note(thread, note, detail); });
}

}  // namespace taskprof::telemetry

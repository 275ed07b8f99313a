#include "instrument/instrumentor.hpp"

#include "common/assert.hpp"

namespace taskprof {

Instrumentor::Instrumentor(RegionRegistry& registry, MeasureOptions options)
    : registry_(&registry), options_(options) {
  implicit_task_ =
      registry.register_region("implicit task", RegionType::kImplicitTask);
  parallel_ = registry.register_region("parallel", RegionType::kParallel);
  implicit_barrier_ = registry.register_region(
      "implicit barrier", RegionType::kImplicitBarrier);
  barrier_ = registry.register_region("barrier", RegionType::kBarrier);
  taskwait_ = registry.register_region("taskwait", RegionType::kTaskwait);
  if (options_.snapshot_every > 0) {
    ThreadTaskProfiler::register_capture_barrier();
  }
}

Instrumentor::~Instrumentor() = default;

void Instrumentor::on_parallel_begin(int num_threads) {
  if (threads_.size() < static_cast<std::size_t>(num_threads)) {
    std::scoped_lock lock(threads_mutex_);
    threads_.resize(static_cast<std::size_t>(num_threads));
  }
}

void Instrumentor::on_parallel_end() {}

void Instrumentor::on_implicit_task_begin(ThreadId thread,
                                          const Clock& clock) {
  ThreadTaskProfiler& prof = profiler_for(thread, clock);
  prof.enter(parallel_);
}

void Instrumentor::on_implicit_task_end(ThreadId thread) {
  ThreadTaskProfiler* prof = profiler(thread);
  TASKPROF_ASSERT(prof != nullptr, "implicit end without begin");
  prof->exit(parallel_);
}

void Instrumentor::on_task_create_begin(ThreadId thread, RegionHandle region,
                                        std::int64_t parameter) {
  ThreadTaskProfiler* prof = profiler(thread);
  TASKPROF_ASSERT(prof != nullptr, "event on unknown thread");
  prof->enter(thread_create_region(thread, region), parameter);
}

void Instrumentor::on_task_create_end(ThreadId thread, TaskInstanceId created,
                                      RegionHandle region,
                                      std::int64_t parameter) {
  (void)parameter;
  ThreadTaskProfiler* prof = profiler(thread);
  TASKPROF_ASSERT(prof != nullptr, "event on unknown thread");
  if (options_.creation_site_attribution) prof->note_task_created(created);
  prof->exit(thread_create_region(thread, region));
}

void Instrumentor::on_task_begin(ThreadId thread, TaskInstanceId id,
                                 RegionHandle region,
                                 std::int64_t parameter) {
  ThreadTaskProfiler* prof = profiler(thread);
  TASKPROF_ASSERT(prof != nullptr, "event on unknown thread");
  prof->task_begin(region, id, parameter);
}

void Instrumentor::on_task_end(ThreadId thread, TaskInstanceId id) {
  ThreadTaskProfiler* prof = profiler(thread);
  TASKPROF_ASSERT(prof != nullptr, "event on unknown thread");
  prof->task_end(id);
}

void Instrumentor::on_task_switch(ThreadId thread, TaskInstanceId id) {
  ThreadTaskProfiler* prof = profiler(thread);
  TASKPROF_ASSERT(prof != nullptr, "event on unknown thread");
  prof->task_switch(id);
}

void Instrumentor::on_task_migrate(ThreadId from, ThreadId to,
                                   TaskInstanceId id) {
  ThreadTaskProfiler* src = profiler(from);
  ThreadTaskProfiler* dst = profiler(to);
  TASKPROF_ASSERT(src != nullptr && dst != nullptr,
                  "migration between unknown threads");
  dst->adopt_instance(src->detach_instance(id));
}

void Instrumentor::on_taskwait_begin(ThreadId thread) {
  ThreadTaskProfiler* prof = profiler(thread);
  TASKPROF_ASSERT(prof != nullptr, "event on unknown thread");
  prof->enter(taskwait_);
}

void Instrumentor::on_taskwait_end(ThreadId thread) {
  ThreadTaskProfiler* prof = profiler(thread);
  TASKPROF_ASSERT(prof != nullptr, "event on unknown thread");
  prof->exit(taskwait_);
}

void Instrumentor::on_barrier_begin(ThreadId thread, bool implicit) {
  ThreadTaskProfiler* prof = profiler(thread);
  TASKPROF_ASSERT(prof != nullptr, "event on unknown thread");
  prof->enter(implicit ? implicit_barrier_ : barrier_);
}

void Instrumentor::on_barrier_end(ThreadId thread, bool implicit) {
  ThreadTaskProfiler* prof = profiler(thread);
  TASKPROF_ASSERT(prof != nullptr, "event on unknown thread");
  prof->exit(implicit ? implicit_barrier_ : barrier_);
}

void Instrumentor::on_region_enter(ThreadId thread, RegionHandle region,
                                   std::int64_t parameter) {
  if (is_filtered(region)) return;
  ThreadTaskProfiler* prof = profiler(thread);
  TASKPROF_ASSERT(prof != nullptr, "event on unknown thread");
  prof->enter(region, parameter);
}

void Instrumentor::on_region_exit(ThreadId thread, RegionHandle region) {
  if (is_filtered(region)) return;
  ThreadTaskProfiler* prof = profiler(thread);
  TASKPROF_ASSERT(prof != nullptr, "event on unknown thread");
  prof->exit(region);
}

void Instrumentor::filter_region(RegionHandle region) {
  TASKPROF_ASSERT(registry_->info(region).type == RegionType::kFunction,
                  "only user function regions can be filtered");
  if (filtered_.size() <= region) filtered_.resize(region + 1, false);
  filtered_[region] = true;
}

void Instrumentor::finalize() {
  for (ThreadSlot& slot : threads_) {
    if (slot.profiler != nullptr) slot.profiler->finalize();
  }
}

std::vector<ThreadProfileView> Instrumentor::views() const {
  std::vector<ThreadProfileView> out;
  for (const ThreadSlot& slot : threads_) {
    if (slot.profiler != nullptr) out.push_back(slot.profiler->view());
  }
  return out;
}

AggregateProfile Instrumentor::aggregate() const {
  const std::vector<ThreadProfileView> all = views();
  return aggregate_profiles(all);
}

Instrumentor::CaptureResult Instrumentor::capture_snapshot() const {
  std::scoped_lock lock(threads_mutex_);
  CaptureResult result;
  for (const ThreadSlot& slot : threads_) {
    if (slot.profiler == nullptr) continue;
    ++result.profilers_live;
    if (slot.profiler->capture(result.profile)) ++result.profilers_captured;
  }
  result.profile.partial_capture = true;
  return result;
}

Instrumentor::MemoryStats Instrumentor::memory_stats() const {
  MemoryStats stats;
  for (const ThreadSlot& slot : threads_) {
    if (slot.profiler == nullptr) continue;
    stats.nodes += slot.profiler->pool().allocated();
  }
  stats.bytes = stats.nodes * sizeof(CallNode);
  return stats;
}

void Instrumentor::reset_concurrency_marks() {
  for (ThreadSlot& slot : threads_) {
    if (slot.profiler != nullptr) slot.profiler->reset_max_concurrent();
  }
}

ThreadTaskProfiler* Instrumentor::profiler(ThreadId thread) noexcept {
  if (thread >= threads_.size()) return nullptr;
  return threads_[thread].profiler.get();
}

RegionHandle Instrumentor::create_region_for(RegionHandle task_region) {
  std::scoped_lock lock(create_map_mutex_);
  if (auto it = create_regions_.find(task_region);
      it != create_regions_.end()) {
    return it->second;
  }
  const RegionInfo& info = registry_->info(task_region);
  const RegionHandle handle = registry_->register_region(
      "create " + info.name, RegionType::kTaskCreate);
  create_regions_.emplace(task_region, handle);
  return handle;
}

RegionHandle Instrumentor::thread_create_region(ThreadId thread,
                                                RegionHandle region) {
  std::vector<RegionHandle>& table = threads_[thread].create_regions;
  if (region < table.size() && table[region] != kInvalidRegion) {
    return table[region];
  }
  if (table.size() <= region) table.resize(region + 1, kInvalidRegion);
  table[region] = create_region_for(region);
  return table[region];
}

ThreadTaskProfiler& Instrumentor::profiler_for(ThreadId thread,
                                               const Clock& clock) {
  TASKPROF_ASSERT(thread < threads_.size(),
                  "thread id outside the announced team size");
  std::unique_ptr<ThreadTaskProfiler>& slot = threads_[thread].profiler;
  if (slot == nullptr) {
    // Lock held across construction so capture_snapshot never observes
    // a half-built profiler; only the owning thread creates its slot.
    std::scoped_lock lock(threads_mutex_);
    slot = std::make_unique<ThreadTaskProfiler>(thread, clock, implicit_task_,
                                                options_);
  } else {
    slot->set_clock(clock);
  }
  return *slot;
}

}  // namespace taskprof

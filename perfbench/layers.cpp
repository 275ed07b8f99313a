#include "layers.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

namespace perfbench {

using namespace taskprof;

std::uint64_t HookTotals::events() const noexcept {
  return std::accumulate(count.begin(), count.end(), std::uint64_t{0});
}

std::uint64_t HookTotals::total_ticks() const noexcept {
  return std::accumulate(ticks.begin(), ticks.end(), std::uint64_t{0});
}

double HookTotals::mean_ns(Callback kind, double floor_ns) const noexcept {
  const auto k = static_cast<std::size_t>(kind);
  if (count[k] == 0) return 0.0;
  return static_cast<double>(ticks[k]) / static_cast<double>(count[k]) -
         floor_ns;
}

double HookTotals::mean_ns(double floor_ns) const noexcept {
  const std::uint64_t n = events();
  if (n == 0) return 0.0;
  return static_cast<double>(total_ticks()) / static_cast<double>(n) -
         floor_ns;
}

TimedLayer::TimedLayer(rt::SchedulerHooks* inner, int max_threads)
    : inner_(inner), slots_(static_cast<std::size_t>(max_threads)) {}

HookTotals TimedLayer::totals() const {
  HookTotals sum;
  for (const Slot& slot : slots_) {
    for (std::size_t k = 0; k < kCallbackKinds; ++k) {
      sum.count[k] += slot.totals.count[k];
      sum.ticks[k] += slot.totals.ticks[k];
    }
  }
  return sum;
}

// Region-level callbacks carry no thread id; they run on the encountering
// thread, which is worker 0 on the real engine.
void TimedLayer::on_parallel_begin(int num_threads) {
  Scope s(*this, 0, Callback::kOther);
  inner_->on_parallel_begin(num_threads);
}
void TimedLayer::on_parallel_end() {
  Scope s(*this, 0, Callback::kOther);
  inner_->on_parallel_end();
}
void TimedLayer::on_implicit_task_begin(ThreadId thread, const Clock& clock) {
  Scope s(*this, thread, Callback::kOther);
  inner_->on_implicit_task_begin(thread, clock);
}
void TimedLayer::on_implicit_task_end(ThreadId thread) {
  Scope s(*this, thread, Callback::kOther);
  inner_->on_implicit_task_end(thread);
}
void TimedLayer::on_task_create_begin(ThreadId thread, RegionHandle region,
                                      std::int64_t parameter) {
  Scope s(*this, thread, Callback::kCreateBegin);
  inner_->on_task_create_begin(thread, region, parameter);
}
void TimedLayer::on_task_create_end(ThreadId thread, TaskInstanceId created,
                                    RegionHandle region,
                                    std::int64_t parameter) {
  Scope s(*this, thread, Callback::kCreateEnd);
  inner_->on_task_create_end(thread, created, region, parameter);
}
void TimedLayer::on_task_begin(ThreadId thread, TaskInstanceId id,
                               RegionHandle region, std::int64_t parameter) {
  Scope s(*this, thread, Callback::kTaskBegin);
  inner_->on_task_begin(thread, id, region, parameter);
}
void TimedLayer::on_task_end(ThreadId thread, TaskInstanceId id) {
  Scope s(*this, thread, Callback::kTaskEnd);
  inner_->on_task_end(thread, id);
}
void TimedLayer::on_task_switch(ThreadId thread, TaskInstanceId id) {
  Scope s(*this, thread, Callback::kTaskSwitch);
  inner_->on_task_switch(thread, id);
}
void TimedLayer::on_task_migrate(ThreadId from, ThreadId to,
                                 TaskInstanceId id) {
  Scope s(*this, from, Callback::kOther);
  inner_->on_task_migrate(from, to, id);
}
void TimedLayer::on_task_work(ThreadId thread, Ticks cost) {
  Scope s(*this, thread, Callback::kOther);
  inner_->on_task_work(thread, cost);
}
void TimedLayer::on_taskwait_begin(ThreadId thread) {
  Scope s(*this, thread, Callback::kTaskwaitBegin);
  inner_->on_taskwait_begin(thread);
}
void TimedLayer::on_taskwait_end(ThreadId thread) {
  Scope s(*this, thread, Callback::kTaskwaitEnd);
  inner_->on_taskwait_end(thread);
}
void TimedLayer::on_barrier_begin(ThreadId thread, bool implicit) {
  Scope s(*this, thread, Callback::kOther);
  inner_->on_barrier_begin(thread, implicit);
}
void TimedLayer::on_barrier_end(ThreadId thread, bool implicit) {
  Scope s(*this, thread, Callback::kOther);
  inner_->on_barrier_end(thread, implicit);
}
void TimedLayer::on_region_enter(ThreadId thread, RegionHandle region,
                                 std::int64_t parameter) {
  Scope s(*this, thread, Callback::kRegionEnter);
  inner_->on_region_enter(thread, region, parameter);
}
void TimedLayer::on_region_exit(ThreadId thread, RegionHandle region) {
  Scope s(*this, thread, Callback::kRegionExit);
  inner_->on_region_exit(thread, region);
}
void TimedLayer::on_scheduler_note(ThreadId thread, rt::SchedulerNote note,
                                   std::int64_t detail) {
  Scope s(*this, thread, Callback::kOther);
  inner_->on_scheduler_note(thread, note, detail);
}

double measure_clock_floor_ns() {
  SteadyClock steady;
  const Clock& clock = steady;
  constexpr int kReads = 1 << 20;
  const Ticks t0 = clock.now();
  // Each read ends in clock_gettime, which the compiler cannot drop.
  for (int i = 0; i < kReads; ++i) (void)clock.now();
  const Ticks t1 = clock.now();
  return static_cast<double>(t1 - t0) / kReads;
}

std::size_t count_callpaths(const AggregateProfile& profile) {
  std::size_t nodes = subtree_size(profile.implicit_root);
  for (const CallNode* root : profile.task_roots) nodes += subtree_size(root);
  return nodes;
}

std::size_t max_fanout(const AggregateProfile& profile) {
  std::size_t widest = profile.task_roots.size();
  auto visit = [&](const CallNode& node, int) {
    widest = std::max(widest, node.child_count());
  };
  for_each_node(profile.implicit_root, visit);
  for (const CallNode* root : profile.task_roots) for_each_node(root, visit);
  return widest;
}

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  index_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back({name, log_->clock_.now(), 0, log_->open_});
  log_->open_ = index_;
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Span& span = log_->spans_[static_cast<std::size_t>(index_)];
  span.end = log_->clock_.now();
  log_->open_ = span.parent;
}

void SpanLog::add(const char* name, Ticks start, Ticks end) {
  spans_.push_back({name, start, end, open_});
}

double SpanLog::seconds(const std::string& name, std::size_t begin,
                        std::size_t end) const {
  for (std::size_t i = begin; i < end && i < spans_.size(); ++i) {
    if (spans_[i].name == name) {
      return static_cast<double>(spans_[i].end - spans_[i].start) * 1e-9;
    }
  }
  return 0.0;
}

std::string SpanLog::to_json() const {
  std::string out = "[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                  "\"parent\":%d}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  static_cast<long long>(s.start),
                  static_cast<long long>(s.end), s.parent);
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace perfbench

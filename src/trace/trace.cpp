#include "trace/trace.hpp"

#include <algorithm>
#include <functional>

#include "common/assert.hpp"

namespace taskprof::trace {

std::string_view event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kParallelBegin: return "parallel_begin";
    case EventKind::kParallelEnd: return "parallel_end";
    case EventKind::kImplicitBegin: return "implicit_begin";
    case EventKind::kImplicitEnd: return "implicit_end";
    case EventKind::kCreateBegin: return "create_begin";
    case EventKind::kCreateEnd: return "create_end";
    case EventKind::kTaskBegin: return "task_begin";
    case EventKind::kTaskEnd: return "task_end";
    case EventKind::kTaskSwitch: return "task_switch";
    case EventKind::kMigrate: return "migrate";
    case EventKind::kTaskwaitBegin: return "taskwait_begin";
    case EventKind::kTaskwaitEnd: return "taskwait_end";
    case EventKind::kBarrierBegin: return "barrier_begin";
    case EventKind::kBarrierEnd: return "barrier_end";
    case EventKind::kRegionEnter: return "region_enter";
    case EventKind::kRegionExit: return "region_exit";
    case EventKind::kSchedulerNote: return "scheduler_note";
    case EventKind::kWork: return "work";
  }
  return "unknown";
}

Trace::Trace(std::vector<std::vector<TraceEvent>> per_thread)
    : per_thread_(std::move(per_thread)) {}

const std::vector<TraceEvent>& Trace::merged() const {
  if (merged_valid_) return merged_;
  // A single-worker trace is already in merged order: hand out its one
  // stream instead of copying it (or the empty merged_ when none holds
  // an event).
  const std::vector<TraceEvent>* only = &merged_;
  std::size_t busy = 0;
  for (const auto& stream : per_thread_) {
    if (!stream.empty()) {
      only = &stream;
      ++busy;
    }
  }
  if (busy <= 1) return *only;
  // k-way merge of the per-thread streams, each already in time order.
  // The heap holds each unfinished stream's next event as (time, thread):
  // the smallest goes next, ties to the lower thread.  A stream's run is
  // copied for as long as it stays ahead of the next head, so a trace
  // with one busy thread costs one pass and no heap traffic.
  struct Head {
    Ticks time;
    ThreadId thread;
    std::size_t index;  ///< position of this event in its stream
    bool operator>(const Head& other) const noexcept {
      return time != other.time ? time > other.time : thread > other.thread;
    }
  };
  std::vector<Head> heap;
  for (ThreadId t = 0; t < per_thread_.size(); ++t) {
    if (!per_thread_[t].empty()) heap.push_back({per_thread_[t][0].time, t, 0});
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>{});
  merged_.clear();
  merged_.reserve(event_count());
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [first_time, thread, begin] = heap.back();
    heap.pop_back();
    const std::vector<TraceEvent>& stream = per_thread_[thread];
    std::size_t end = begin;
    Ticks last = first_time;
    for (; end < stream.size(); ++end) {
      const TraceEvent& event = stream[end];
      TASKPROF_ASSERT(event.thread == thread,
                      "trace event on another thread's stream");
      TASKPROF_ASSERT(event.time >= last, "trace stream goes back in time");
      last = event.time;
      if (!heap.empty() && !(heap.front() > Head{event.time, thread, end})) {
        break;
      }
    }
    merged_.insert(merged_.end(),
                   stream.begin() + static_cast<std::ptrdiff_t>(begin),
                   stream.begin() + static_cast<std::ptrdiff_t>(end));
    if (end < stream.size()) {
      heap.push_back({stream[end].time, thread, end});
      std::push_heap(heap.begin(), heap.end(), std::greater<>{});
    }
  }
  merged_valid_ = true;
  return merged_;
}

std::size_t Trace::event_count() const noexcept {
  std::size_t total = 0;
  for (const auto& stream : per_thread_) total += stream.size();
  return total;
}

std::pair<Ticks, Ticks> Trace::time_span() const {
  Ticks begin = 0;
  Ticks end = 0;
  bool first = true;
  for (const auto& stream : per_thread_) {
    for (const TraceEvent& event : stream) {
      if (first) {
        begin = end = event.time;
        first = false;
      } else {
        begin = std::min(begin, event.time);
        end = std::max(end, event.time);
      }
    }
  }
  return {begin, end};
}

}  // namespace taskprof::trace

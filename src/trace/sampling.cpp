#include "trace/sampling.hpp"

#include <unordered_map>

#include "common/assert.hpp"

namespace taskprof::trace {

SampleHistogram sample_trace(const Trace& trace, Ticks period) {
  TASKPROF_ASSERT(period > 0, "sampling period must be positive");
  SampleHistogram out;
  out.period = period;
  const auto [begin, end] = trace.time_span();
  if (end <= begin) return out;

  // Each instance's construct, from every stream: an untied task can
  // resume on a thread other than the one that created and began it.
  std::unordered_map<TaskInstanceId, RegionHandle> instance_regions;
  for (ThreadId thread = 0; thread < trace.thread_count(); ++thread) {
    for (const TraceEvent& event : trace.thread_events(thread)) {
      if ((event.kind == EventKind::kCreateEnd ||
           event.kind == EventKind::kTaskBegin) &&
          event.region != kInvalidRegion) {
        instance_regions.emplace(event.task, event.region);
      }
    }
  }

  for (ThreadId thread = 0; thread < trace.thread_count(); ++thread) {
    // Replay this thread's stream, emitting samples that fall between
    // consecutive events with the state current at that moment.
    RegionHandle current_region = kInvalidRegion;  // construct being run
    Ticks next_sample = begin;
    bool alive = false;  // between implicit begin and end

    auto emit_until = [&](Ticks until) {
      while (next_sample < until) {
        if (alive) {
          ++out.total_samples;
          if (current_region != kInvalidRegion) {
            ++out.task_samples[current_region];
          } else {
            ++out.other_samples;
          }
        }
        next_sample += period;
      }
    };

    for (const TraceEvent& event : trace.thread_events(thread)) {
      emit_until(event.time);
      switch (event.kind) {
        case EventKind::kImplicitBegin:
          alive = true;
          break;
        case EventKind::kImplicitEnd:
          alive = false;
          break;
        case EventKind::kTaskBegin:
          current_region = event.region;
          break;
        case EventKind::kTaskEnd:
          current_region = kInvalidRegion;
          break;
        case EventKind::kTaskSwitch:
          if (event.task == kImplicitTaskId) {
            current_region = kInvalidRegion;
          } else if (auto it = instance_regions.find(event.task);
                     it != instance_regions.end()) {
            current_region = it->second;
          }
          break;
        default:
          break;
      }
    }
    emit_until(end);
  }
  return out;
}

}  // namespace taskprof::trace

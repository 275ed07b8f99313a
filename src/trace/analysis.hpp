// Trace analyses: the paper's §VII future work, implemented.
//
// From a recorded event trace these analyses derive what the profile
// alone cannot:
//
//  * management-vs-waiting decomposition of synchronization time — the
//    paper: "it is not yet possible to distinguish if this time is
//    required for management, or if it is waiting time on the completion
//    of some tasks"; here, gaps between executed task fragments inside a
//    scheduling point are classified by length (short gap = task
//    management / switching, long gap = starvation), giving "the ratio of
//    overall management time to exclusive execution time for tasks";
//  * per-instance queue latency (creation -> begin) and fragmentation;
//  * per-thread utilization;
//  * the deepest creation chain, which the paper proposes as "a good
//    estimate for the number of concurrent tasks" (§V-B) — the
//    estimate can be checked against the profiler's measured maximum; and
//  * the stretches in which a thread blocks in a taskwait while at most
//    one task executes, which diagnose's taskwait_serialization reads.
//
// The same walk of the trace (trace/replay.cpp) builds the sync-aware
// span model of trace/span.hpp, which gives work and span (the critical
// path); this file's analyses do not.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "profile/metrics.hpp"
#include "profile/region.hpp"
#include "trace/trace.hpp"

namespace taskprof::trace {

/// Reconstructed lifetime of one explicit task instance.
/// The 8-byte fields come first so the struct has no padding: the
/// analysis holds one per task instance.
struct TaskLifetime {
  TaskInstanceId id = 0;
  std::int64_t parameter = kNoParameter;
  /// Creating instance (kImplicitTaskId when created by an implicit task).
  TaskInstanceId parent = kImplicitTaskId;
  Ticks created = 0;  ///< create_end timestamp
  Ticks begin = 0;    ///< TaskBegin timestamp (first fragment start)
  Ticks end = 0;      ///< completion
  Ticks active = 0;   ///< sum of executed-fragment durations
  /// Declared ctx.work() ticks executed by this task (kWork events;
  /// 0 for traces from engines that do not emit them).
  Ticks work = 0;
  RegionHandle region = kInvalidRegion;
  ThreadId creator = 0;
  ThreadId first_thread = 0;  ///< thread of the TaskBegin event
  int fragments = 0;
  int migrations = 0;
  bool completed = false;

  /// Time the instance waited between its creation and its first
  /// fragment, clamped at 0.  An undeferred task never waits in a queue:
  /// it runs inside its creation construct, whose end is stamped after it
  /// ran.  A thief may also stamp its begin before the creator stamps
  /// create_end, which the engine records after the enqueue.
  [[nodiscard]] Ticks queue_latency() const noexcept {
    return begin > created ? begin - created : 0;
  }
};

struct ThreadUsage {
  Ticks span = 0;            ///< implicit-task begin .. end
  Ticks busy = 0;            ///< time executing explicit-task fragments
  Ticks management = 0;      ///< this thread's short scheduling-point gaps
  Ticks waiting = 0;         ///< this thread's long scheduling-point gaps
  std::uint64_t fragments = 0;
  [[nodiscard]] double utilization() const noexcept {
    return span == 0 ? 0.0
                     : static_cast<double>(busy) / static_cast<double>(span);
  }
  /// Fraction of the thread's span spent starved at scheduling points.
  [[nodiscard]] double waiting_fraction() const noexcept {
    return span == 0 ? 0.0
                     : static_cast<double>(waiting) /
                           static_cast<double>(span);
  }
};

/// The time in which some thread sits in a taskwait while at most one
/// task executes on the whole team.  A thread's taskwait depth counts
/// only taskwaits (no barriers) and no event resets it; an end with no
/// open taskwait on its thread is skipped.  A task's construct is its
/// latest create's, or its first begin's until a create names one.
struct TaskwaitSerialization {
  Ticks time = 0;  ///< all serial time
  /// Serial time while exactly one task executes, by that task's
  /// construct when it has one.
  std::map<RegionHandle, Ticks> by_construct;
  Ticks longest = 0;        ///< longest serial stretch that ended
  Ticks longest_start = 0;  ///< and when it began
  std::uint64_t taskwaits = 0;  ///< taskwait begins, all threads
};

struct TraceAnalysis {
  std::vector<TaskLifetime> tasks;  ///< completed instances, by begin time
  std::vector<ThreadUsage> threads;

  Ticks total_active = 0;            ///< sum of task fragment time
  DurationStats queue_latency;       ///< per instance: begin - created, >= 0
  DurationStats instance_fragments;  ///< fragments per instance

  // Synchronization decomposition (§VII).
  Ticks sync_total = 0;       ///< non-executing time inside taskwait/barrier
  Ticks sync_management = 0;  ///< short gaps: switch/dequeue management
  Ticks sync_waiting = 0;     ///< long gaps: no work available
  /// (management at sync points) / (task execution time).
  [[nodiscard]] double management_to_execution_ratio() const noexcept {
    return total_active == 0 ? 0.0
                             : static_cast<double>(sync_management) /
                                   static_cast<double>(total_active);
  }

  /// Deepest parent -> child creation chain over the completed tasks: a
  /// task's depth is 1 + its parent's, or 1 when the parent is not a
  /// completed explicit task.
  int max_creation_depth = 0;

  TaskwaitSerialization serialization;
};

/// All analyses of a trace: a copy of `trace.analysis()`, so the trace
/// is walked once however often it is analyzed.  Throws
/// snapshot::SnapshotError (kMalformed) when the events tell an
/// impossible history, such as a task that ends on a thread it is not
/// running on, or an implicit task that ends without having begun.
[[nodiscard]] TraceAnalysis analyze_trace(const Trace& trace);

/// Stable display name for a task construct: the registry name when the
/// handle resolves, "(unattributed)" for kInvalidRegion / out-of-range
/// handles (tasks recorded without a region — degenerate traces, manual
/// event streams).
[[nodiscard]] std::string construct_display_name(RegionHandle region,
                                                 const RegionRegistry& registry);

/// Human-readable report: per-construct table + decomposition + threads.
[[nodiscard]] std::string render_analysis(const TraceAnalysis& analysis,
                                          const RegionRegistry& registry);

/// Compact textual timeline (one line per thread, one glyph per time
/// bucket: '#' executing tasks, '.' idle/waiting, 'm' mixed).  Debugging
/// and teaching aid, paper Vampir-style visualization in miniature.
[[nodiscard]] std::string render_timeline(const Trace& trace,
                                          std::size_t buckets = 80);

}  // namespace taskprof::trace

// Event traces: timestamped scheduler-event streams.
//
// The paper closes with "automated trace analysis ... might provide some
// additional information" (§VII): the profile cannot distinguish
// management time from waiting time at synchronization points, nor follow
// dependency chains.  This subsystem records the scheduler events (the
// same stream the profiler consumes) with timestamps, per thread, for the
// analyses in trace/analysis.hpp — the reproduction's implementation of
// that future work.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace taskprof::trace {

enum class EventKind : std::uint8_t {
  kParallelBegin,
  kParallelEnd,
  kImplicitBegin,
  kImplicitEnd,
  kCreateBegin,
  kCreateEnd,
  kTaskBegin,
  kTaskEnd,
  kTaskSwitch,   ///< resumption of `task` (kImplicitTaskId = back to implicit)
  kMigrate,      ///< task moved; `thread` = source, `peer` = destination
  kTaskwaitBegin,
  kTaskwaitEnd,
  kBarrierBegin,
  kBarrierEnd,
  kRegionEnter,
  kRegionExit,
  kSchedulerNote,  ///< out-of-band scheduler condition; `parameter` =
                   ///< rt::SchedulerNote code, `task` = note detail
  kWork,  ///< declared virtual work on `thread`'s running task;
          ///< `parameter` = effective ticks (simulator engines only)
};

[[nodiscard]] std::string_view event_kind_name(EventKind kind) noexcept;

// Fields run from widest to narrowest, so the struct has no padding
// inside and 40 bytes in all.
struct TraceEvent {
  Ticks time = 0;
  TaskInstanceId task = kImplicitTaskId;  ///< subject instance
  std::int64_t parameter = kNoParameter;
  ThreadId thread = 0;
  RegionHandle region = kInvalidRegion;
  ThreadId peer = 0;  ///< migration destination
  EventKind kind = EventKind::kTaskBegin;
};
static_assert(sizeof(TraceEvent) == 40);

struct TraceAnalysis;  // trace/analysis.hpp
struct SpanModel;      // trace/span.hpp

/// A finished trace: per-thread streams plus the views built from them.
/// Every event sits on its own thread's stream (`event.thread` is the
/// stream index) and each stream's times never decrease; the recorder
/// and the file reader produce only such traces, and merged() and the
/// file writer rely on it.
///
/// The streams never change after construction, so each view is built
/// lazily on first use and kept: the merged order, and the analysis and
/// the span model, which one walk of the merged order builds together
/// (trace/replay.cpp).  analyze_trace, diag::run_diagnosis and
/// whatif::WhatIfProfile all read that one walk.  A copy shares the
/// analysis and the span model.  First use is not safe from two threads
/// at once.  A walk that throws keeps nothing, so every later call
/// throws the same error.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<std::vector<TraceEvent>> per_thread);

  [[nodiscard]] std::size_t thread_count() const noexcept {
    return per_thread_.size();
  }
  [[nodiscard]] const std::vector<TraceEvent>& thread_events(
      ThreadId thread) const {
    return per_thread_[thread];
  }
  /// All events, sorted by (time, thread) and stable within a thread.
  /// With at most one non-empty stream this is that stream itself;
  /// otherwise the merge is built on first use.
  [[nodiscard]] const std::vector<TraceEvent>& merged() const;

  /// The analyses of trace/analysis.hpp.  Throws snapshot::SnapshotError
  /// (kMalformed) when the events tell an impossible history.
  [[nodiscard]] const std::shared_ptr<const TraceAnalysis>& analysis() const;

  /// The sync-aware span structure and its measured work/span
  /// (trace/span.hpp); throws as analysis() does.
  [[nodiscard]] const std::shared_ptr<const SpanModel>& span_model() const;

  [[nodiscard]] std::size_t event_count() const noexcept;

  /// Time span covered: [begin, end] over all events (0,0 when empty).
  [[nodiscard]] std::pair<Ticks, Ticks> time_span() const;

 private:
  /// Build the analysis and the span model in one walk of merged(), unless
  /// a walk has already built them (defined in replay.cpp).
  void replay() const;

  std::vector<std::vector<TraceEvent>> per_thread_;
  mutable std::vector<TraceEvent> merged_;
  mutable bool merged_valid_ = false;
  mutable std::shared_ptr<const TraceAnalysis> analysis_;
  mutable std::shared_ptr<const SpanModel> span_model_;
};

}  // namespace taskprof::trace

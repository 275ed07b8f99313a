#include "trace/chrome_export.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "common/write_file.hpp"

namespace taskprof::trace {

namespace {

constexpr int kPid = 1;  ///< single process; threads are the tracks
constexpr const char* kProcessName = "taskprof";  ///< shown in the UI

/// The trace-event document: an object whose "traceEvents" array holds
/// one event per line — trivially greppable and diffable, and the tests
/// lean on that shape.  Each event carries name, ph, pid, tid, ts (absent
/// on metadata), s (on instants) and its args, if any.
class EventWriter {
 public:
  EventWriter() {
    json_.begin_object();
    json_.field("displayTimeUnit", "ms");
    json_.begin_array("traceEvents");
    // Process metadata first, then thread metadata as callers add tracks.
    begin_event("process_name", 'M', kNoTs, 0);
    arg("name", kProcessName);
    end_event();
  }

  void thread_metadata(ThreadId tid) {
    begin_event("thread_name", 'M', kNoTs, tid);
    arg("name", "worker " + std::to_string(tid));
    end_event();
    begin_event("thread_sort_index", 'M', kNoTs, tid);
    arg("sort_index", tid);
    end_event();
  }

  /// Duration / instant / counter events.  `ts` is in ticks (ns) already
  /// normalized to the trace start.  Pass args via `arg` between
  /// begin_event and end_event.
  void begin_event(std::string_view name, char phase, Ticks ts,
                   ThreadId tid) {
    json_.begin_object({}, JsonWriter::kLine);
    json_.field("name", name);
    json_.field("ph", std::string_view(&phase, 1));
    json_.field("pid", kPid);
    json_.field("tid", tid);
    // trace-event ts is in microseconds; keep ns resolution.
    if (ts != kNoTs) json_.fixed("ts", static_cast<double>(ts) / 1000.0, 3);
    if (phase == 'i') json_.field("s", "t");  // thread-scoped instant
    args_open_ = false;
  }

  template <typename T>
  void arg(std::string_view key, const T& value) {
    if (!args_open_) {
      json_.begin_object("args");
      args_open_ = true;
    }
    json_.field(key, value);
  }

  void end_event() {
    if (args_open_) json_.end_object();
    json_.end_object();
  }

  [[nodiscard]] std::string finish() {
    json_.end_array();
    json_.end_object();
    return json_.finish();
  }

  static constexpr Ticks kNoTs = std::numeric_limits<Ticks>::min();

 private:
  JsonWriter json_;
  bool args_open_ = false;
};

/// Creation-side facts about a task instance, learned in the first pass.
struct TaskOrigin {
  RegionHandle region = kInvalidRegion;
  ThreadId creator = 0;
  bool known = false;
};

std::string region_label(const RegionRegistry* registry,
                         RegionHandle region) {
  if (region == kInvalidRegion) return "task";
  if (registry != nullptr && region < registry->size()) {
    return registry->info(region).name;
  }
  return "region " + std::to_string(region);
}

/// An open duration slice on a thread's stack.
struct OpenSlice {
  TaskInstanceId task = kImplicitTaskId;
  bool is_task = false;  ///< a task-execution slice (closable by switch)
};

}  // namespace

std::string render_chrome_trace(const Trace& trace,
                                const ChromeExportOptions& options) {
  const auto [t_begin, t_end] = trace.time_span();
  EventWriter writer;

  // Pass 1 (merged stream): task origins, for steal detection and for
  // naming resumed-task slices whose begin event carries no region.
  std::unordered_map<TaskInstanceId, TaskOrigin> origins;
  for (const TraceEvent& event : trace.merged()) {
    if (event.kind == EventKind::kCreateEnd &&
        event.task != kImplicitTaskId) {
      TaskOrigin& origin = origins[event.task];
      origin.region = event.region;
      origin.creator = event.thread;
      origin.known = true;
    } else if (event.kind == EventKind::kTaskBegin &&
               event.task != kImplicitTaskId) {
      TaskOrigin& origin = origins[event.task];
      if (origin.region == kInvalidRegion) origin.region = event.region;
    }
  }
  auto task_label = [&](TaskInstanceId task) {
    const auto it = origins.find(task);
    const RegionHandle region =
        it == origins.end() ? kInvalidRegion : it->second.region;
    return region_label(options.registry, region);
  };

  // Pass 2: per-thread streams -> duration/instant events.  Each stream is
  // time-ordered and (by the engines' nested-execution discipline)
  // properly bracketed, so a per-thread slice stack suffices.
  for (ThreadId tid = 0; tid < trace.thread_count(); ++tid) {
    writer.thread_metadata(tid);
    std::vector<OpenSlice> open;
    Ticks last_ts = 0;
    auto close_innermost_task = [&](Ticks ts) {
      if (open.empty() || !open.back().is_task) return false;
      writer.begin_event("", 'E', ts, tid);
      writer.end_event();
      open.pop_back();
      return true;
    };
    for (const TraceEvent& event : trace.thread_events(tid)) {
      const Ticks ts = event.time - t_begin;
      last_ts = ts;
      switch (event.kind) {
        case EventKind::kParallelBegin:
        case EventKind::kParallelEnd:
          break;  // not per-thread track material
        case EventKind::kImplicitBegin:
          writer.begin_event("implicit task", 'B', ts, tid);
          writer.end_event();
          open.push_back({kImplicitTaskId, false});
          break;
        case EventKind::kImplicitEnd:
        case EventKind::kTaskwaitEnd:
        case EventKind::kBarrierEnd:
        case EventKind::kCreateEnd:
        case EventKind::kRegionExit:
          if (!open.empty()) {
            open.pop_back();
            writer.begin_event("", 'E', ts, tid);
            writer.end_event();
          }
          if (event.kind == EventKind::kCreateEnd) {
            // Mark the newly created instance on its creator's track.
            writer.begin_event("create", 'i', ts, tid);
            writer.arg("task", event.task);
            writer.end_event();
          }
          break;
        case EventKind::kCreateBegin:
          writer.begin_event("create " + region_label(options.registry,
                                                      event.region),
                             'B', ts, tid);
          writer.end_event();
          open.push_back({kImplicitTaskId, false});
          break;
        case EventKind::kTaskwaitBegin:
          writer.begin_event("taskwait", 'B', ts, tid);
          writer.end_event();
          open.push_back({kImplicitTaskId, false});
          break;
        case EventKind::kBarrierBegin:
          writer.begin_event("barrier", 'B', ts, tid);
          writer.end_event();
          open.push_back({kImplicitTaskId, false});
          break;
        case EventKind::kRegionEnter:
          writer.begin_event(region_label(options.registry, event.region),
                             'B', ts, tid);
          writer.end_event();
          open.push_back({kImplicitTaskId, false});
          break;
        case EventKind::kTaskBegin: {
          const auto it = origins.find(event.task);
          const bool stolen = it != origins.end() && it->second.known &&
                              it->second.creator != tid;
          if (stolen) {
            writer.begin_event("steal", 'i', ts, tid);
            writer.arg("task", event.task);
            writer.arg("from", it->second.creator);
            writer.end_event();
          }
          writer.begin_event(region_label(options.registry, event.region),
                             'B', ts, tid);
          writer.arg("task", event.task);
          if (event.parameter != kNoParameter) {
            writer.arg("parameter", event.parameter);
          }
          if (stolen) writer.arg("stolen", "true");
          writer.end_event();
          open.push_back({event.task, true});
          break;
        }
        case EventKind::kTaskEnd:
          close_innermost_task(ts);
          break;
        case EventKind::kTaskSwitch:
          if (event.task == kImplicitTaskId) {
            // Suspend back to the implicit task (untied park, sim).
            if (close_innermost_task(ts)) {
              writer.begin_event("suspend", 'i', ts, tid);
              writer.end_event();
            }
          } else if (std::any_of(open.begin(), open.end(),
                                 [&event](const OpenSlice& slice) {
                                   return slice.is_task &&
                                          slice.task == event.task;
                                 })) {
            // Resumption of the still-open enclosing task after a nested
            // child finished: the slice never closed, just mark it.
            writer.begin_event("switch", 'i', ts, tid);
            writer.arg("task", event.task);
            writer.end_event();
          } else {
            // Resumption of a suspended (possibly migrated-in) task.
            writer.begin_event(task_label(event.task) + " (resumed)", 'B',
                               ts, tid);
            writer.arg("task", event.task);
            writer.end_event();
            open.push_back({event.task, true});
          }
          break;
        case EventKind::kMigrate:
          writer.begin_event("migrate", 'i', ts, tid);
          writer.arg("task", event.task);
          writer.arg("to", event.peer);
          writer.end_event();
          break;
        case EventKind::kSchedulerNote: {
          const auto note = static_cast<rt::SchedulerNote>(event.parameter);
          writer.begin_event(
              std::string("scheduler: ") + rt::scheduler_note_name(note),
              'i', ts, tid);
          writer.arg("note", rt::scheduler_note_name(note));
          writer.arg("detail", event.task);
          writer.end_event();
          break;
        }
        case EventKind::kWork:
          // Declared-work bookkeeping, not a visual slice; the enclosing
          // task slice already covers the time.
          break;
      }
    }
    // Close anything left open (truncated traces) so B/E stay balanced.
    while (!open.empty()) {
      writer.begin_event("", 'E', last_ts, tid);
      writer.end_event();
      open.pop_back();
    }
  }

  // Derived counter tracks over the merged stream.
  std::int64_t created = 0;
  std::int64_t begun = 0;
  std::int64_t executing = 0;
  auto counter = [&](const char* name, Ticks ts, std::int64_t value) {
    writer.begin_event(name, 'C', ts, 0);
    writer.arg("value", std::max<std::int64_t>(value, 0));
    writer.end_event();
  };
  for (const TraceEvent& event : trace.merged()) {
    const Ticks ts = event.time - t_begin;
    switch (event.kind) {
      case EventKind::kCreateEnd:
        ++created;
        counter("tasks queued", ts, created - begun);
        break;
      case EventKind::kTaskBegin:
        ++begun;
        ++executing;
        counter("tasks queued", ts, created - begun);
        counter("tasks executing", ts, executing);
        break;
      case EventKind::kTaskEnd:
        --executing;
        counter("tasks executing", ts, executing);
        break;
      default:
        break;
    }
  }

  // Caller-supplied annotations (diagnosis findings etc.) as instants.  A
  // note without a timestamp (time 0) sits at the start of the timeline.
  if (options.annotations != nullptr) {
    for (const TraceAnnotation& note : *options.annotations) {
      writer.begin_event(note.name, 'i', std::max(note.time, t_begin) - t_begin,
                         note.thread);
      for (const auto& [key, value] : note.args) writer.arg(key, value);
      writer.end_event();
    }
  }

  // Final scheduler-telemetry counters as flat tracks across the span.
  if (options.telemetry != nullptr) {
    const telemetry::Snapshot& snap = *options.telemetry;
    for (std::size_t i = 0; i < telemetry::kCounterCount; ++i) {
      if (snap.counters[i] == 0) continue;
      const std::string name =
          "telemetry " +
          std::string(telemetry::counter_name(
              static_cast<telemetry::Counter>(i)));
      writer.begin_event(name, 'C', 0, 0);
      writer.arg("value", 0);
      writer.end_event();
      writer.begin_event(name, 'C', t_end - t_begin, 0);
      writer.arg("value", snap.counters[i]);
      writer.end_event();
    }
  }

  return writer.finish();
}

void write_chrome_trace(const std::string& path, const Trace& trace,
                        const ChromeExportOptions& options) {
  write_file(path, render_chrome_trace(trace, options));
}

}  // namespace taskprof::trace

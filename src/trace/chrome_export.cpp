#include "trace/chrome_export.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/format.hpp"
#include "common/write_file.hpp"

namespace taskprof::trace {

namespace {

constexpr int kPid = 1;  ///< single process; threads are the tracks

/// Incremental trace-event emitter.  Every event is one line inside the
/// "traceEvents" array — trivially greppable and diffable, and the tests
/// lean on that shape.
class EventWriter {
 public:
  explicit EventWriter(const std::string& process_name) {
    out_.reserve(16 * 1024);
    out_ += "{\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
    // Process metadata first, then thread metadata as callers add tracks.
    begin_event("process_name", 'M', kNoTs, 0);
    raw_arg("\"name\": ");
    string_value(process_name);
    end_event();
  }

  void thread_metadata(ThreadId tid) {
    begin_event("thread_name", 'M', kNoTs, tid);
    raw_arg("\"name\": ");
    string_value("worker " + std::to_string(tid));
    end_event();
    begin_event("thread_sort_index", 'M', kNoTs, tid);
    raw_arg("\"sort_index\": " + std::to_string(tid));
    end_event();
  }

  /// Duration / instant / counter events.  `ts` is in ticks (ns) already
  /// normalized to the trace start.  Pass args via the arg helpers between
  /// begin_event and end_event.
  void begin_event(const std::string& name, char phase, Ticks ts,
                   ThreadId tid) {
    if (!first_) out_ += ",\n";
    first_ = false;
    out_ += "{\"name\": ";
    append_json_string(&out_, name);
    out_ += ", \"ph\": \"";
    out_ += phase;
    out_ += "\", \"pid\": ";
    out_ += std::to_string(kPid);
    out_ += ", \"tid\": ";
    out_ += std::to_string(tid);
    if (ts != kNoTs) {
      char buf[48];
      // trace-event ts is in microseconds; keep ns resolution.
      std::snprintf(buf, sizeof buf, "%.3f",
                    static_cast<double>(ts) / 1000.0);
      out_ += ", \"ts\": ";
      out_ += buf;
    }
    if (phase == 'i') out_ += ", \"s\": \"t\"";  // thread-scoped instant
    args_open_ = false;
  }

  void arg(const char* key, std::uint64_t value) {
    open_args();
    out_ += '"';
    out_ += key;
    out_ += "\": ";
    out_ += std::to_string(value);
  }

  void arg(const char* key, std::int64_t value) {
    open_args();
    out_ += '"';
    out_ += key;
    out_ += "\": ";
    out_ += std::to_string(value);
  }

  void arg(const char* key, const std::string& value) {
    open_args();
    out_ += '"';
    out_ += key;
    out_ += "\": ";
    append_json_string(&out_, value);
  }

  /// Raw key/value payload for metadata events ("args": { <raw> }).
  void raw_arg(const std::string& raw) {
    open_args();
    out_ += raw;
  }

  void string_value(const std::string& s) { append_json_string(&out_, s); }

  void end_event() {
    if (args_open_) out_ += '}';
    out_ += '}';
  }

  [[nodiscard]] std::string finish() {
    out_ += "\n]}\n";
    return std::move(out_);
  }

  static constexpr Ticks kNoTs = std::numeric_limits<Ticks>::min();

 private:
  void open_args() {
    if (args_open_) {
      out_ += ", ";
      return;
    }
    out_ += ", \"args\": {";
    args_open_ = true;
  }

  std::string out_;
  bool first_ = true;
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
  EventWriter writer(options.process_name);

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
            writer.arg("task", static_cast<std::uint64_t>(event.task));
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
            writer.arg("task", static_cast<std::uint64_t>(event.task));
            writer.arg("from",
                       static_cast<std::uint64_t>(it->second.creator));
            writer.end_event();
          }
          writer.begin_event(region_label(options.registry, event.region),
                             'B', ts, tid);
          writer.arg("task", static_cast<std::uint64_t>(event.task));
          if (event.parameter != kNoParameter) {
            writer.arg("parameter", event.parameter);
          }
          if (stolen) writer.arg("stolen", std::string("true"));
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
            writer.arg("task", static_cast<std::uint64_t>(event.task));
            writer.end_event();
          } else {
            // Resumption of a suspended (possibly migrated-in) task.
            writer.begin_event(task_label(event.task) + " (resumed)", 'B',
                               ts, tid);
            writer.arg("task", static_cast<std::uint64_t>(event.task));
            writer.end_event();
            open.push_back({event.task, true});
          }
          break;
        case EventKind::kMigrate:
          writer.begin_event("migrate", 'i', ts, tid);
          writer.arg("task", static_cast<std::uint64_t>(event.task));
          writer.arg("to", static_cast<std::uint64_t>(event.peer));
          writer.end_event();
          break;
        case EventKind::kSchedulerNote: {
          const auto note = static_cast<rt::SchedulerNote>(event.parameter);
          writer.begin_event(
              std::string("scheduler: ") + rt::scheduler_note_name(note),
              'i', ts, tid);
          writer.arg("note", std::string(rt::scheduler_note_name(note)));
          writer.arg("detail", static_cast<std::uint64_t>(event.task));
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
  if (options.counter_tracks) {
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
  }

  // Caller-supplied annotations (diagnosis findings etc.) as instants.
  if (options.annotations != nullptr) {
    for (const TraceAnnotation& note : *options.annotations) {
      writer.begin_event(note.name, 'i', note.time - t_begin, note.thread);
      for (const auto& [key, value] : note.args) {
        writer.arg(key.c_str(), value);
      }
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
      writer.arg("value", std::uint64_t{0});
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

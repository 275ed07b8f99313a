#include "trace/analysis.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "common/format.hpp"
#include "snapshot/format.hpp"

namespace taskprof::trace {

namespace {

/// Gaps at scheduling points up to this length count as management
/// (dequeue/switch work); longer gaps count as waiting for work.
constexpr Ticks kManagementGapThreshold = 3 * kTicksPerUs;

/// Per-thread replay state.
struct ThreadReplay {
  TaskInstanceId current = kImplicitTaskId;
  Ticks fragment_start = 0;
  Ticks implicit_begin = 0;
  bool in_implicit = false;

  /// Open scheduling-point regions; last_activity tracks the end of the
  /// last executed fragment (or the region entry) for gap classification.
  struct SyncFrame {
    Ticks last_activity = 0;
  };
  std::vector<SyncFrame> sync_stack;
};

/// A replayed task with its memoized creation depth (0 = not yet known,
/// -1 = on the walk in progress).
struct Replayed {
  TaskLifetime life;
  int depth = 0;
};

/// Time the instance waited between its creation and its first fragment,
/// clamped at 0.  An undeferred task never waits in a queue: it runs
/// inside its creation construct, whose end is stamped after it ran.  A
/// thief may also stamp its begin before the creator stamps create_end,
/// which the engine records after the enqueue.
Ticks queue_latency(const TaskLifetime& life) {
  return std::max<Ticks>(life.begin - life.created, 0);
}

/// Replay every stream into the analyses.  Throws SnapshotError
/// (kMalformed) on events no engine could have recorded.
TraceAnalysis replay(const Trace& trace) {
  TraceAnalysis out;
  out.threads.resize(trace.thread_count());

  std::unordered_map<TaskInstanceId, Replayed> lifetimes;
  std::vector<ThreadReplay> replay(trace.thread_count());

  auto classify_gap = [&](ThreadId thread, Ticks gap) {
    if (gap <= 0) return;
    out.sync_total += gap;
    if (gap <= kManagementGapThreshold) {
      out.sync_management += gap;
      out.threads[thread].management += gap;
    } else {
      out.sync_waiting += gap;
      out.threads[thread].waiting += gap;
    }
  };

  auto close_fragment = [&](ThreadReplay& state, ThreadId thread,
                            Ticks now) {
    if (state.current == kImplicitTaskId) return;
    const Ticks duration = now - state.fragment_start;
    TaskLifetime& life = lifetimes[state.current].life;
    life.active += duration;
    out.threads[thread].busy += duration;
    out.threads[thread].fragments += 1;
    if (!state.sync_stack.empty()) {
      state.sync_stack.back().last_activity = now;
    }
    state.current = kImplicitTaskId;
  };

  auto open_fragment = [&](ThreadReplay& state, ThreadId thread,
                           TaskInstanceId id, Ticks now) -> TaskLifetime& {
    if (!state.sync_stack.empty()) {
      classify_gap(thread, now - state.sync_stack.back().last_activity);
      state.sync_stack.back().last_activity = now;
    }
    state.current = id;
    state.fragment_start = now;
    TaskLifetime& life = lifetimes[id].life;
    life.fragments += 1;
    return life;
  };

  // Replay per-thread streams (each is time-ordered by construction).
  for (ThreadId thread = 0; thread < trace.thread_count(); ++thread) {
    ThreadReplay& state = replay[thread];
    for (const TraceEvent& event : trace.thread_events(thread)) {
      switch (event.kind) {
        case EventKind::kImplicitBegin:
          state.implicit_begin = event.time;
          state.in_implicit = true;
          break;
        case EventKind::kImplicitEnd:
          // Without its begin the thread's span would run from time 0.
          if (!state.in_implicit) {
            throw snapshot::SnapshotError(
                snapshot::Errc::kMalformed, "trace replay",
                "thread " + std::to_string(thread) +
                    " ends an implicit task it never began");
          }
          // Migrated untied tasks leave unmatched sync entries behind
          // (their taskwait exits on another thread); drop them.
          state.sync_stack.clear();
          out.threads[thread].span += event.time - state.implicit_begin;
          state.in_implicit = false;
          break;
        case EventKind::kCreateEnd: {
          TaskLifetime& life = lifetimes[event.task].life;
          life.id = event.task;
          life.region = event.region;
          life.parameter = event.parameter;
          life.creator = thread;
          life.created = event.time;
          life.parent = state.current;
          break;
        }
        case EventKind::kTaskBegin: {
          close_fragment(state, thread, event.time);
          // The begin is the TaskBegin event itself, not the first
          // fragment replayed: streams replay one thread after another,
          // so a migrated untied task's resume on a lower-numbered
          // thread replays before its begin.
          TaskLifetime& life =
              open_fragment(state, thread, event.task, event.time);
          life.begin = event.time;
          life.first_thread = thread;
          break;
        }
        case EventKind::kTaskEnd: {
          // Well-formed bytes can still tell an impossible history; a
          // loaded file is input, so reject it typed instead of asserting.
          if (state.current != event.task) {
            throw snapshot::SnapshotError(
                snapshot::Errc::kMalformed, "trace replay",
                "task " + std::to_string(event.task) + " ends on thread " +
                    std::to_string(thread) + " but is not running there");
          }
          close_fragment(state, thread, event.time);
          TaskLifetime& life = lifetimes[event.task].life;
          life.end = event.time;
          life.completed = true;
          break;
        }
        case EventKind::kTaskSwitch:
          close_fragment(state, thread, event.time);
          if (event.task != kImplicitTaskId) {
            open_fragment(state, thread, event.task, event.time);
          }
          break;
        case EventKind::kMigrate:
          lifetimes[event.task].life.migrations += 1;
          break;
        case EventKind::kWork:
          // Declared ctx.work() ticks; attribute to the task the thread
          // is running.  Implicit-task work has no lifetime to land on.
          if (state.current != kImplicitTaskId &&
              event.parameter != kNoParameter) {
            lifetimes[state.current].life.work += event.parameter;
          }
          break;
        case EventKind::kTaskwaitBegin:
        case EventKind::kBarrierBegin:
          state.sync_stack.push_back(
              ThreadReplay::SyncFrame{event.time});
          break;
        case EventKind::kTaskwaitEnd:
        case EventKind::kBarrierEnd: {
          // A migrated untied task's taskwait may end on a different
          // thread than it began; such unmatched exits are skipped (the
          // decomposition is exact for tied tasks, approximate across
          // migrations).
          if (state.sync_stack.empty()) break;
          classify_gap(thread,
                       event.time - state.sync_stack.back().last_activity);
          state.sync_stack.pop_back();
          if (!state.sync_stack.empty()) {
            state.sync_stack.back().last_activity = event.time;
          }
          break;
        }
        case EventKind::kParallelBegin:
        case EventKind::kParallelEnd:
        case EventKind::kCreateBegin:
        case EventKind::kRegionEnter:
        case EventKind::kRegionExit:
        case EventKind::kSchedulerNote:
          break;
      }
    }
  }

  // Creation depth, walked up the parent links on an explicit stack (a
  // chain can be 100,000 deep) and memoized.  Event order cannot supply
  // it: an undeferred task's create ends only after its children ran,
  // and a thief can run a task and create its children before the
  // creator records the create.
  std::vector<Replayed*> walk;
  for (auto& [id, task] : lifetimes) {
    if (!task.life.completed || task.depth != 0) continue;
    int depth = 0;
    for (Replayed* at = &task;;) {
      at->depth = -1;
      walk.push_back(at);
      const auto parent = lifetimes.find(at->life.parent);
      if (parent == lifetimes.end() || !parent->second.life.completed) break;
      at = &parent->second;
      // Known depth, or -1 where malformed input loops back on the walk.
      if (at->depth != 0) {
        depth = std::max(at->depth, 0);
        break;
      }
    }
    for (; !walk.empty(); walk.pop_back()) walk.back()->depth = ++depth;
    out.max_creation_depth = std::max(out.max_creation_depth, depth);
  }

  // Collect lifetimes and aggregates.
  for (auto& [id, task] : lifetimes) {
    const TaskLifetime& life = task.life;
    if (!life.completed) continue;
    out.total_active += life.active;
    out.queue_latency.add(queue_latency(life));
    out.instance_fragments.add(life.fragments);
    out.tasks.push_back(life);
  }
  std::sort(out.tasks.begin(), out.tasks.end(),
            [](const TaskLifetime& a, const TaskLifetime& b) {
              return a.begin < b.begin;
            });
  return out;
}

}  // namespace

const std::shared_ptr<const TraceAnalysis>& Trace::analysis() const {
  if (analysis_ == nullptr) {
    analysis_ = std::make_shared<const TraceAnalysis>(replay(*this));
  }
  return analysis_;
}

TraceAnalysis analyze_trace(const Trace& trace) { return *trace.analysis(); }

std::string construct_display_name(RegionHandle region,
                                   const RegionRegistry& registry) {
  if (region != kInvalidRegion && region < registry.size()) {
    return registry.info(region).name;
  }
  return "(unattributed)";
}

std::string render_analysis(const TraceAnalysis& analysis,
                            const RegionRegistry& registry) {
  std::ostringstream os;

  // Per-construct summary.
  struct ConstructAgg {
    std::uint64_t instances = 0;
    Ticks active = 0;
    DurationStats latency;
    std::uint64_t fragments = 0;
    std::uint64_t migrations = 0;
  };
  std::map<RegionHandle, ConstructAgg> constructs;
  for (const TaskLifetime& life : analysis.tasks) {
    ConstructAgg& agg = constructs[life.region];
    agg.instances += 1;
    agg.active += life.active;
    agg.latency.add(queue_latency(life));
    agg.fragments += static_cast<std::uint64_t>(life.fragments);
    agg.migrations += static_cast<std::uint64_t>(life.migrations);
  }
  TextTable table({"task construct", "instances", "active total",
                   "mean queue latency", "fragments", "migrations"});
  for (const auto& [region, agg] : constructs) {
    table.add_row({construct_display_name(region, registry),
                   format_count(agg.instances),
                   format_ticks(agg.active),
                   format_ticks(static_cast<Ticks>(agg.latency.mean())),
                   format_count(agg.fragments),
                   format_count(agg.migrations)});
  }
  os << table.str();

  os << "\nsynchronization-time decomposition (paper SS VII):\n";
  os << "  total non-executing time at scheduling points: "
     << format_ticks(analysis.sync_total) << '\n';
  os << "  management (short gaps between fragments):     "
     << format_ticks(analysis.sync_management) << '\n';
  os << "  waiting for work (long gaps):                  "
     << format_ticks(analysis.sync_waiting) << '\n';
  os << "  management / task-execution ratio:             "
     << format_share(analysis.management_to_execution_ratio()) << '\n';

  os << "\nlongest dependency chain: " << analysis.max_creation_depth
     << " tasks (creation depth)\n";

  os << "\nthreads:\n";
  for (std::size_t t = 0; t < analysis.threads.size(); ++t) {
    const ThreadUsage& usage = analysis.threads[t];
    os << "  thread " << t << ": busy " << format_ticks(usage.busy) << " of "
       << format_ticks(usage.span) << " ("
       << format_share(usage.utilization()) << ", "
       << format_count(usage.fragments) << " fragments, waiting "
       << format_ticks(usage.waiting) << ")\n";
  }
  return os.str();
}

std::string render_timeline(const Trace& trace, std::size_t buckets) {
  const auto [begin, end] = trace.time_span();
  if (end <= begin || buckets == 0) return "(empty trace)\n";
  const double bucket_width =
      static_cast<double>(end - begin) / static_cast<double>(buckets);

  std::ostringstream os;
  os << "timeline: " << format_ticks(end - begin) << " across " << buckets
     << " buckets ('#' executing tasks, '.' other)\n";
  for (ThreadId thread = 0; thread < trace.thread_count(); ++thread) {
    // busy[i] = fraction of bucket i spent in task fragments.
    std::vector<double> busy(buckets, 0.0);
    TaskInstanceId current = kImplicitTaskId;
    Ticks fragment_start = 0;
    auto mark = [&](Ticks from, Ticks to) {
      if (to <= from) return;
      const double first =
          static_cast<double>(from - begin) / bucket_width;
      const double last = static_cast<double>(to - begin) / bucket_width;
      for (std::size_t i = static_cast<std::size_t>(first);
           i <= static_cast<std::size_t>(last) && i < buckets; ++i) {
        const double bucket_lo = static_cast<double>(i) * bucket_width;
        const double bucket_hi = bucket_lo + bucket_width;
        const double overlap =
            std::min(bucket_hi, static_cast<double>(to - begin)) -
            std::max(bucket_lo, static_cast<double>(from - begin));
        if (overlap > 0) busy[i] += overlap / bucket_width;
      }
    };
    for (const TraceEvent& event : trace.thread_events(thread)) {
      switch (event.kind) {
        case EventKind::kTaskBegin:
        case EventKind::kTaskSwitch:
          if (current != kImplicitTaskId) mark(fragment_start, event.time);
          current = event.kind == EventKind::kTaskSwitch &&
                            event.task == kImplicitTaskId
                        ? kImplicitTaskId
                        : event.task;
          fragment_start = event.time;
          break;
        case EventKind::kTaskEnd:
          if (current != kImplicitTaskId) mark(fragment_start, event.time);
          current = kImplicitTaskId;
          break;
        default:
          break;
      }
    }
    os << "t" << thread << " |";
    for (double fraction : busy) {
      os << (fraction > 0.5 ? '#' : (fraction > 0.05 ? '+' : '.'));
    }
    os << "|\n";
  }
  return os.str();
}

}  // namespace taskprof::trace

// The one walk of a trace behind Trace::analysis() and
// Trace::span_model(): one pass over the merged event stream fills the
// TraceAnalysis (trace/analysis.hpp), its taskwait serialization
// included, and the SyncForest (trace/span.hpp), whose measured work and
// span follow.  Each thread has one cursor and each task id one row of
// one task table, so an event costs at most one id lookup.
//
// The views share which explicit task a thread executes and whether it is
// inside its implicit task, and keep their own rules where they differ
// (DESIGN.md §11): the analysis' scheduling-point stack, the forest's sync
// depth and the serialization's taskwait depth are reset by different
// events, and each view names the construct of a task without a create in
// its own way.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "snapshot/format.hpp"
#include "trace/analysis.hpp"
#include "trace/span.hpp"

namespace taskprof::trace {

namespace {

/// Gaps at scheduling points up to this length count as management
/// (dequeue/switch work); longer gaps count as waiting for work.
constexpr Ticks kManagementGapThreshold = 3 * kTicksPerUs;

constexpr std::uint32_t kNoNode = 0xffffffffu;

/// What the walk keeps per task id beside its TaskLifetime, whose
/// construct only a create names.
struct TaskRow {
  /// Memoized creation depth (0 = not yet known, -1 = on the walk in
  /// progress).
  int depth = 0;
  /// The forest node, made by the first event naming the task; its
  /// construct is the first one an event names.
  std::uint32_t node = kNoNode;
  /// The serialization's construct: the latest create's, else the first
  /// begin's.
  std::optional<RegionHandle> serial_region;
};

/// One thread's position in the walk.
struct Cursor {
  /// The explicit task the thread executes (kImplicitTaskId: none), its
  /// row, and the start of its open fragment.
  TaskInstanceId task = kImplicitTaskId;
  std::uint32_t row = 0;
  Ticks fragment_start = 0;
  Ticks implicit_begin = 0;
  bool in_implicit = false;
  /// The analysis' open scheduling points, each with its last activity
  /// (the end of the last fragment executed inside it, or its entry).  An
  /// end pops one only when there is one; an implicit-task end drops all.
  std::vector<Ticks> sync_stack;

  /// The forest node accruing executed time, charged up to `accrued_to`.
  std::uint32_t node = kNoNode;
  std::uint32_t implicit_node = kNoNode;
  Ticks accrued_to = 0;
  int sync_depth = 0;  ///< reset at every implicit-task begin and end
  std::uint32_t regions = 0;  ///< implicit tasks begun so far

  int taskwait_depth = 0;  ///< taskwaits only, never reset

  /// Ordinal of the parallel region the thread is in.
  [[nodiscard]] std::uint32_t region() const noexcept {
    return regions == 0 ? 0 : regions - 1;
  }
};

[[noreturn]] void malformed(const std::string& what) {
  throw snapshot::SnapshotError(snapshot::Errc::kMalformed, "trace replay",
                                what);
}

/// T1, T∞ and the critical chain of the trace both were built from.
WorkSpan measure_work_span(const SyncForest& forest,
                           const TraceAnalysis& analysis) {
  WorkSpan out;
  out.work = forest.implicit_active();
  for (const TaskLifetime& life : analysis.tasks) out.work += life.active;
  if (!analysis.tasks.empty()) {
    out.task_overhead = static_cast<double>(analysis.sync_management) /
                        static_cast<double>(analysis.tasks.size());
  }
  SyncForest::Evaluation chain = forest.evaluate(
      [](const SyncForest::PathKey&, const SyncForest::Segment& segment) {
        return static_cast<double>(segment.active);
      },
      out.task_overhead);
  out.span = static_cast<Ticks>(std::llround(chain.span));
  out.span_length = chain.tasks_on_chain;
  out.on_chain = std::move(chain.on_chain);
  return out;
}

}  // namespace

void Trace::replay() const {
  if (analysis_ != nullptr) return;
  using Kind = SyncForest::Item::Kind;
  TraceAnalysis analysis;
  analysis.threads.resize(thread_count());
  SyncForest forest;
  std::vector<SyncForest::Node>& nodes = forest.nodes_;
  std::vector<Cursor> cursors(thread_count());
  // The task table: row i of `lives` and `rows` is one task id.  The
  // lifetimes of the completed tasks become the analysis' task list in
  // place.
  std::vector<TaskLifetime> lives;
  std::vector<TaskRow> rows;
  std::unordered_map<TaskInstanceId, std::uint32_t> row_of;

  auto row_for = [&](TaskInstanceId id) -> std::uint32_t {
    const auto [it, inserted] =
        row_of.emplace(id, static_cast<std::uint32_t>(rows.size()));
    if (inserted) {
      lives.emplace_back();
      rows.emplace_back();
    }
    return it->second;
  };

  // -- The analysis: fragments and scheduling-point gaps ------------------
  auto classify_gap = [&](ThreadId thread, Ticks gap) {
    if (gap <= 0) return;
    analysis.sync_total += gap;
    if (gap <= kManagementGapThreshold) {
      analysis.sync_management += gap;
      analysis.threads[thread].management += gap;
    } else {
      analysis.sync_waiting += gap;
      analysis.threads[thread].waiting += gap;
    }
  };

  auto close_fragment = [&](Cursor& cursor, ThreadId thread, Ticks now) {
    if (cursor.task == kImplicitTaskId) return;
    const Ticks duration = now - cursor.fragment_start;
    lives[cursor.row].active += duration;
    analysis.threads[thread].busy += duration;
    analysis.threads[thread].fragments += 1;
    if (!cursor.sync_stack.empty()) cursor.sync_stack.back() = now;
    cursor.task = kImplicitTaskId;
  };

  auto open_fragment = [&](Cursor& cursor, ThreadId thread,
                           TaskInstanceId id, std::uint32_t row, Ticks now) {
    if (!cursor.sync_stack.empty()) {
      classify_gap(thread, now - cursor.sync_stack.back());
      cursor.sync_stack.back() = now;
    }
    cursor.task = id;
    cursor.row = row;
    cursor.fragment_start = now;
    lives[row].fragments += 1;
  };

  // -- The forest: nodes and their item lists -----------------------------
  auto node_for = [&](std::uint32_t row, const TraceEvent& event,
                      const Cursor& cursor) -> std::uint32_t {
    std::uint32_t& index = rows[row].node;
    if (index == kNoNode) {
      index = static_cast<std::uint32_t>(nodes.size());
      nodes.emplace_back();
      nodes.back().key = {event.region, event.parameter};
      nodes.back().region = cursor.region();
    } else if (event.region != kInvalidRegion &&
               nodes[index].key.first == kInvalidRegion) {
      nodes[index].key = {event.region, event.parameter};
    }
    return index;
  };

  // Move the open-segment accumulator of a node into its item list.
  auto flush = [&](std::uint32_t index) {
    SyncForest::Node& node = nodes[index];
    if (node.pending_active == 0 && node.pending_work == 0) return;
    node.items.push_back(
        {Kind::kSegment, 0, {node.pending_active, node.pending_work}});
    node.pending_active = 0;
    node.pending_work = 0;
  };

  // Charge the thread's time up to `now` to the node accruing it, if any.
  auto charge = [&](Cursor& cursor, Ticks now) {
    if (cursor.node != kNoNode) {
      SyncForest::Node& node = nodes[cursor.node];
      node.pending_active += now - cursor.accrued_to;
      if (node.implicit) forest.implicit_active_ += now - cursor.accrued_to;
    }
    cursor.accrued_to = now;
  };

  // After a task ends or switches away, the thread is back at its
  // implicit task — but only accrues to it outside scheduling points
  // (inside a barrier/taskwait the gap is waiting, not execution).
  auto rest_node = [](const Cursor& cursor) -> std::uint32_t {
    return cursor.in_implicit && cursor.sync_depth == 0 ? cursor.implicit_node
                                                        : kNoNode;
  };

  // -- Taskwait serialization ---------------------------------------------
  TaskwaitSerialization& serial = analysis.serialization;
  int busy = 0;             // threads executing an explicit task
  int waiting_threads = 0;  // threads inside a taskwait
  bool in_serial = false;
  Ticks serial_start = 0;
  Ticks previous = 0;
  RegionHandle serial_region = kInvalidRegion;

  // The construct of the one task executing, when exactly one is.
  auto lone_region = [&]() -> RegionHandle {
    if (busy != 1) return kInvalidRegion;
    for (const Cursor& cursor : cursors) {
      if (cursor.task != kImplicitTaskId) {
        return rows[cursor.row].serial_region.value_or(kInvalidRegion);
      }
    }
    return kInvalidRegion;
  };

  for (const TraceEvent& event : merged()) {
    const ThreadId thread = event.thread;
    Cursor& cursor = cursors[thread];
    const Ticks now = event.time;
    // The time since the previous event belongs to the state before this
    // one.
    if (in_serial) {
      serial.time += now - previous;
      if (serial_region != kInvalidRegion) {
        serial.by_construct[serial_region] += now - previous;
      }
    }
    previous = now;
    const bool was_executing = cursor.task != kImplicitTaskId;

    switch (event.kind) {
      case EventKind::kImplicitBegin:
        cursor.implicit_begin = now;
        cursor.in_implicit = true;
        cursor.implicit_node = static_cast<std::uint32_t>(nodes.size());
        nodes.emplace_back();
        nodes.back().implicit = true;
        nodes.back().region = cursor.regions++;
        forest.roots_.push_back(cursor.implicit_node);
        cursor.sync_depth = 0;
        cursor.node = cursor.implicit_node;
        cursor.accrued_to = now;
        break;
      case EventKind::kImplicitEnd:
        // Without its begin the thread's span would run from time 0.
        if (!cursor.in_implicit) {
          malformed("thread " + std::to_string(thread) +
                    " ends an implicit task it never began");
        }
        // Migrated untied tasks leave unmatched sync entries behind
        // (their taskwait exits on another thread); drop them.
        cursor.sync_stack.clear();
        analysis.threads[thread].span += now - cursor.implicit_begin;
        cursor.in_implicit = false;
        charge(cursor, now);
        cursor.node = kNoNode;
        cursor.sync_depth = 0;
        break;
      case EventKind::kCreateEnd: {
        const std::uint32_t row = row_for(event.task);
        TaskLifetime& life = lives[row];
        life.id = event.task;
        life.region = event.region;
        life.parameter = event.parameter;
        life.creator = thread;
        life.created = now;
        life.parent = cursor.task;
        rows[row].serial_region = event.region;

        const std::uint32_t child = node_for(row, event, cursor);
        const std::uint32_t creator =
            cursor.node != kNoNode ? cursor.node : rest_node(cursor);
        // Ids are unique within a recorded trace (TraceRecorder shifts
        // each region's).  A repeated create in a hand-built or foreign
        // trace keeps the first creator so the structure stays a forest;
        // the later instance's time lands on the same node.
        if (creator != kNoNode && !nodes[child].has_parent) {
          if (creator == cursor.node) charge(cursor, now);
          flush(creator);
          nodes[creator].items.push_back({Kind::kCreate, child, {}});
          nodes[child].has_parent = true;
        }
        break;
      }
      case EventKind::kTaskBegin: {
        const std::uint32_t row = row_for(event.task);
        if (!was_executing) ++busy;
        close_fragment(cursor, thread, now);
        open_fragment(cursor, thread, event.task, row, now);
        // The begin is the TaskBegin event itself, not the task's first
        // fragment: in merged order a migrated untied task's resume on a
        // lower-numbered thread, stamped at the same time, comes first.
        lives[row].begin = now;
        lives[row].first_thread = thread;
        if (!rows[row].serial_region) rows[row].serial_region = event.region;
        charge(cursor, now);
        cursor.node = node_for(row, event, cursor);
        break;
      }
      case EventKind::kTaskEnd: {
        // Well-formed bytes can still tell an impossible history; a
        // loaded file is input, so reject it typed instead of asserting.
        if (cursor.task != event.task) {
          malformed("task " + std::to_string(event.task) + " ends on thread " +
                    std::to_string(thread) + " but is not running there");
        }
        if (was_executing) --busy;
        const std::uint32_t row =
            was_executing ? cursor.row : row_for(event.task);
        close_fragment(cursor, thread, now);
        lives[row].end = now;
        lives[row].completed = true;
        charge(cursor, now);
        if (cursor.node != kNoNode) flush(cursor.node);
        cursor.node = rest_node(cursor);
        break;
      }
      case EventKind::kTaskSwitch:
        close_fragment(cursor, thread, now);
        charge(cursor, now);
        if (event.task == kImplicitTaskId) {
          if (was_executing) --busy;
          cursor.node = rest_node(cursor);
        } else {
          if (!was_executing) ++busy;
          const std::uint32_t row = row_for(event.task);
          open_fragment(cursor, thread, event.task, row, now);
          cursor.node = node_for(row, event, cursor);
        }
        break;
      case EventKind::kMigrate:
        lives[row_for(event.task)].migrations += 1;
        break;
      case EventKind::kWork:
        // Declared ctx.work() ticks, on the task the thread is running.
        // Implicit-task work has no lifetime to land on and no call path
        // to scale.
        if (event.parameter == kNoParameter) break;
        if (was_executing) lives[cursor.row].work += event.parameter;
        if (cursor.node != kNoNode && !nodes[cursor.node].implicit) {
          nodes[cursor.node].pending_work += event.parameter;
        }
        break;
      case EventKind::kTaskwaitBegin:
      case EventKind::kBarrierBegin:
        cursor.sync_stack.push_back(now);
        // An implicit task stops executing at the scheduling point; an
        // explicit one keeps accruing until it is switched out (the
        // pre-switch sliver is genuine sync-entry cost).
        if (cursor.node != kNoNode && nodes[cursor.node].implicit) {
          charge(cursor, now);
          cursor.node = kNoNode;
        }
        cursor.sync_depth += 1;
        if (event.kind == EventKind::kTaskwaitBegin) {
          if (cursor.taskwait_depth++ == 0) ++waiting_threads;
          ++serial.taskwaits;
        }
        break;
      case EventKind::kTaskwaitEnd:
      case EventKind::kBarrierEnd: {
        // A migrated untied task's taskwait may end on a different
        // thread than it began; such unmatched exits are skipped (the
        // decomposition is exact for tied tasks, approximate across
        // migrations).
        if (!cursor.sync_stack.empty()) {
          classify_gap(thread, now - cursor.sync_stack.back());
          cursor.sync_stack.pop_back();
          if (!cursor.sync_stack.empty()) cursor.sync_stack.back() = now;
        }
        if (cursor.sync_depth > 0) cursor.sync_depth -= 1;
        const std::uint32_t joined = cursor.node != kNoNode ? cursor.node
                                     : cursor.in_implicit
                                         ? cursor.implicit_node
                                         : kNoNode;
        charge(cursor, now);
        if (joined != kNoNode) {
          flush(joined);
          nodes[joined].items.push_back({Kind::kJoin, 0, {}});
        }
        if (cursor.node == kNoNode) cursor.node = rest_node(cursor);
        if (event.kind == EventKind::kTaskwaitEnd &&
            cursor.taskwait_depth > 0 && --cursor.taskwait_depth == 0) {
          --waiting_threads;
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

    const bool serial_now = waiting_threads > 0 && busy <= 1;
    if (serial_now && !in_serial) {
      serial_start = now;
    } else if (!serial_now && in_serial &&
               now - serial_start > serial.longest) {
      serial.longest = now - serial_start;
      serial.longest_start = serial_start;
    }
    in_serial = serial_now;
    serial_region = serial_now ? lone_region() : kInvalidRegion;
  }

  for (std::uint32_t index = 0; index < nodes.size(); ++index) {
    flush(index);
    // Tasks with no recorded creator (foreign traces, dropped events)
    // still bound the program end; treat them as roots at offset 0.
    if (!nodes[index].has_parent && !nodes[index].implicit) {
      forest.roots_.push_back(index);
    }
  }

  // Creation depth, walked up the parent links on an explicit stack (a
  // chain can be 100,000 deep) and memoized.  Event order cannot supply
  // it: an undeferred task's create ends only after its children ran,
  // and a thief can run a task and create its children before the
  // creator records the create.
  std::vector<std::uint32_t> walk;
  for (std::uint32_t row = 0; row < rows.size(); ++row) {
    if (!lives[row].completed || rows[row].depth != 0) continue;
    int depth = 0;
    for (std::uint32_t at = row;;) {
      rows[at].depth = -1;
      walk.push_back(at);
      const auto parent = row_of.find(lives[at].parent);
      if (parent == row_of.end() || !lives[parent->second].completed) break;
      at = parent->second;
      // Known depth, or -1 where malformed input loops back on the walk.
      if (rows[at].depth != 0) {
        depth = std::max(rows[at].depth, 0);
        break;
      }
    }
    for (; !walk.empty(); walk.pop_back()) rows[walk.back()].depth = ++depth;
    analysis.max_creation_depth = std::max(analysis.max_creation_depth, depth);
  }

  std::erase_if(lives,
                [](const TaskLifetime& life) { return !life.completed; });
  for (const TaskLifetime& life : lives) {
    analysis.total_active += life.active;
    analysis.queue_latency.add(life.queue_latency());
    analysis.instance_fragments.add(life.fragments);
  }
  std::sort(lives.begin(), lives.end(),
            [](const TaskLifetime& a, const TaskLifetime& b) {
              return a.begin < b.begin;
            });
  analysis.tasks = std::move(lives);

  WorkSpan measured = measure_work_span(forest, analysis);
  span_model_ = std::make_shared<const SpanModel>(
      SpanModel{std::move(forest), std::move(measured)});
  analysis_ = std::make_shared<const TraceAnalysis>(std::move(analysis));
}

const std::shared_ptr<const TraceAnalysis>& Trace::analysis() const {
  replay();
  return analysis_;
}

const std::shared_ptr<const SpanModel>& Trace::span_model() const {
  replay();
  return span_model_;
}

TraceAnalysis analyze_trace(const Trace& trace) { return *trace.analysis(); }

}  // namespace taskprof::trace

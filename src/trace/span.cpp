#include "trace/span.hpp"

#include <cmath>
#include <memory>
#include <unordered_map>

#include "trace/analysis.hpp"

namespace taskprof::trace {

namespace {

constexpr std::uint32_t kNoNode = 0xffffffffu;

/// Per-thread replay cursor.
struct ThreadCursor {
  std::uint32_t current = kNoNode;    ///< node accruing executed time
  std::uint32_t implicit = kNoNode;   ///< this thread's implicit node
  Ticks fragment_start = 0;
  int sync_depth = 0;
  bool in_implicit = false;
  std::uint32_t regions = 0;  ///< implicit tasks begun so far

  /// Ordinal of the parallel region the thread is in.
  [[nodiscard]] std::uint32_t region() const noexcept {
    return regions == 0 ? 0 : regions - 1;
  }
};

}  // namespace

SyncForest SyncForest::build(const Trace& trace) {
  SyncForest out;
  std::vector<ThreadCursor> cursors(trace.thread_count());
  std::unordered_map<TaskInstanceId, std::uint32_t> node_of;

  auto ensure_node = [&](const TraceEvent& event,
                         const ThreadCursor& cursor) -> std::uint32_t {
    auto [it, inserted] = node_of.emplace(
        event.task, static_cast<std::uint32_t>(out.nodes_.size()));
    if (inserted) {
      Node node;
      node.key = {event.region, event.parameter};
      node.region = cursor.region();
      out.nodes_.push_back(std::move(node));
    } else if (event.region != kInvalidRegion &&
               out.nodes_[it->second].key.first == kInvalidRegion) {
      out.nodes_[it->second].key = {event.region, event.parameter};
    }
    return it->second;
  };

  // Move the open-segment accumulator of `node` into its item list.
  auto flush = [&](std::uint32_t index) {
    Node& node = out.nodes_[index];
    if (node.pending_active == 0 && node.pending_work == 0) return;
    Item item;
    item.kind = Item::Kind::kSegment;
    item.segment = {node.pending_active, node.pending_work};
    node.items.push_back(item);
    node.pending_active = 0;
    node.pending_work = 0;
  };

  auto accrue = [&](ThreadCursor& cursor, Ticks now) {
    if (cursor.current == kNoNode) return;
    Node& node = out.nodes_[cursor.current];
    const Ticks duration = now - cursor.fragment_start;
    node.pending_active += duration;
    if (node.implicit) out.implicit_active_ += duration;
    cursor.fragment_start = now;
  };

  // After a task ends or switches away, the thread is back at its
  // implicit task — but only accrues to it outside scheduling points
  // (inside a barrier/taskwait the gap is waiting, not execution).
  auto rest_node = [&](const ThreadCursor& cursor) -> std::uint32_t {
    return cursor.in_implicit && cursor.sync_depth == 0 ? cursor.implicit
                                                        : kNoNode;
  };

  for (const TraceEvent& event : trace.merged()) {
    ThreadCursor& cursor = cursors[event.thread];
    const Ticks now = event.time;
    switch (event.kind) {
      case EventKind::kImplicitBegin: {
        cursor.implicit = static_cast<std::uint32_t>(out.nodes_.size());
        Node node;
        node.implicit = true;
        node.region = cursor.regions++;
        out.nodes_.push_back(std::move(node));
        out.roots_.push_back(cursor.implicit);
        cursor.in_implicit = true;
        cursor.sync_depth = 0;
        cursor.current = cursor.implicit;
        cursor.fragment_start = now;
        break;
      }
      case EventKind::kImplicitEnd:
        accrue(cursor, now);
        cursor.current = kNoNode;
        cursor.in_implicit = false;
        cursor.sync_depth = 0;
        break;
      case EventKind::kCreateEnd: {
        const std::uint32_t child = ensure_node(event, cursor);
        const std::uint32_t creator =
            cursor.current != kNoNode ? cursor.current : rest_node(cursor);
        // Ids are unique within a recorded trace (TraceRecorder shifts
        // each region's).  A repeated create in a hand-built or foreign
        // trace keeps the first creator so the structure stays a forest;
        // the later instance's time lands on the same node.
        if (creator != kNoNode && !out.nodes_[child].has_parent) {
          if (creator == cursor.current) accrue(cursor, now);
          flush(creator);
          Item item;
          item.kind = Item::Kind::kCreate;
          item.child = child;
          out.nodes_[creator].items.push_back(item);
          out.nodes_[child].has_parent = true;
        }
        break;
      }
      case EventKind::kTaskBegin:
        accrue(cursor, now);
        cursor.current = ensure_node(event, cursor);
        cursor.fragment_start = now;
        break;
      case EventKind::kTaskEnd:
        accrue(cursor, now);
        if (cursor.current != kNoNode) flush(cursor.current);
        cursor.current = rest_node(cursor);
        cursor.fragment_start = now;
        break;
      case EventKind::kTaskSwitch:
        accrue(cursor, now);
        cursor.current = event.task == kImplicitTaskId
                             ? rest_node(cursor)
                             : ensure_node(event, cursor);
        cursor.fragment_start = now;
        break;
      case EventKind::kWork:
        if (cursor.current != kNoNode && event.parameter != kNoParameter &&
            !out.nodes_[cursor.current].implicit) {
          out.nodes_[cursor.current].pending_work += event.parameter;
        }
        break;
      case EventKind::kTaskwaitBegin:
      case EventKind::kBarrierBegin:
        // An implicit task stops executing at the scheduling point; an
        // explicit one keeps accruing until it is switched out (the
        // pre-switch sliver is genuine sync-entry cost).
        if (cursor.current != kNoNode &&
            out.nodes_[cursor.current].implicit) {
          accrue(cursor, now);
          cursor.current = kNoNode;
        }
        cursor.sync_depth += 1;
        break;
      case EventKind::kTaskwaitEnd:
      case EventKind::kBarrierEnd: {
        if (cursor.sync_depth > 0) cursor.sync_depth -= 1;
        std::uint32_t subject = cursor.current;
        if (subject != kNoNode) {
          accrue(cursor, now);
        } else if (cursor.in_implicit) {
          subject = cursor.implicit;
        }
        if (subject != kNoNode) {
          flush(subject);
          Item item;
          item.kind = Item::Kind::kJoin;
          out.nodes_[subject].items.push_back(item);
        }
        if (cursor.current == kNoNode) {
          cursor.current = rest_node(cursor);
          cursor.fragment_start = now;
        }
        break;
      }
      case EventKind::kParallelBegin:
      case EventKind::kParallelEnd:
      case EventKind::kCreateBegin:
      case EventKind::kMigrate:
      case EventKind::kRegionEnter:
      case EventKind::kRegionExit:
      case EventKind::kSchedulerNote:
        break;
    }
  }

  for (std::uint32_t index = 0; index < out.nodes_.size(); ++index) {
    flush(index);
    // Tasks with no recorded creator (foreign traces, dropped events)
    // still bound the program end; treat them as roots at offset 0.
    if (!out.nodes_[index].has_parent && !out.nodes_[index].implicit) {
      out.roots_.push_back(index);
    }
  }
  return out;
}

SyncForest::Evaluation SyncForest::evaluate(const CostFn& cost,
                                            double task_overhead) const {
  // completion[n] is n's subtree span measured from n's start.  A fold
  // only needs its children's completions; the chain is rebuilt once at
  // the end from the fold winners, so no per-node chain state is kept.
  constexpr std::uint8_t kDone = 1;
  constexpr std::uint8_t kWon = 2;  // won the fold that joined it
  std::vector<double> completion(nodes_.size(), 0.0);
  std::vector<std::uint8_t> flags(nodes_.size(), 0);
  // Children created since the node's last join: (offset, child).
  std::vector<std::pair<double, std::uint32_t>> pending;

  auto eval_node = [&](std::uint32_t index) {
    const Node& node = nodes_[index];
    double clock = 0.0;
    if (!node.implicit) clock += task_overhead;

    auto fold = [&]() {
      // max(clock, offset_i + completion_i); strict > keeps the node's
      // own continuation (then the earliest child) on ties.
      std::uint32_t best = kNoNode;
      double best_time = clock;
      for (const auto& [offset, child] : pending) {
        const double candidate = offset + completion[child];
        if (candidate > best_time) {
          best_time = candidate;
          best = child;
        }
      }
      if (best != kNoNode) {
        flags[best] |= kWon;
        clock = best_time;
      }
      pending.clear();
    };

    for (const Item& item : node.items) {
      switch (item.kind) {
        case Item::Kind::kSegment:
          clock += node.implicit ? static_cast<double>(item.segment.active)
                                 : cost(node.key, item.segment);
          break;
        case Item::Kind::kCreate:
          pending.emplace_back(clock, item.child);
          break;
        case Item::Kind::kJoin:
          fold();
          break;
      }
    }
    fold();  // children never waited on gate the program end
    completion[index] = clock;
    flags[index] |= kDone;
  };

  // Post-order over the forest (each node has at most one creator).
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (const std::uint32_t root : roots_) {
    if ((flags[root] & kDone) != 0) continue;
    stack.emplace_back(root, 0);
    while (!stack.empty()) {
      auto& [index, item_cursor] = stack.back();
      const Node& node = nodes_[index];
      bool descended = false;
      while (item_cursor < node.items.size()) {
        const Item& item = node.items[item_cursor++];
        if (item.kind == Item::Kind::kCreate &&
            (flags[item.child] & kDone) == 0) {
          stack.emplace_back(item.child, 0);
          descended = true;
          break;
        }
      }
      if (descended) continue;
      eval_node(index);
      stack.pop_back();
    }
  }

  // Parallel regions run one after another: the span adds up each
  // region's longest root (the first one on ties).
  std::vector<std::uint32_t> best_root;
  for (const std::uint32_t root : roots_) {
    const std::uint32_t region = nodes_[root].region;
    if (best_root.size() <= region) best_root.resize(region + 1, kNoNode);
    if (best_root[region] == kNoNode ||
        completion[root] > completion[best_root[region]]) {
      best_root[region] = root;
    }
  }
  Evaluation out;
  std::vector<std::uint32_t> chain;
  for (const std::uint32_t root : best_root) {
    if (root == kNoNode) continue;
    out.span += completion[root];
    chain.push_back(root);
  }

  // Rebuild the chain from the best roots: a node contributes its
  // segments except those between a winning create and the join that
  // folded it (they ran beside the winning child, off the chain).
  while (!chain.empty()) {
    const Node& node = nodes_[chain.back()];
    chain.pop_back();
    ChainShare* share = node.implicit ? nullptr : &out.on_chain[node.key];
    if (share != nullptr) {
      share->tasks += 1;
      out.tasks_on_chain += 1;
    }
    bool beside_winner = false;
    for (const Item& item : node.items) {
      switch (item.kind) {
        case Item::Kind::kSegment:
          if (share != nullptr && !beside_winner) {
            share->active += item.segment.active;
            share->work += item.segment.work;
          }
          break;
        case Item::Kind::kCreate:
          if ((flags[item.child] & kWon) != 0) {
            beside_winner = true;
            chain.push_back(item.child);
          }
          break;
        case Item::Kind::kJoin:
          beside_winner = false;
          break;
      }
    }
  }
  return out;
}

namespace {

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

const std::shared_ptr<const SpanModel>& Trace::span_model() const {
  if (span_model_ == nullptr) {
    const TraceAnalysis& replayed = *analysis();
    SyncForest forest = SyncForest::build(*this);
    WorkSpan measured = measure_work_span(forest, replayed);
    span_model_ = std::make_shared<const SpanModel>(
        SpanModel{std::move(forest), std::move(measured)});
  }
  return span_model_;
}

}  // namespace taskprof::trace

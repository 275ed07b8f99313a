// Sync-aware work/span, the one span model behind trace analysis,
// diagnosis and what-if projection.  Each trace builds it once, in the
// same walk of its events that fills its analysis (trace/replay.cpp),
// and diagnose and what-if share that one copy (Trace::span_model()).
//
// A creation-tree chain (parent -> child, summed by active time) treats
// every child as concurrent with its siblings and its creator.  It
// misses taskwait phasing (sort/fft create their "merge" children only
// after waiting on the "split" ones) and creation serialization (a farm
// spawned one create at a time by the implicit task, whose time the
// creation tree does not model at all).
//
// SyncForest holds one node per task (explicit tasks and each thread's
// implicit task, in the order the merged event stream first names them)
// with an ordered item list:
//
//   Segment{active, work}  executed time between structural points
//   Create{child}          a child task spawned here
//   Join                   a taskwait/barrier completed here
//
// Span evaluation is the classic max-plus recursion over that
// structure: a node's clock advances through its segments; a Join
// folds every child created since the previous Join as
// max(clock, creation_offset + child_completion); the node's
// completion additionally folds children never waited on (they gate
// the enclosing barrier, i.e. the program end).  Parallel regions run one
// after another: each thread has one implicit node per region, and the
// span adds up every region's longest root.  Segment durations are
// supplied by a callback, so the same structure answers both "what is
// the span?" and "what would the span be if path X were N% faster?" —
// scaling is exact per segment because ctx.work() declarations (kWork
// events) are attributed to the segment they occurred in.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "trace/trace.hpp"

namespace taskprof::trace {

class SyncForest {
 public:
  /// A call path: task construct plus instance parameter.
  using PathKey = std::pair<RegionHandle, std::int64_t>;

  /// Executed time between two structural points of one task.
  struct Segment {
    Ticks active = 0;  ///< executed ticks
    Ticks work = 0;    ///< declared ctx.work() ticks within them
  };

  /// Maps a segment of a task on `key` to its (possibly scaled)
  /// duration.  Never consulted for implicit tasks (they are not call
  /// paths and a hypothesis cannot scale them).
  using CostFn = std::function<double(const PathKey&, const Segment&)>;

  /// What one call path contributes to the critical chain.
  struct ChainShare {
    Ticks active = 0;  ///< executed ticks of its segments on the chain
    Ticks work = 0;    ///< declared ctx.work() ticks among them
    int tasks = 0;     ///< its tasks on the chain
  };

  struct Evaluation {
    double span = 0.0;       ///< series-parallel critical path
    int tasks_on_chain = 0;  ///< explicit tasks on it
    std::map<PathKey, ChainShare> on_chain;
  };

  SyncForest() = default;

  /// Total executed time of the implicit tasks (creation serialization
  /// and other inline work); part of T1 but of no call path.
  [[nodiscard]] Ticks implicit_active() const noexcept {
    return implicit_active_;
  }

  /// Evaluate the span under `cost`.  `task_overhead` is an unscalable
  /// per-task dispatch cost added to every explicit task on a chain —
  /// keeping it inside the max-plus evaluation (rather than bolted onto
  /// the result) means the chain choice accounts for it and the
  /// old-chain-feasibility argument behind the Amdahl ceiling survives
  /// scaling.  Deterministic: a fold keeps the node's own continuation
  /// on ties, then the earliest child in creation order.
  [[nodiscard]] Evaluation evaluate(const CostFn& cost,
                                    double task_overhead = 0.0) const;

 private:
  friend class Trace;  // its one walk builds the forest (trace/replay.cpp)

  struct Item {
    enum class Kind : std::uint8_t { kSegment, kCreate, kJoin };
    Kind kind = Kind::kSegment;
    std::uint32_t child = 0;  ///< kCreate: index into nodes_
    Segment segment;          ///< kSegment
  };

  struct Node {
    PathKey key{kInvalidRegion, kNoParameter};
    bool implicit = false;
    bool has_parent = false;
    std::uint32_t region = 0;  ///< ordinal of the parallel region it ran in
    std::vector<Item> items;
    // Build-time accumulators for the open segment.
    Ticks pending_active = 0;
    Ticks pending_work = 0;
  };

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> roots_;
  Ticks implicit_active_ = 0;
};

/// Work and span of one recorded trace.
struct WorkSpan {
  Ticks work = 0;  ///< T1: executed task time plus implicit-task time
  /// T∞: the sync-aware span with `task_overhead` charged per chain task.
  Ticks span = 0;
  int span_length = 0;  ///< explicit tasks on the critical chain
  /// Measured task-management time (the analysis' short
  /// scheduling-point gaps) spread evenly over the completed tasks.
  double task_overhead = 0.0;
  std::map<SyncForest::PathKey, SyncForest::ChainShare> on_chain;

  /// T1 / T∞.  T∞ carries the per-task management time that T1 leaves
  /// out, so on fine-grained chains this can fall below 1.
  [[nodiscard]] double logical_parallelism() const noexcept {
    return span == 0 ? 0.0
                     : static_cast<double>(work) / static_cast<double>(span);
  }
};

/// A trace's span model (Trace::span_model()): its series-parallel
/// structure, and T1, T∞ and the critical chain measured on it as
/// recorded (every segment at its executed time).
struct SpanModel {
  SyncForest forest;
  WorkSpan measured;
};

}  // namespace taskprof::trace

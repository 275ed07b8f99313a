// Causal what-if projection: "how much faster would the program run if
// call path X were N% faster?"
//
// TASKPROF (Yoga & Nagarakatte, PAPERS.md) popularized answering this
// from work/span accounting instead of guesswork: per call path, subtract
// the hypothesized saving from total work (T1) and re-evaluate the
// sync-aware series-parallel span (trace/span.hpp — taskwait phasing and
// creation serialization included) with scaled per-segment durations to
// get the new span (T∞'), then estimate wall-clock at P threads with the
// Graham/Brent two-term bound
//
//     T_est(P) = (T1 - T∞) / P + T∞.
//
// T1 and T∞ are overhead-augmented: measured task-management time (the
// trace analysis' short scheduling-point gaps) is added to T1 whole and
// enters T∞ as a per-task dispatch cost *inside* the max-plus span
// evaluation, so the critical chain itself accounts for it — a
// hypothesis shrinks task bodies, never the dispatch cost around them,
// and that floor binds as bodies shrink.  T1 and T∞ before any
// hypothesis are those of the trace's span model
// (trace::Trace::span_model()), the numbers diagnose reports.  The
// projected speedup at P is T_est(P) / T_est'(P).  Four
// invariants follow (tests/test_whatif_property.cpp fuzzes them):
//
//   1. speedup ∈ [1, 1/(1 - share·N)] where share = max(scalable
//      work share of T1, scalable span share of T∞) — the Amdahl-style
//      ceiling via the mediant inequality;
//   2. speedup is monotone non-decreasing in N;
//   3. on a serial chain (T1 = T∞) the projection is exact:
//      speedup = 1 / (1 - N·share);
//   4. T_est'(P) ≥ max(T1'/P, T∞') at every P — Brent's lemma holds by
//      construction.
//
// Scaling basis: traces recorded on the sim engine carry kWork events
// (the declared ctx.work() ticks), and only that portion of a task's
// active time is scaled — exactly what the sim-replay validation
// (validate.hpp) scales via rt::DurationScale.  Real-engine traces have
// no work events; there the full active time is scaled, which also
// optimizes away the task-management time inside the body (documented
// divergence, DESIGN.md §14).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "diagnose/workspan.hpp"
#include "profile/region.hpp"
#include "trace/analysis.hpp"
#include "trace/span.hpp"

namespace taskprof::whatif {

// -- Typed errors -----------------------------------------------------------

enum class ErrorCode : std::uint8_t {
  kNone = 0,
  kUnknownPath,   ///< target names no profiled call path
  kBadFraction,   ///< N outside (0, 100]
  kBadSpec,       ///< malformed "path=N" argument
  kNoTrace,       ///< input provides no trace to profile
  kEmptyProfile,  ///< trace contains no completed tasks
};

[[nodiscard]] const char* error_code_name(ErrorCode code) noexcept;

struct Error {
  ErrorCode code = ErrorCode::kNone;
  std::string message;

  [[nodiscard]] bool ok() const noexcept { return code == ErrorCode::kNone; }
};

// -- Profile ----------------------------------------------------------------

/// One profiled call path: a task construct plus the parameter value its
/// instances carried (kNoParameter when untagged).
struct CallPathStats {
  RegionHandle region = kInvalidRegion;
  std::string name;
  std::int64_t parameter = kNoParameter;
  std::uint64_t instances = 0;
  Ticks active = 0;    ///< Σ executed-fragment time
  Ticks work = 0;      ///< Σ declared ctx.work() ticks (0 without kWork)
  Ticks scalable = 0;  ///< what a hypothesis scales: work or active
  Ticks on_span = 0;   ///< scalable time on the measured critical chain

  /// "name" or "name[parameter]".
  [[nodiscard]] std::string label() const;
};

/// A parsed `--whatif PATH=N` argument.
struct TargetSpec {
  std::string path;
  double fraction = 0.0;  ///< N/100 ∈ (0, 1]
};

/// Parse "path=N" (N percent in (0, 100], decimals allowed).
[[nodiscard]] Error parse_target_spec(const std::string& text,
                                      TargetSpec* out);

/// Projection of one hypothesis at one thread count.
struct ThreadProjection {
  int threads = 0;
  double time_before = 0.0;  ///< T_est(P), ns
  double time_after = 0.0;   ///< T_est'(P), ns
  double speedup = 1.0;      ///< time_before / time_after
};

/// Full projection of one hypothesis ("path N% faster").
struct Projection {
  std::string target;       ///< resolved call-path label
  double fraction = 0.0;    ///< N/100
  Ticks scalable = 0;       ///< Σ scalable time over the target's tasks
  Ticks scalable_on_span = 0;
  double share = 0.0;       ///< max(scalable/T1, scalable_on_span/T∞)
  double bound = 0.0;       ///< Amdahl ceiling 1/(1 - share·fraction)
  Ticks work_after = 0;     ///< T1'
  Ticks span_after = 0;     ///< T∞' (series-parallel re-evaluation)
  int span_length_after = 0;
  double parallelism_after = 0.0;  ///< T1'/T∞'
  /// One entry per requested thread count, ascending.
  std::vector<ThreadProjection> at_threads;
};

/// Per-call-path work/span profile over a recorded trace, ready for
/// repeated what-if queries.  It shares ownership of the trace's own
/// analysis and span model (trace::Trace::analysis(), span_model()), so
/// it stays valid after the trace and the caller's analysis are gone.
/// The accessors below read a profile that build() filled.
class WhatIfProfile {
 public:
  /// Fails with kEmptyProfile when the trace has no completed tasks.
  /// `analysis` must be the analysis of `trace`; the profile reads the
  /// trace's shared copy.  Throws snapshot::SnapshotError (kMalformed)
  /// when the trace does not replay.
  static Error build(const trace::Trace& trace,
                     const trace::TraceAnalysis& analysis,
                     const RegionRegistry& registry, WhatIfProfile* out);

  /// T1: executed task time plus implicit-task time (creation
  /// serialization and inline work).
  [[nodiscard]] Ticks work() const noexcept { return measured().work; }
  /// T∞ including the per-task dispatch overhead of the chain's tasks.
  [[nodiscard]] Ticks span() const noexcept { return measured().span; }
  [[nodiscard]] int span_length() const noexcept {
    return measured().span_length;
  }
  [[nodiscard]] double logical_parallelism() const noexcept {
    return measured().logical_parallelism();
  }
  /// Thread count of the recorded run.
  [[nodiscard]] int measured_threads() const noexcept {
    return measured_threads_;
  }
  /// True when the trace carried kWork events (sim engine) and scaling
  /// uses declared work; false = full active time (real engine).
  [[nodiscard]] bool work_basis() const noexcept { return work_basis_; }
  /// Measured task-management time (short scheduling-point gaps:
  /// dequeue/switch/completion).  A hypothesis does not shrink it; the
  /// estimator adds it to T1 whole, and span() already carries it as a
  /// per-task dispatch cost on the chain — the floor that binds once
  /// bodies shrink.
  [[nodiscard]] Ticks overhead() const noexcept {
    return analysis_->sync_management;
  }
  /// Call paths, heaviest scalable time first.
  [[nodiscard]] const std::vector<CallPathStats>& paths() const noexcept {
    return paths_;
  }

  /// Resolve a target path ("name" or "name[param]"; a bare name matches
  /// every parameter of that construct) to indices into paths().
  Error resolve(const std::string& path, std::vector<std::size_t>* out) const;

  /// Project the hypothesis "these paths run at (1-fraction) of their
  /// scalable time" at each of `thread_counts` (deduplicated, ascending;
  /// the measured count is always included).
  [[nodiscard]] Projection project(const std::vector<std::size_t>& targets,
                                   double fraction,
                                   const std::vector<int>& thread_counts) const;

  /// Rank every call path by projected speedup at the measured thread
  /// count under a uniform `fraction` — the "top optimization targets"
  /// table.  Ties break toward the larger scalable time, then the label.
  [[nodiscard]] std::vector<Projection> rank_targets(
      double fraction, const std::vector<int>& thread_counts) const;

 private:
  std::shared_ptr<const trace::TraceAnalysis> analysis_;
  std::shared_ptr<const trace::SpanModel> span_;
  std::vector<CallPathStats> paths_;
  int measured_threads_ = 1;
  bool work_basis_ = false;

  [[nodiscard]] const trace::WorkSpan& measured() const noexcept {
    return span_->measured;
  }
  [[nodiscard]] Ticks scalable_of(const trace::TaskLifetime& life) const;
};

}  // namespace taskprof::whatif

// Per-task-construct statistics read off a call-path profile: the
// quantities of the paper's Tables I, III and IV (instances, mean
// instance time, creation cost, taskwait time, the scheduling-point
// split, the per-parameter breakdown).  The text summary prints them;
// the diagnosis detectors (diagnose/diagnose.hpp) turn them into
// findings.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure/aggregate.hpp"
#include "profile/region.hpp"

namespace taskprof {

/// Per-task-construct statistics, the core of the paper's Tables I/III.
struct TaskConstructStats {
  RegionHandle region = kInvalidRegion;
  std::string name;
  std::int64_t parameter = kNoParameter;  ///< kNoParameter = all instances

  std::uint64_t instances = 0;     ///< completed task instances
  Ticks inclusive_total = 0;       ///< sum of instance inclusive times
  Ticks inclusive_min = 0;
  Ticks inclusive_max = 0;
  double inclusive_mean = 0.0;
  Ticks exclusive_total = 0;       ///< task-region exclusive (the body work)

  std::uint64_t creations = 0;     ///< visits of the "create <name>" nodes
  Ticks create_total = 0;          ///< exclusive time creating instances
  double create_mean = 0.0;

  Ticks taskwait_total = 0;        ///< exclusive taskwait time inside the task
  std::uint64_t taskwaits = 0;
};

/// Whole-profile scheduling-point summary (paper Table III's bottom rows).
struct SchedulingPointSummary {
  Ticks barrier_inclusive = 0;   ///< implicit+explicit barrier, incl. stubs
  Ticks barrier_exclusive = 0;   ///< barrier time not executing tasks
  Ticks barrier_stub_time = 0;   ///< task execution inside barriers
  std::uint64_t barrier_visits = 0;
  Ticks taskwait_exclusive = 0;  ///< over all trees
  Ticks create_exclusive = 0;    ///< over all "create task" nodes
  Ticks parallel_inclusive = 0;  ///< sum over threads of the parallel region
};

/// Statistics for every task construct in the profile (one entry per
/// merged task tree, i.e. per (region, parameter) pair).
[[nodiscard]] std::vector<TaskConstructStats> task_construct_stats(
    const AggregateProfile& profile, const RegionRegistry& registry);

/// Rows of the per-parameter breakdown for one construct, sorted by
/// parameter value (paper Table IV).  Empty when the profile has no
/// parameterized sub-trees for the construct.
[[nodiscard]] std::vector<TaskConstructStats> parameter_breakdown(
    const AggregateProfile& profile, const RegionRegistry& registry,
    RegionHandle task_region);

[[nodiscard]] SchedulingPointSummary scheduling_point_summary(
    const AggregateProfile& profile, const RegionRegistry& registry);

}  // namespace taskprof

#include "diagnose/detectors.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>

#include "common/format.hpp"

namespace taskprof::diag {

namespace {

/// Mean exclusive (body) time per instance of a construct.
double exec_mean(const TaskConstructStats& c) {
  return c.instances == 0 ? 0.0
                          : static_cast<double>(c.exclusive_total) /
                                static_cast<double>(c.instances);
}

void add_metric(Diagnosis* d, const char* name, double value,
                const char* unit) {
  d->metrics.push_back(Metric{name, value, unit});
}

/// The construct contributing the most critical-path time (the
/// what-to-optimize site when a diagnosis has no sharper anchor).
CallSite dominant_span_site(const DetectorContext& ctx) {
  if (ctx.workspan != nullptr && !ctx.workspan->shares.empty()) {
    return resolve_site(*ctx.input.registry, ctx.workspan->shares[0].region);
  }
  CallSite site;
  site.name = "(unknown)";
  return site;
}

}  // namespace

const char* severity_name(Severity severity) noexcept {
  switch (severity) {
    case Severity::kInfo: return "info";
    case Severity::kWarning: return "warning";
    case Severity::kProblem: return "problem";
  }
  return "?";
}

std::string CallSite::label() const {
  if (file.empty()) return name;
  return name + " (" + file + ":" + std::to_string(line) + ")";
}

CallSite resolve_site(const RegionRegistry& registry, RegionHandle region) {
  CallSite site;
  site.region = region;
  if (region != kInvalidRegion && region < registry.size()) {
    const RegionInfo& info = registry.info(region);
    site.name = info.name;
    site.file = info.file;
    site.line = info.line;
  } else {
    site.name = "region " + std::to_string(region);
  }
  return site;
}

// ---------------------------------------------------------------------------
// creation_storm: tasks created much faster than they start executing,
// piling up an unbounded backlog (Tuft et al.'s "creation storm").  Needs
// the time dimension, so it only runs with a trace.
// ---------------------------------------------------------------------------

// Thresholds here and below are tuned so the seeded anti-pattern corpora
// fire and clean BOTS runs at sane thread counts stay below kProblem
// (DESIGN.md §13 documents the calibration).
constexpr std::uint64_t kStormMinCreations = 256;  ///< ignore tiny runs
/// Peak creation backlog (created - begun) that fires the detector, as a
/// per-thread multiple; the absolute floor below also applies.
constexpr std::uint64_t kStormBacklogPerThread = 32;
constexpr std::uint64_t kStormBacklogFloor = 192;

void detect_creation_storm(const DetectorContext& ctx,
                           std::vector<Diagnosis>* out) {
  if (ctx.input.trace == nullptr) return;

  std::uint64_t created = 0;
  std::uint64_t begun = 0;
  std::uint64_t peak_backlog = 0;
  Ticks peak_time = 0;
  ThreadId peak_thread = 0;
  Ticks first_create = 0;
  Ticks last_begin = 0;
  bool any_create = false;
  // Creations attributed per construct while the backlog is elevated —
  // that names the storm's source rather than an innocent bystander.
  const std::uint64_t elevated =
      std::max<std::uint64_t>(ctx.threads > 0
                                  ? static_cast<std::uint64_t>(ctx.threads) * 4
                                  : 4,
                              16);
  std::map<RegionHandle, std::uint64_t> elevated_creates;

  for (const trace::TraceEvent& event : ctx.input.trace->merged()) {
    switch (event.kind) {
      case trace::EventKind::kCreateEnd:
        ++created;
        if (!any_create) {
          first_create = event.time;
          any_create = true;
        }
        if (created - begun > peak_backlog) {
          peak_backlog = created - begun;
          peak_time = event.time;
          peak_thread = event.thread;
        }
        if (created - begun >= elevated) {
          elevated_creates[event.region] += 1;
        }
        break;
      case trace::EventKind::kTaskBegin:
        ++begun;
        last_begin = event.time;
        break;
      default:
        break;
    }
  }
  if (created < kStormMinCreations) return;

  const std::uint64_t threshold = std::max(
      kStormBacklogFloor,
      kStormBacklogPerThread * static_cast<std::uint64_t>(ctx.threads));
  if (peak_backlog < threshold / 2) return;

  Diagnosis d;
  d.detector = "creation_storm";
  d.severity =
      peak_backlog >= threshold ? Severity::kProblem : Severity::kWarning;
  d.score = static_cast<double>(peak_backlog);
  d.at = peak_time;
  d.thread = peak_thread;

  RegionHandle worst = kInvalidRegion;
  std::uint64_t worst_count = 0;
  for (const auto& [region, count] : elevated_creates) {
    if (count > worst_count) {
      worst = region;
      worst_count = count;
    }
  }
  if (worst != kInvalidRegion) {
    d.sites.push_back(resolve_site(*ctx.input.registry, worst));
  }

  std::ostringstream os;
  os << "creation storm: backlog of ready tasks peaked at "
     << format_count(peak_backlog) << " (" << format_count(created)
     << " created) - tasks are created far faster than they start";
  d.summary = os.str();
  d.remediation =
      "throttle task creation (e.g. a depth/if cut-off or taskloop "
      "grainsize) or let the creating thread execute work itself";
  add_metric(&d, "peak_backlog", static_cast<double>(peak_backlog), "tasks");
  add_metric(&d, "creations", static_cast<double>(created), "tasks");
  add_metric(&d, "backlog_threshold", static_cast<double>(threshold),
             "tasks");
  if (last_begin > first_create && created > 0) {
    const double window_s = static_cast<double>(last_begin - first_create) /
                            static_cast<double>(kTicksPerSec);
    if (window_s > 0) {
      add_metric(&d, "creation_rate", static_cast<double>(created) / window_s,
                 "tasks/s");
    }
  }
  out->push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// serialized_spawn_chain: a deep path of single-child spawns — the task
// graph degenerates into a linked list, so added workers idle.
// ---------------------------------------------------------------------------

constexpr int kChainMinDepth = 8;
/// Chain active time must cover at least this fraction of total work
/// (otherwise the chain is a sideshow, not the bottleneck).
constexpr double kChainWorkFraction = 0.5;

void detect_serialized_spawn_chain(const DetectorContext& ctx,
                                   std::vector<Diagnosis>* out) {
  if (ctx.trace_analysis == nullptr || ctx.workspan == nullptr) return;
  if (ctx.threads < 2) return;
  const trace::TraceAnalysis& analysis = *ctx.trace_analysis;

  std::unordered_map<TaskInstanceId, const trace::TaskLifetime*> by_id;
  std::unordered_map<TaskInstanceId, std::vector<TaskInstanceId>> children;
  for (const trace::TaskLifetime& life : analysis.tasks) {
    by_id.emplace(life.id, &life);
    children[life.parent].push_back(life.id);
  }
  for (auto& [parent, kids] : children) std::sort(kids.begin(), kids.end());
  auto child_count = [&](TaskInstanceId id) -> std::size_t {
    const auto it = children.find(id);
    return it == children.end() ? 0 : it->second.size();
  };

  // Chain starts: tasks that are not themselves a single child of a
  // single-spawning parent.  Walk down while each link spawns exactly one.
  int best_len = 0;
  Ticks best_active = 0;
  TaskInstanceId best_start = 0;
  for (const trace::TaskLifetime& life : analysis.tasks) {
    const auto parent = by_id.find(life.parent);
    if (parent != by_id.end() && child_count(life.parent) == 1) {
      continue;  // interior link; its chain is counted from the start
    }
    int len = 1;
    Ticks active = life.active;
    TaskInstanceId cur = life.id;
    while (child_count(cur) == 1) {
      const TaskInstanceId next = children.at(cur)[0];
      cur = next;
      active += by_id.at(next)->active;
      ++len;
    }
    if (len > best_len || (len == best_len && life.id < best_start)) {
      best_len = len;
      best_active = active;
      best_start = life.id;
    }
  }

  if (best_len < kChainMinDepth) return;
  const Ticks work = ctx.workspan->work;
  if (work <= 0 ||
      static_cast<double>(best_active) <
          kChainWorkFraction * static_cast<double>(work)) {
    return;
  }

  const trace::TaskLifetime& start = *by_id.at(best_start);
  const double parallelism = ctx.workspan->logical_parallelism();

  Diagnosis d;
  d.detector = "serialized_spawn_chain";
  d.severity = parallelism < 2.0 ? Severity::kProblem : Severity::kWarning;
  d.score = static_cast<double>(best_len);
  d.at = start.begin;
  d.thread = start.first_thread;
  d.sites.push_back(resolve_site(*ctx.input.registry, start.region));

  std::ostringstream os;
  os << "serialized spawn chain: " << best_len
     << " tasks deep, each spawning a single successor - "
     << format_share(static_cast<double>(best_active) /
                     static_cast<double>(work))
     << " of all task work is on this chain";
  d.summary = os.str();
  d.remediation =
      "spawn independent subtasks from one parent (fan-out) instead of "
      "chaining one child per task, or convert the chain into a loop";
  add_metric(&d, "chain_length", static_cast<double>(best_len), "tasks");
  add_metric(&d, "chain_active", static_cast<double>(best_active), "ns");
  add_metric(&d, "work", static_cast<double>(work), "ns");
  add_metric(&d, "logical_parallelism", parallelism, "x");
  out->push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// starved_workers: threads parked at scheduling points for most of the
// region because the task structure never produced enough parallelism.
// ---------------------------------------------------------------------------

constexpr double kStarvedWaitingFraction = 0.5;  ///< of the thread's span
/// Starvation is only a diagnosis when parallelism actually fell short:
/// logical parallelism below threads * this fraction.
constexpr double kStarvedParallelismFraction = 0.5;

void detect_starved_workers(const DetectorContext& ctx,
                            std::vector<Diagnosis>* out) {
  if (ctx.trace_analysis == nullptr || ctx.workspan == nullptr) return;
  if (ctx.threads < 2) return;
  const trace::TraceAnalysis& analysis = *ctx.trace_analysis;
  if (analysis.tasks.size() < 2) return;

  int starved = 0;
  double worst_fraction = 0.0;
  ThreadId worst_thread = 0;
  Ticks total_waiting = 0;
  Ticks total_span = 0;
  for (std::size_t t = 0; t < analysis.threads.size(); ++t) {
    const trace::ThreadUsage& usage = analysis.threads[t];
    total_waiting += usage.waiting;
    total_span += usage.span;
    const double fraction = usage.waiting_fraction();
    if (fraction >= kStarvedWaitingFraction) {
      ++starved;
      if (fraction > worst_fraction) {
        worst_fraction = fraction;
        worst_thread = static_cast<ThreadId>(t);
      }
    }
  }
  if (starved == 0) return;

  // Starvation is only a finding when parallelism actually fell short of
  // the team — a busy region with one idle tail thread is load imbalance,
  // not starvation.
  const double parallelism = ctx.workspan->logical_parallelism();
  if (parallelism >=
      kStarvedParallelismFraction * static_cast<double>(ctx.threads)) {
    return;
  }

  const bool majority = starved * 2 >= ctx.threads;
  const bool heavy =
      total_span > 0 && static_cast<double>(total_waiting) >=
                            0.25 * static_cast<double>(total_span);

  Diagnosis d;
  d.detector = "starved_workers";
  d.severity =
      majority && heavy ? Severity::kProblem : Severity::kWarning;
  d.score = static_cast<double>(starved) * 100.0 + worst_fraction;
  d.thread = worst_thread;
  d.sites.push_back(dominant_span_site(ctx));

  std::ostringstream os;
  os << "starved workers: " << starved << " of " << ctx.threads
     << " threads wait at scheduling points for most of the region (worst "
     << format_share(worst_fraction)
     << " of span) - logical parallelism is only "
     << format_fixed(parallelism, 2) << "x";
  d.summary = os.str();
  d.remediation =
      "expose more parallelism (split the dominant tasks, raise the "
      "cut-off) or run with fewer threads";
  add_metric(&d, "starved_workers", static_cast<double>(starved), "threads");
  add_metric(&d, "threads", static_cast<double>(ctx.threads), "threads");
  add_metric(&d, "worst_waiting_fraction", worst_fraction, "ratio");
  add_metric(&d, "logical_parallelism", parallelism, "x");
  out->push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// granularity_collapse: the paper's §VI diagnosis, generalized per
// parameter/depth — creation cost overtakes body work, catastrophically
// so in the recursion tail.
// ---------------------------------------------------------------------------

/// Mean inclusive time under which a task is "too small" (the paper's).
constexpr Ticks kSmallTaskThreshold = 10 * kTicksPerUs;
/// Problem requires BOTH: creation dominating execution by this ratio and
/// mean body time under the floor.  Calibration: fib at test size has
/// 470 ns bodies, so the 400 ns floor keeps it at a warning at any thread
/// count (creation cost — and hence the ratio — grows with the team),
/// while a degenerate tree of ~360 ns bodies at 7.7x is a problem.
constexpr double kCollapseProblemRatio = 6.5;
constexpr Ticks kCollapseFloor = 400;  ///< ns of mean exclusive body time

void detect_granularity_collapse(const DetectorContext& ctx,
                                 std::vector<Diagnosis>* out) {
  if (ctx.input.profile == nullptr) return;
  for (const TaskConstructStats& c : ctx.constructs) {
    if (c.instances == 0 || c.creations == 0) continue;
    const double body = exec_mean(c);
    const double ratio = body > 0 ? c.create_mean / body : 0.0;
    const bool too_small =
        c.inclusive_mean < static_cast<double>(kSmallTaskThreshold);
    const bool create_dominates = c.create_mean >= body && body > 0;
    const bool collapsed = ratio >= kCollapseProblemRatio &&
                           body < static_cast<double>(kCollapseFloor);

    // Per-depth refinement: find where the recursion tail collapses even
    // when the aggregate is merely small (paper Table IV's argument).
    std::int64_t collapse_from = kNoParameter;
    std::uint64_t collapsed_instances = 0;
    if (too_small || collapsed) {
      for (const TaskConstructStats& row : parameter_breakdown(
               *ctx.input.profile, *ctx.input.registry, c.region)) {
        if (row.instances == 0) continue;
        const double row_body = exec_mean(row);
        if (row_body < static_cast<double>(kCollapseFloor) &&
            c.create_mean >= kCollapseProblemRatio * row_body) {
          if (collapse_from == kNoParameter) collapse_from = row.parameter;
          collapsed_instances += row.instances;
        }
      }
    }

    const bool problem = collapsed;
    const bool warning = !problem && too_small && create_dominates;
    if (!problem && !warning) continue;

    Diagnosis d;
    d.detector = "granularity_collapse";
    d.severity = problem ? Severity::kProblem : Severity::kWarning;
    d.score = ratio;
    d.sites.push_back(resolve_site(*ctx.input.registry, c.region));

    std::ostringstream os;
    os << "granularity collapse: task '" << c.name << "' averages "
       << format_ticks(static_cast<Ticks>(body))
       << " of body work against "
       << format_ticks(static_cast<Ticks>(c.create_mean))
       << " creation cost (" << format_fixed(ratio, 1) << "x)";
    if (collapse_from != kNoParameter) {
      os << "; collapsed from parameter " << collapse_from << " on ("
         << format_count(collapsed_instances) << " instances)";
    }
    d.summary = os.str();
    d.remediation =
        "stop spawning below the collapse depth (creation cut-off / "
        "final clause) so the tail runs inline";
    add_metric(&d, "create_mean", c.create_mean, "ns");
    add_metric(&d, "body_mean", body, "ns");
    add_metric(&d, "create_to_body_ratio", ratio, "ratio");
    add_metric(&d, "instances", static_cast<double>(c.instances), "tasks");
    if (collapse_from != kNoParameter) {
      add_metric(&d, "collapse_from_parameter",
                 static_cast<double>(collapse_from), "");
      add_metric(&d, "collapsed_instances",
                 static_cast<double>(collapsed_instances), "tasks");
    }
    out->push_back(std::move(d));
  }
}

// ---------------------------------------------------------------------------
// taskwait_serialization: spawn-wait-spawn-wait lockstep — a taskwait
// after every spawn caps concurrency at one task in flight.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kSerialMinTaskwaits = 8;
/// Fraction of trace span with <=1 task executing while a thread sits in
/// taskwait.
constexpr double kSerialFractionWarn = 0.40;
constexpr double kSerialFractionProblem = 0.60;

void detect_taskwait_serialization(const DetectorContext& ctx,
                                   std::vector<Diagnosis>* out) {
  if (ctx.trace_analysis == nullptr) return;
  if (ctx.threads < 2) return;
  const trace::TaskwaitSerialization& serial =
      ctx.trace_analysis->serialization;
  if (serial.taskwaits < kSerialMinTaskwaits) return;
  const auto [t_begin, t_end] = ctx.input.trace->time_span();
  const Ticks span = t_end - t_begin;
  if (span <= 0) return;
  const double fraction =
      static_cast<double>(serial.time) / static_cast<double>(span);
  if (fraction < kSerialFractionWarn) return;

  Diagnosis d;
  d.detector = "taskwait_serialization";
  d.severity = fraction >= kSerialFractionProblem ? Severity::kProblem
                                                  : Severity::kWarning;
  d.score = fraction;
  d.at = serial.longest_start;
  d.thread = 0;

  RegionHandle worst = kInvalidRegion;
  Ticks worst_time = 0;
  for (const auto& [region, time] : serial.by_construct) {
    if (time > worst_time) {
      worst = region;
      worst_time = time;
    }
  }
  if (worst != kInvalidRegion) {
    d.sites.push_back(resolve_site(*ctx.input.registry, worst));
  }

  d.summary = "taskwait serialization: " + format_share(fraction) +
              " of the region runs with at most one task in flight while "
              "a thread blocks in taskwait (" +
              format_count(serial.taskwaits) + " taskwaits)";
  d.remediation =
      "batch spawns before waiting: move the taskwait out of the "
      "per-task loop so siblings overlap";
  add_metric(&d, "serial_fraction", fraction, "ratio");
  add_metric(&d, "serial_time", static_cast<double>(serial.time), "ns");
  add_metric(&d, "taskwaits", static_cast<double>(serial.taskwaits), "count");
  out->push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// replay_fallback: the taskgraph replay scheduler gave up — surface the
// per-reason divergence counters so fallbacks are tell-apart-able.
// ---------------------------------------------------------------------------
void detect_replay_fallback(const DetectorContext& ctx,
                            std::vector<Diagnosis>* out) {
  if (ctx.input.telemetry == nullptr) return;
  const telemetry::Snapshot& snap = *ctx.input.telemetry;
  using telemetry::Counter;
  const std::uint64_t fallbacks = snap.counter(Counter::kTaskgraphFallbacks);
  const std::uint64_t divergences =
      snap.counter(Counter::kTaskgraphDivergences);
  if (fallbacks == 0 && divergences == 0) return;

  const std::uint64_t structure =
      snap.counter(Counter::kTaskgraphDivergeStructure);
  const std::uint64_t short_spawn =
      snap.counter(Counter::kTaskgraphDivergeShortSpawn);
  const std::uint64_t residue =
      snap.counter(Counter::kTaskgraphDivergeResidue);

  Diagnosis d;
  d.detector = "replay_fallback";
  d.severity = Severity::kInfo;
  d.score = static_cast<double>(fallbacks + divergences);

  std::ostringstream os;
  os << "taskgraph replay fell back to dynamic scheduling ("
     << format_count(divergences) << " divergences, "
     << format_count(fallbacks) << " fallback regions; reasons: "
     << format_count(structure) << " structure mismatch, "
     << format_count(short_spawn) << " short spawn, "
     << format_count(residue) << " unspawned residue)";
  d.summary = os.str();
  d.remediation =
      "the workload's task shape varies between regions; use the dynamic "
      "scheduler, or reset_taskgraph() to re-record after shape changes";
  add_metric(&d, "fallback_regions", static_cast<double>(fallbacks),
             "regions");
  add_metric(&d, "divergences", static_cast<double>(divergences), "count");
  add_metric(&d, "diverge_structure", static_cast<double>(structure),
             "count");
  add_metric(&d, "diverge_short_spawn", static_cast<double>(short_spawn),
             "count");
  add_metric(&d, "diverge_residue", static_cast<double>(residue), "count");
  out->push_back(std::move(d));
}

std::span<const Detector> detector_registry() {
  static constexpr Detector kRegistry[] = {
      {"creation_storm", detect_creation_storm},
      {"serialized_spawn_chain", detect_serialized_spawn_chain},
      {"starved_workers", detect_starved_workers},
      {"granularity_collapse", detect_granularity_collapse},
      {"taskwait_serialization", detect_taskwait_serialization},
      {"replay_fallback", detect_replay_fallback},
  };
  return kRegistry;
}

}  // namespace taskprof::diag

#include "trace/analysis.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/format.hpp"

namespace taskprof::trace {

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
    agg.latency.add(life.queue_latency());
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

#include "report/json_report.hpp"

#include "common/format.hpp"

namespace taskprof {

namespace {

constexpr int kSchemaVersion = 2;

}  // namespace

std::string render_report_json(const AggregateProfile& profile,
                               const RegionRegistry& registry) {
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema_version\": ";
  out += std::to_string(kSchemaVersion);
  out += ",\n  \"threads\": ";
  out += std::to_string(profile.thread_count);
  out += ",\n  \"max_concurrent_any_thread\": ";
  out += std::to_string(profile.max_concurrent_any_thread);

  out += ",\n  \"constructs\": [";
  const std::vector<TaskConstructStats> constructs =
      task_construct_stats(profile, registry);
  for (std::size_t i = 0; i < constructs.size(); ++i) {
    const TaskConstructStats& c = constructs[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"name\": ";
    append_json_string(&out, c.name);
    if (c.parameter != kNoParameter) {
      out += ", \"parameter\": ";
      out += std::to_string(c.parameter);
    }
    out += ", \"instances\": ";
    out += std::to_string(c.instances);
    out += ", \"inclusive_total_ns\": ";
    out += std::to_string(c.inclusive_total);
    out += ", \"inclusive_mean_ns\": ";
    append_json_number(&out, c.inclusive_mean);
    out += ", \"inclusive_min_ns\": ";
    out += std::to_string(c.inclusive_min);
    out += ", \"inclusive_max_ns\": ";
    out += std::to_string(c.inclusive_max);
    out += ", \"exclusive_total_ns\": ";
    out += std::to_string(c.exclusive_total);
    out += ", \"creations\": ";
    out += std::to_string(c.creations);
    out += ", \"create_total_ns\": ";
    out += std::to_string(c.create_total);
    out += ", \"create_mean_ns\": ";
    append_json_number(&out, c.create_mean);
    out += ", \"taskwait_total_ns\": ";
    out += std::to_string(c.taskwait_total);
    out += ", \"taskwaits\": ";
    out += std::to_string(c.taskwaits);
    out += "}";
  }
  out += constructs.empty() ? "]" : "\n  ]";

  const SchedulingPointSummary sched =
      scheduling_point_summary(profile, registry);
  out += ",\n  \"scheduling_points\": {\n    \"barrier_inclusive_ns\": ";
  out += std::to_string(sched.barrier_inclusive);
  out += ",\n    \"barrier_exclusive_ns\": ";
  out += std::to_string(sched.barrier_exclusive);
  out += ",\n    \"barrier_stub_ns\": ";
  out += std::to_string(sched.barrier_stub_time);
  out += ",\n    \"barrier_visits\": ";
  out += std::to_string(sched.barrier_visits);
  out += ",\n    \"taskwait_exclusive_ns\": ";
  out += std::to_string(sched.taskwait_exclusive);
  out += ",\n    \"create_exclusive_ns\": ";
  out += std::to_string(sched.create_exclusive);
  out += ",\n    \"parallel_inclusive_ns\": ";
  out += std::to_string(sched.parallel_inclusive);
  out += "\n  }\n}\n";
  return out;
}

}  // namespace taskprof

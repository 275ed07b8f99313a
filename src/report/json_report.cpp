#include "report/json_report.hpp"

#include "common/json.hpp"

namespace taskprof {

namespace {

constexpr int kSchemaVersion = 2;

}  // namespace

std::string render_report_json(const AggregateProfile& profile,
                               const RegionRegistry& registry) {
  JsonWriter json;
  json.begin_object();
  json.field("schema_version", kSchemaVersion);
  json.field("threads", profile.thread_count);
  json.field("max_concurrent_any_thread", profile.max_concurrent_any_thread);

  json.begin_array("constructs");
  for (const TaskConstructStats& c : task_construct_stats(profile, registry)) {
    json.begin_object({}, JsonWriter::kLine);
    json.field("name", c.name);
    if (c.parameter != kNoParameter) json.field("parameter", c.parameter);
    json.field("instances", c.instances);
    json.field("inclusive_total_ns", c.inclusive_total);
    json.field("inclusive_mean_ns", c.inclusive_mean);
    json.field("inclusive_min_ns", c.inclusive_min);
    json.field("inclusive_max_ns", c.inclusive_max);
    json.field("exclusive_total_ns", c.exclusive_total);
    json.field("creations", c.creations);
    json.field("create_total_ns", c.create_total);
    json.field("create_mean_ns", c.create_mean);
    json.field("taskwait_total_ns", c.taskwait_total);
    json.field("taskwaits", c.taskwaits);
    json.end_object();
  }
  json.end_array();

  const SchedulingPointSummary sched =
      scheduling_point_summary(profile, registry);
  json.begin_object("scheduling_points");
  json.field("barrier_inclusive_ns", sched.barrier_inclusive);
  json.field("barrier_exclusive_ns", sched.barrier_exclusive);
  json.field("barrier_stub_ns", sched.barrier_stub_time);
  json.field("barrier_visits", sched.barrier_visits);
  json.field("taskwait_exclusive_ns", sched.taskwait_exclusive);
  json.field("create_exclusive_ns", sched.create_exclusive);
  json.field("parallel_inclusive_ns", sched.parallel_inclusive);
  json.end_object();
  json.end_object();
  return json.finish();
}

}  // namespace taskprof

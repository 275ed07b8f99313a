#include "whatif/render.hpp"

#include "common/format.hpp"
#include "common/json.hpp"

namespace taskprof::whatif {

namespace {

constexpr int kSchemaVersion = 1;

void projection_json(JsonWriter& json, const Projection& p) {
  json.begin_object();
  json.field("target", p.target);
  json.field("speedup_percent", p.fraction * 100.0);
  json.field("scalable_ns", p.scalable);
  json.field("scalable_on_span_ns", p.scalable_on_span);
  json.field("share", p.share);
  json.field("amdahl_bound", p.bound);
  json.field("work_after_ns", p.work_after);
  json.field("span_after_ns", p.span_after);
  json.field("span_length_after", p.span_length_after);
  json.field("parallelism_after", p.parallelism_after);
  json.begin_array("at_threads");
  for (const ThreadProjection& tp : p.at_threads) {
    json.begin_object({}, JsonWriter::kLine);
    json.field("threads", tp.threads);
    json.field("time_before_ns", tp.time_before);
    json.field("time_after_ns", tp.time_after);
    json.field("speedup", tp.speedup);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

void render_projection_text(const Projection& p, std::ostream& os) {
  os << "  " << p.target << " " << format_fixed(p.fraction * 100.0, 0)
     << "% faster:\n";
  os << "    scalable " << format_ticks(p.scalable) << " (share "
     << format_fixed(p.share * 100.0, 1) << "%, Amdahl ceiling ";
  if (p.bound > 0.0) {
    os << format_fixed(p.bound, 2) << "x)";
  } else {
    os << "unbounded)";
  }
  os << "\n    new span " << format_ticks(p.span_after) << " ("
     << p.span_length_after << " tasks), new logical parallelism "
     << format_fixed(p.parallelism_after, 2) << "x\n";
  for (const ThreadProjection& tp : p.at_threads) {
    os << "    at " << tp.threads << " thread"
       << (tp.threads == 1 ? " " : "s") << ": "
       << format_ticks(static_cast<Ticks>(tp.time_before)) << " -> "
       << format_ticks(static_cast<Ticks>(tp.time_after)) << "  ("
       << format_fixed(tp.speedup, 3) << "x)\n";
  }
}

}  // namespace

void Report::summarize(const WhatIfProfile& profile) {
  work = profile.work();
  span = profile.span();
  span_length = profile.span_length();
  logical_parallelism = profile.logical_parallelism();
  measured_threads = profile.measured_threads();
  work_basis = profile.work_basis();
}

void render_whatif_text(const Report& report, std::ostream& os) {
  os << "What-if projection (" << report.measured_threads
     << "-thread trace, scaling "
     << (report.work_basis ? "declared work" : "active time") << ")\n";
  os << "  work " << format_ticks(report.work) << ", span "
     << format_ticks(report.span) << " (" << report.span_length
     << " tasks) -> logical parallelism "
     << format_fixed(report.logical_parallelism, 2) << "x\n";
  for (const Projection& p : report.projections) {
    render_projection_text(p, os);
  }
  if (!report.top_targets.empty()) {
    os << "  top optimization targets (each "
       << format_fixed(report.rank_fraction * 100.0, 0) << "% faster):\n";
    for (const Projection& p : report.top_targets) {
      double speedup = 1.0;
      for (const ThreadProjection& tp : p.at_threads) {
        if (tp.threads == report.measured_threads) speedup = tp.speedup;
      }
      os << "    " << format_fixed(speedup, 3) << "x  " << p.target << "  (share "
         << format_fixed(p.share * 100.0, 1) << "%, ceiling ";
      if (p.bound > 0.0) {
        os << format_fixed(p.bound, 2) << "x)";
      } else {
        os << "unbounded)";
      }
      os << "\n";
    }
  }
}

std::string render_whatif_json(const Report& report) {
  JsonWriter json;
  json.begin_object();
  json.field("schema_version", kSchemaVersion);
  json.field("work_ns", report.work);
  json.field("span_ns", report.span);
  json.field("span_length", report.span_length);
  json.field("logical_parallelism", report.logical_parallelism);
  json.field("measured_threads", report.measured_threads);
  json.field("scaling_basis",
             report.work_basis ? "declared_work" : "active_time");
  json.begin_array("projections");
  for (const Projection& p : report.projections) projection_json(json, p);
  json.end_array();
  json.begin_array("top_targets");
  for (const Projection& p : report.top_targets) projection_json(json, p);
  json.end_array();
  json.end_object();
  return json.finish();
}

void render_top_targets_text(const Report& report, std::size_t limit,
                             std::ostream& os) {
  if (report.top_targets.empty()) return;
  os << "Top optimization targets (projected speedup if "
     << format_fixed(report.rank_fraction * 100.0, 0) << "% faster, at "
     << report.measured_threads << " threads):\n";
  const std::size_t n = std::min(limit, report.top_targets.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Projection& p = report.top_targets[i];
    double speedup = 1.0;
    for (const ThreadProjection& tp : p.at_threads) {
      if (tp.threads == report.measured_threads) speedup = tp.speedup;
    }
    os << "  " << (i + 1) << ". " << p.target << "  " << format_fixed(speedup, 3)
       << "x  (span share " << format_fixed(p.share * 100.0, 1) << "%)\n";
  }
}

}  // namespace taskprof::whatif

#include "whatif/render.hpp"

#include "common/format.hpp"

namespace taskprof::whatif {

namespace {

constexpr int kSchemaVersion = 1;

void append_projection_json(std::string* out, const Projection& p,
                            const char* indent) {
  const std::string in(indent);
  *out += in + "{\n";
  *out += in + "  \"target\": ";
  append_json_string(out, p.target);
  *out += ",\n" + in + "  \"speedup_percent\": ";
  append_json_number(out, p.fraction * 100.0);
  *out += ",\n" + in + "  \"scalable_ns\": " + std::to_string(p.scalable);
  *out += ",\n" + in + "  \"scalable_on_span_ns\": " +
          std::to_string(p.scalable_on_span);
  *out += ",\n" + in + "  \"share\": ";
  append_json_number(out, p.share);
  *out += ",\n" + in + "  \"amdahl_bound\": ";
  append_json_number(out, p.bound);
  *out += ",\n" + in + "  \"work_after_ns\": " + std::to_string(p.work_after);
  *out += ",\n" + in + "  \"span_after_ns\": " + std::to_string(p.span_after);
  *out += ",\n" + in + "  \"span_length_after\": " +
          std::to_string(p.span_length_after);
  *out += ",\n" + in + "  \"parallelism_after\": ";
  append_json_number(out, p.parallelism_after);
  *out += ",\n" + in + "  \"at_threads\": [";
  for (std::size_t i = 0; i < p.at_threads.size(); ++i) {
    const ThreadProjection& tp = p.at_threads[i];
    *out += i == 0 ? "\n" : ",\n";
    *out += in + "    {\"threads\": " + std::to_string(tp.threads);
    *out += ", \"time_before_ns\": ";
    append_json_number(out, tp.time_before);
    *out += ", \"time_after_ns\": ";
    append_json_number(out, tp.time_after);
    *out += ", \"speedup\": ";
    append_json_number(out, tp.speedup);
    *out += "}";
  }
  *out += p.at_threads.empty() ? "]" : "\n" + in + "  ]";
  *out += "\n" + in + "}";
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
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema_version\": ";
  out += std::to_string(kSchemaVersion);
  out += ",\n  \"work_ns\": " + std::to_string(report.work);
  out += ",\n  \"span_ns\": " + std::to_string(report.span);
  out += ",\n  \"span_length\": " + std::to_string(report.span_length);
  out += ",\n  \"logical_parallelism\": ";
  append_json_number(&out, report.logical_parallelism);
  out += ",\n  \"measured_threads\": " +
         std::to_string(report.measured_threads);
  out += ",\n  \"scaling_basis\": ";
  append_json_string(&out,
                     report.work_basis ? "declared_work" : "active_time");
  out += ",\n  \"projections\": [";
  for (std::size_t i = 0; i < report.projections.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    append_projection_json(&out, report.projections[i], "    ");
  }
  out += report.projections.empty() ? "]" : "\n  ]";
  out += ",\n  \"top_targets\": [";
  for (std::size_t i = 0; i < report.top_targets.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    append_projection_json(&out, report.top_targets[i], "    ");
  }
  out += report.top_targets.empty() ? "]" : "\n  ]";
  out += "\n}\n";
  return out;
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

#include "diagnose/render.hpp"

#include <cstdio>
#include <ostream>

#include "common/format.hpp"
#include "common/json.hpp"

namespace taskprof::diag {

namespace {

constexpr int kSchemaVersion = 1;

}  // namespace

void render_diagnosis_text(const DiagnosisReport& report, std::ostream& os) {
  os << "Diagnosis: " << report.findings.size() << " finding"
     << (report.findings.size() == 1 ? "" : "s") << ", worst severity "
     << severity_name(report.max_severity()) << "\n";

  if (report.has_workspan) {
    const WorkSpanSummary& ws = report.workspan;
    os << "  work " << format_ticks(ws.work) << ", span "
       << format_ticks(ws.span) << " (" << ws.span_length
       << " tasks) -> logical parallelism "
       << format_fixed(ws.logical_parallelism(), 2) << "x\n";
    for (const ConstructSpanShare& share : ws.shares) {
      const double pct = ws.span > 0
                             ? 100.0 * static_cast<double>(share.on_span) /
                                   static_cast<double>(ws.span)
                             : 0.0;
      os << "    span share: " << share.name << " " << format_fixed(pct, 1)
         << "% (" << share.instances << " on chain)\n";
    }
  }

  for (const Diagnosis& d : report.findings) {
    os << "  [" << severity_name(d.severity) << "] " << d.detector << ": "
       << d.summary << "\n";
    for (const CallSite& site : d.sites) {
      os << "      at " << site.label() << "\n";
    }
    if (!d.remediation.empty()) {
      os << "      fix: " << d.remediation << "\n";
    }
    if (!d.metrics.empty()) {
      os << "     ";
      for (std::size_t i = 0; i < d.metrics.size(); ++i) {
        const Metric& m = d.metrics[i];
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.6g", m.value);
        os << (i == 0 ? " " : ", ") << m.name << "=" << buf;
        if (!m.unit.empty()) os << " " << m.unit;
      }
      os << "\n";
    }
  }
  if (report.findings.empty()) {
    os << "  no findings\n";
  }
}

std::string render_diagnosis_json(const DiagnosisReport& report) {
  JsonWriter json;
  json.begin_object();
  json.field("schema_version", kSchemaVersion);
  json.field("max_severity", severity_name(report.max_severity()));

  if (report.has_workspan) {
    const WorkSpanSummary& ws = report.workspan;
    json.begin_object("workspan");
    json.field("work_ns", ws.work);
    json.field("span_ns", ws.span);
    json.field("span_length", ws.span_length);
    json.field("logical_parallelism", ws.logical_parallelism());
    json.begin_array("span_shares");
    for (const ConstructSpanShare& share : ws.shares) {
      json.begin_object({}, JsonWriter::kLine);
      json.field("construct", share.name);
      json.field("on_span_ns", share.on_span);
      json.field("instances", share.instances);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  json.begin_array("findings");
  for (const Diagnosis& d : report.findings) {
    json.begin_object();
    json.field("detector", d.detector);
    json.field("severity", severity_name(d.severity));
    json.field("score", d.score);
    json.field("summary", d.summary);
    json.field("remediation", d.remediation);
    json.begin_array("sites", JsonWriter::kLine);
    for (const CallSite& site : d.sites) {
      json.begin_object();
      json.field("name", site.name);
      json.field("file", site.file);
      json.field("line", site.line);
      json.end_object();
    }
    json.end_array();
    json.begin_array("metrics", JsonWriter::kLine);
    for (const Metric& m : d.metrics) {
      json.begin_object();
      json.field("name", m.name);
      json.field("value", m.value);
      json.field("unit", m.unit);
      json.end_object();
    }
    json.end_array();
    json.field("at_ns", d.at);
    json.field("thread", d.thread);
    json.end_object();
  }
  json.end_array();
  json.end_object();
  return json.finish();
}

std::vector<trace::TraceAnnotation> diagnosis_annotations(
    const DiagnosisReport& report) {
  std::vector<trace::TraceAnnotation> out;
  out.reserve(report.findings.size());
  for (const Diagnosis& d : report.findings) {
    trace::TraceAnnotation note;
    note.name = "diagnosis: " + d.detector;
    note.time = d.at;
    note.thread = d.thread;
    note.args.emplace_back("severity", severity_name(d.severity));
    note.args.emplace_back("detector", d.detector);
    note.args.emplace_back("summary", d.summary);
    if (!d.sites.empty()) {
      note.args.emplace_back("call_path", d.sites.front().label());
    }
    out.push_back(std::move(note));
  }
  return out;
}

}  // namespace taskprof::diag

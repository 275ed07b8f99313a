#include "diagnose/render.hpp"

#include <cstdio>
#include <ostream>

#include "common/format.hpp"

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
  std::string out;
  out.reserve(4096);
  out += "{\n  \"schema_version\": ";
  out += std::to_string(kSchemaVersion);
  out += ",\n  \"max_severity\": ";
  append_json_string(&out, severity_name(report.max_severity()));

  if (report.has_workspan) {
    const WorkSpanSummary& ws = report.workspan;
    out += ",\n  \"workspan\": {\n    \"work_ns\": ";
    out += std::to_string(ws.work);
    out += ",\n    \"span_ns\": ";
    out += std::to_string(ws.span);
    out += ",\n    \"span_length\": ";
    out += std::to_string(ws.span_length);
    out += ",\n    \"logical_parallelism\": ";
    append_json_number(&out, ws.logical_parallelism());
    out += ",\n    \"span_shares\": [";
    for (std::size_t i = 0; i < ws.shares.size(); ++i) {
      const ConstructSpanShare& share = ws.shares[i];
      out += i == 0 ? "\n" : ",\n";
      out += "      {\"construct\": ";
      append_json_string(&out, share.name);
      out += ", \"on_span_ns\": ";
      out += std::to_string(share.on_span);
      out += ", \"instances\": ";
      out += std::to_string(share.instances);
      out += "}";
    }
    out += ws.shares.empty() ? "]\n  }" : "\n    ]\n  }";
  }

  out += ",\n  \"findings\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Diagnosis& d = report.findings[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\n      \"detector\": ";
    append_json_string(&out, d.detector);
    out += ",\n      \"severity\": ";
    append_json_string(&out, severity_name(d.severity));
    out += ",\n      \"score\": ";
    append_json_number(&out, d.score);
    out += ",\n      \"summary\": ";
    append_json_string(&out, d.summary);
    out += ",\n      \"remediation\": ";
    append_json_string(&out, d.remediation);
    out += ",\n      \"sites\": [";
    for (std::size_t j = 0; j < d.sites.size(); ++j) {
      const CallSite& site = d.sites[j];
      out += j == 0 ? "" : ", ";
      out += "{\"name\": ";
      append_json_string(&out, site.name);
      out += ", \"file\": ";
      append_json_string(&out, site.file);
      out += ", \"line\": ";
      out += std::to_string(site.line);
      out += "}";
    }
    out += "],\n      \"metrics\": [";
    for (std::size_t j = 0; j < d.metrics.size(); ++j) {
      const Metric& m = d.metrics[j];
      out += j == 0 ? "" : ", ";
      out += "{\"name\": ";
      append_json_string(&out, m.name);
      out += ", \"value\": ";
      append_json_number(&out, m.value);
      out += ", \"unit\": ";
      append_json_string(&out, m.unit);
      out += "}";
    }
    out += "],\n      \"at_ns\": ";
    out += std::to_string(d.at);
    out += ",\n      \"thread\": ";
    out += std::to_string(d.thread);
    out += "\n    }";
  }
  out += report.findings.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
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

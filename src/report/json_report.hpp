// Machine-readable dump of the text report: per-construct statistics and
// the scheduling-point summary, as stable JSON with a schema_version
// field so downstream consumers can detect format changes.  Findings are
// not part of it: `taskprof_cli diagnose --json` renders them
// (diagnose/render.hpp).
#pragma once

#include <string>

#include "report/analysis.hpp"

namespace taskprof {

/// Serialize the profile analysis as JSON (schema_version 2).  Key order
/// is fixed and doubles use %.6g, so identical profiles serialize to
/// identical bytes.
[[nodiscard]] std::string render_report_json(const AggregateProfile& profile,
                                             const RegionRegistry& registry);

}  // namespace taskprof

// The detector registry.  Each detector inspects the shared
// DetectorContext and appends zero or more Diagnosis entries; diagnose.cpp
// runs them in registry order and ranks the union.  Detectors must be
// deterministic (stable iteration, explicit tie-breaks) — the golden
// corpus tests compare their JSON byte-for-byte.
#pragma once

#include <span>
#include <vector>

#include "diagnose/diagnose.hpp"
#include "report/analysis.hpp"
#include "trace/analysis.hpp"

namespace taskprof::diag {

/// Precomputed views every detector shares.
struct DetectorContext {
  const DiagnosisInput& input;
  /// From report/analysis over the profile (always present).
  const std::vector<TaskConstructStats>& constructs;
  int threads = 0;
  /// Only with a trace (nullptr otherwise).
  const trace::TraceAnalysis* trace_analysis = nullptr;
  const WorkSpanSummary* workspan = nullptr;
};

using DetectorFn = void (*)(const DetectorContext&, std::vector<Diagnosis>*);

struct Detector {
  const char* id;
  DetectorFn run;
};

/// All registered detectors, in a stable order.
[[nodiscard]] std::span<const Detector> detector_registry();

// Individual detectors (exposed for focused tests).
void detect_creation_storm(const DetectorContext& ctx,
                           std::vector<Diagnosis>* out);
void detect_serialized_spawn_chain(const DetectorContext& ctx,
                                   std::vector<Diagnosis>* out);
void detect_starved_workers(const DetectorContext& ctx,
                            std::vector<Diagnosis>* out);
void detect_granularity_collapse(const DetectorContext& ctx,
                                 std::vector<Diagnosis>* out);
void detect_taskwait_serialization(const DetectorContext& ctx,
                                   std::vector<Diagnosis>* out);
void detect_replay_fallback(const DetectorContext& ctx,
                            std::vector<Diagnosis>* out);

/// Resolve a region to a CallSite via the registry (name + source site).
[[nodiscard]] CallSite resolve_site(const RegionRegistry& registry,
                                    RegionHandle region);

}  // namespace taskprof::diag

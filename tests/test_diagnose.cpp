// The diagnosis engine: every seeded anti-pattern shape must be flagged
// by its detector (at problem severity, pointing at the offending
// construct) and the clean shape must stay finding-free.
#include "diagnose/diagnose.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "check/shapes.hpp"
#include "diagnose/detectors.hpp"
#include "diagnose/render.hpp"
#include "instrument/instrumentor.hpp"
#include "report/json_report.hpp"
#include "rt/sim_runtime.hpp"
#include "snapshot/snapshot.hpp"

namespace taskprof {
namespace {

diag::DiagnosisInput input_for(const check::ShapeRun& run) {
  diag::DiagnosisInput input;
  input.profile = &run.profile;
  input.registry = run.registry.get();
  input.trace = &run.trace;
  input.telemetry = &run.telemetry;
  return input;
}

const diag::Diagnosis* find_detector(const diag::DiagnosisReport& report,
                                     const std::string& id) {
  for (const diag::Diagnosis& d : report.findings) {
    if (d.detector == id) return &d;
  }
  return nullptr;
}

TEST(Diagnose, EverySeededAntiPatternIsFlaggedWithItsCallPath) {
  for (const check::AntiPattern pattern : check::kAllAntiPatterns) {
    if (pattern == check::AntiPattern::kClean) continue;
    SCOPED_TRACE(check::anti_pattern_name(pattern));
    const check::ShapeRun run = check::run_anti_pattern(pattern);
    const diag::DiagnosisReport report = diag::run_diagnosis(input_for(run));
    const diag::Diagnosis* d =
        find_detector(report, check::anti_pattern_detector(pattern));
    ASSERT_NE(d, nullptr) << "expected detector did not fire";
    EXPECT_EQ(d->severity, diag::Severity::kProblem);
    ASSERT_FALSE(d->sites.empty());
    EXPECT_EQ(d->sites.front().region, run.task_region)
        << "diagnosis points at '" << d->sites.front().name
        << "', not the offending construct";
    EXPECT_FALSE(d->summary.empty());
    EXPECT_FALSE(d->remediation.empty());
    EXPECT_FALSE(d->metrics.empty());
  }
}

TEST(Diagnose, CleanShapeHasNoFindings) {
  const check::ShapeRun run =
      check::run_anti_pattern(check::AntiPattern::kClean);
  const diag::DiagnosisReport report = diag::run_diagnosis(input_for(run));
  EXPECT_EQ(report.findings.size(), 0u);
  EXPECT_EQ(report.max_severity(), diag::Severity::kInfo);
  EXPECT_TRUE(report.has_workspan);
  EXPECT_GT(report.workspan.logical_parallelism(), 2.0);
}

TEST(Diagnose, FindingsAreRankedBySeverityThenScore) {
  const check::ShapeRun run =
      check::run_anti_pattern(check::AntiPattern::kCreationStorm);
  diag::DiagnosisReport report = diag::run_diagnosis(input_for(run));
  for (std::size_t i = 1; i < report.findings.size(); ++i) {
    const diag::Diagnosis& prev = report.findings[i - 1];
    const diag::Diagnosis& cur = report.findings[i];
    EXPECT_TRUE(prev.severity > cur.severity ||
                (prev.severity == cur.severity && prev.score >= cur.score));
  }
}

TEST(Diagnose, ReplayFallbackDetectorReadsTelemetryReasons) {
  check::ShapeRun run = check::run_anti_pattern(check::AntiPattern::kClean);
  telemetry::Snapshot snap;
  snap.counters[static_cast<std::size_t>(
      telemetry::Counter::kTaskgraphFallbacks)] = 2;
  snap.counters[static_cast<std::size_t>(
      telemetry::Counter::kTaskgraphDivergences)] = 3;
  snap.counters[static_cast<std::size_t>(
      telemetry::Counter::kTaskgraphDivergeShortSpawn)] = 2;
  snap.counters[static_cast<std::size_t>(
      telemetry::Counter::kTaskgraphDivergeStructure)] = 1;
  diag::DiagnosisInput input = input_for(run);
  input.telemetry = &snap;
  const diag::DiagnosisReport report = diag::run_diagnosis(input);
  const diag::Diagnosis* d = find_detector(report, "replay_fallback");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, diag::Severity::kInfo);
  EXPECT_NE(d->summary.find("2 short spawn"), std::string::npos);
  EXPECT_NE(d->summary.find("1 structure mismatch"), std::string::npos);
}

TEST(Diagnose, ProfileOnlyInputStillRunsConstructDetectors) {
  const check::ShapeRun run =
      check::run_anti_pattern(check::AntiPattern::kGranularityCollapse);
  diag::DiagnosisInput input;
  input.profile = &run.profile;
  input.registry = run.registry.get();
  const diag::DiagnosisReport report = diag::run_diagnosis(input);
  EXPECT_FALSE(report.has_workspan);
  const diag::Diagnosis* d = find_detector(report, "granularity_collapse");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, diag::Severity::kProblem);
}

/// The profile of one thread of two creating `count` tasks of `work` ns
/// each and waiting for them, on the sim engine.
AggregateProfile profile_flat_farm(RegionRegistry* registry,
                                   RegionHandle task, int count, Ticks work) {
  rt::SimRuntime sim;
  Instrumentor instr(*registry);
  sim.set_hooks(&instr);
  sim.parallel(2, [&](rt::TaskContext& ctx) {
    if (!ctx.single()) return;
    for (int i = 0; i < count; ++i) {
      rt::TaskAttrs attrs;
      attrs.region = task;
      ctx.create_task([work](rt::TaskContext& c) { c.work(work); }, attrs);
    }
    ctx.taskwait();
  });
  sim.set_hooks(nullptr);
  instr.finalize();
  return instr.aggregate();
}

TEST(Diagnose, ProfileOnlyTinyTasksCollapse) {
  // 300 ns bodies, and 100 ns bodies that cost less than their creation.
  for (const auto& [count, work] : {std::pair{100, 300}, std::pair{200, 100}}) {
    SCOPED_TRACE(std::to_string(count) + " tasks of " + std::to_string(work) +
                 " ns");
    RegionRegistry registry;
    const RegionHandle task =
        registry.register_region("tiny_task", RegionType::kTask);
    const AggregateProfile profile =
        profile_flat_farm(&registry, task, count, work);
    const diag::DiagnosisReport report =
        diag::run_diagnosis({&profile, &registry});
    const diag::Diagnosis* d = find_detector(report, "granularity_collapse");
    ASSERT_NE(d, nullptr);
    EXPECT_GE(d->severity, diag::Severity::kWarning);
    ASSERT_FALSE(d->sites.empty());
    EXPECT_EQ(d->sites.front().region, task);
  }
}

TEST(Diagnose, ProfileOnlyCoarseTasksRaiseNothing) {
  // 1 ms bodies: creation is negligible.
  RegionRegistry registry;
  const RegionHandle task =
      registry.register_region("coarse_task", RegionType::kTask);
  const AggregateProfile profile =
      profile_flat_farm(&registry, task, 16, 1'000'000);
  const diag::DiagnosisReport report =
      diag::run_diagnosis({&profile, &registry});
  EXPECT_EQ(report.count_at_least(diag::Severity::kWarning), 0u);
}

TEST(Diagnose, NonUtf8RegionNameFromASnapshotKeepsTheJsonValid) {
  // Names reach the JSON writers verbatim from .tpsnap files.  The tiny
  // tasks make granularity_collapse name the construct.
  RegionRegistry registry;
  const RegionHandle task =
      registry.register_region("bad\xff\xfe name", RegionType::kTask);
  const AggregateProfile profile =
      profile_flat_farm(&registry, task, 200, 100);
  const snapshot::SnapshotData loaded = snapshot::decode_snapshot(
      snapshot::encode_snapshot(profile, registry, snapshot::SnapshotMeta{}));
  ASSERT_EQ(loaded.registry->info(task).name, "bad\xff\xfe name");

  const std::string report_json =
      render_report_json(loaded.profile, *loaded.registry);
  const std::string diagnosis_json = diag::render_diagnosis_json(
      diag::run_diagnosis({&loaded.profile, loaded.registry.get()}));
  for (const std::string& doc : {report_json, diagnosis_json}) {
    // Every other byte of these documents is ASCII, so pure ASCII means
    // valid UTF-8.
    EXPECT_NE(doc.find("\"bad\\ufffd\\ufffd name\""), std::string::npos)
        << doc;
    EXPECT_TRUE(std::all_of(doc.begin(), doc.end(), [](char c) {
      return static_cast<unsigned char>(c) < 0x80;
    })) << doc;
  }
}

TEST(Diagnose, ParseSeverityRoundTrips) {
  diag::Severity s;
  EXPECT_TRUE(diag::parse_severity("info", &s));
  EXPECT_EQ(s, diag::Severity::kInfo);
  EXPECT_TRUE(diag::parse_severity("warning", &s));
  EXPECT_EQ(s, diag::Severity::kWarning);
  EXPECT_TRUE(diag::parse_severity("problem", &s));
  EXPECT_EQ(s, diag::Severity::kProblem);
  EXPECT_FALSE(diag::parse_severity("fatal", &s));
}

TEST(Diagnose, AnnotationsCarrySeverityDetectorAndCallPath) {
  const check::ShapeRun run =
      check::run_anti_pattern(check::AntiPattern::kCreationStorm);
  const diag::DiagnosisReport report = diag::run_diagnosis(input_for(run));
  ASSERT_FALSE(report.findings.empty());
  const std::vector<trace::TraceAnnotation> notes =
      diag::diagnosis_annotations(report);
  ASSERT_EQ(notes.size(), report.findings.size());
  const trace::TraceAnnotation& note = notes.front();
  EXPECT_EQ(note.name, "diagnosis: " + report.findings.front().detector);
  auto has_arg = [&note](const std::string& key) {
    return std::any_of(note.args.begin(), note.args.end(),
                       [&key](const auto& kv) { return kv.first == key; });
  };
  EXPECT_TRUE(has_arg("severity"));
  EXPECT_TRUE(has_arg("detector"));
  EXPECT_TRUE(has_arg("call_path"));
}

}  // namespace
}  // namespace taskprof

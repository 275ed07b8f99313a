// The diagnosis engine: every seeded anti-pattern shape must be flagged
// by its detector (at problem severity, pointing at the offending
// construct) and the clean shape must stay finding-free.  Diagnosis,
// trace analysis and what-if read one replay of a trace.
#include "diagnose/diagnose.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "check/shapes.hpp"
#include "diagnose/detectors.hpp"
#include "diagnose/render.hpp"
#include "instrument/instrumentor.hpp"
#include "report/json_report.hpp"
#include "rt/sim_runtime.hpp"
#include "snapshot/snapshot.hpp"
#include "test_util.hpp"
#include "trace/analysis.hpp"
#include "trace/span.hpp"
#include "whatif/render.hpp"
#include "whatif/whatif.hpp"

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

/// The ranked what-if report a consumer of `trace` would print.
std::string whatif_json(const trace::Trace& trace,
                        const trace::TraceAnalysis& analysis,
                        const RegionRegistry& registry) {
  whatif::WhatIfProfile profile;
  EXPECT_TRUE(
      whatif::WhatIfProfile::build(trace, analysis, registry, &profile).ok());
  whatif::Report report;
  report.summarize(profile);
  report.top_targets = profile.rank_targets(0.5, {2, 8});
  return whatif::render_whatif_json(report);
}

TEST(Diagnose, AnalysisDiagnosisAndWhatIfShareTheTracesOneReplay) {
  const check::ShapeRun run =
      check::run_anti_pattern(check::AntiPattern::kTaskwaitSerialization);
  const trace::Trace& trace = run.trace;
  const RegionRegistry& registry = *run.registry;

  const trace::TraceAnalysis analysis = trace::analyze_trace(trace);
  const trace::TraceAnalysis* replayed = trace.analysis().get();
  const std::string diagnosis =
      diag::render_diagnosis_json(diag::run_diagnosis(input_for(run)));
  const trace::SpanModel* model = trace.span_model().get();
  EXPECT_EQ(trace.analysis().get(), replayed);
  const std::string whatif = whatif_json(trace, analysis, registry);
  EXPECT_EQ(trace.analysis().get(), replayed);
  EXPECT_EQ(trace.span_model().get(), model);
  EXPECT_EQ(trace::render_analysis(analysis, registry),
            trace::render_analysis(*replayed, registry));

  // A new trace of the same events replays on its own, to the same
  // results.
  std::vector<std::vector<trace::TraceEvent>> streams;
  for (ThreadId t = 0; t < trace.thread_count(); ++t) {
    streams.push_back(trace.thread_events(t));
  }
  const trace::Trace fresh(std::move(streams));
  diag::DiagnosisInput fresh_input = input_for(run);
  fresh_input.trace = &fresh;
  EXPECT_EQ(diag::render_diagnosis_json(diag::run_diagnosis(fresh_input)),
            diagnosis);
  const trace::TraceAnalysis fresh_analysis = trace::analyze_trace(fresh);
  EXPECT_NE(fresh.analysis().get(), replayed);
  EXPECT_EQ(trace::render_analysis(fresh_analysis, registry),
            trace::render_analysis(analysis, registry));
  EXPECT_EQ(whatif_json(fresh, fresh_analysis, registry), whatif);
}

TEST(Diagnose, AnImpossibleHistoryFailsEveryConsumerTypedEveryTime) {
  // tests/corpus/trace_replay/bad_malformed_task_end.tptrc: task 5 ends
  // on a thread that is not running it.
  testutil::TraceBuilder b(1);
  b.add(0, 0, trace::EventKind::kImplicitBegin)
      .add(0, 1, trace::EventKind::kTaskEnd, 5)
      .add(0, 2, trace::EventKind::kImplicitEnd);
  const trace::Trace trace = b.build();
  RegionRegistry registry;
  diag::DiagnosisInput input;
  input.registry = &registry;
  input.trace = &trace;
  const std::vector<std::pair<const char*, std::function<void()>>>
      consumers = {
          {"analyze_trace", [&] { (void)trace::analyze_trace(trace); }},
          {"run_diagnosis", [&] { (void)diag::run_diagnosis(input); }},
          {"WhatIfProfile::build",
           [&] {
             whatif::WhatIfProfile profile;
             (void)whatif::WhatIfProfile::build(trace, trace::TraceAnalysis{},
                                                registry, &profile);
           }},
      };
  std::string first;
  for (int round = 0; round < 2; ++round) {
    for (const auto& [name, consume] : consumers) {
      SCOPED_TRACE(std::string(name) + " round " + std::to_string(round));
      try {
        consume();
        ADD_FAILURE() << "the trace replayed";
      } catch (const snapshot::SnapshotError& error) {
        EXPECT_EQ(error.code(), snapshot::Errc::kMalformed);
        if (first.empty()) first = error.what();
        EXPECT_EQ(error.what(), first);
      }
    }
  }
  EXPECT_NE(first.find("task 5"), std::string::npos) << first;
}

}  // namespace
}  // namespace taskprof

// Tests for the Chrome trace-event exporter (src/trace/chrome_export):
// a golden-file check of the rendered JSON for a small hand-built trace,
// structural validity (balanced B/E per track, balanced braces), thread
// metadata mapping, string escaping, and the file-writing entry point.
#include "trace/chrome_export.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "profile/region.hpp"
#include "rt/sim_runtime.hpp"
#include "test_util.hpp"
#include "trace/recorder.hpp"

namespace taskprof {
namespace {

using trace::ChromeExportOptions;
using trace::EventKind;
using trace::Trace;

/// Two threads: thread 0 creates task 7 and taskwaits; thread 1 steals
/// and runs it.  Timestamps are hand-picked so the golden text is stable.
Trace small_trace(RegionHandle fib) {
  return testutil::TraceBuilder(2)
      .add(0, 1000, EventKind::kImplicitBegin)
      .add(0, 2000, EventKind::kCreateBegin, kImplicitTaskId, fib)
      .add(0, 3000, EventKind::kCreateEnd, 7, fib)
      .add(0, 4000, EventKind::kTaskwaitBegin)
      .add(0, 6000, EventKind::kTaskwaitEnd)
      .add(0, 9000, EventKind::kImplicitEnd)
      .add(1, 1500, EventKind::kImplicitBegin)
      .add(1, 5000, EventKind::kTaskBegin, 7, fib)
      .add(1, 5500, EventKind::kTaskEnd, 7)
      .add(1, 9000, EventKind::kImplicitEnd)
      .build();
}

// The full expected document: every line asserted, including the steal
// instant on thread 1, the create instant on thread 0, and the derived
// counter tracks.
constexpr const char* kGolden =
    R"({
  "displayTimeUnit": "ms",
  "traceEvents": [
    {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "taskprof"}},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "worker 0"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 0, "args": {"sort_index": 0}},
    {"name": "implicit task", "ph": "B", "pid": 1, "tid": 0, "ts": 0.000},
    {"name": "create fib", "ph": "B", "pid": 1, "tid": 0, "ts": 1.000},
    {"name": "", "ph": "E", "pid": 1, "tid": 0, "ts": 2.000},
    {"name": "create", "ph": "i", "pid": 1, "tid": 0, "ts": 2.000, "s": "t", "args": {"task": 7}},
    {"name": "taskwait", "ph": "B", "pid": 1, "tid": 0, "ts": 3.000},
    {"name": "", "ph": "E", "pid": 1, "tid": 0, "ts": 5.000},
    {"name": "", "ph": "E", "pid": 1, "tid": 0, "ts": 8.000},
    {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "worker 1"}},
    {"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": 1, "args": {"sort_index": 1}},
    {"name": "implicit task", "ph": "B", "pid": 1, "tid": 1, "ts": 0.500},
    {"name": "steal", "ph": "i", "pid": 1, "tid": 1, "ts": 4.000, "s": "t", "args": {"task": 7, "from": 0}},
    {"name": "fib", "ph": "B", "pid": 1, "tid": 1, "ts": 4.000, "args": {"task": 7, "stolen": "true"}},
    {"name": "", "ph": "E", "pid": 1, "tid": 1, "ts": 4.500},
    {"name": "", "ph": "E", "pid": 1, "tid": 1, "ts": 8.000},
    {"name": "tasks queued", "ph": "C", "pid": 1, "tid": 0, "ts": 2.000, "args": {"value": 1}},
    {"name": "tasks queued", "ph": "C", "pid": 1, "tid": 0, "ts": 4.000, "args": {"value": 0}},
    {"name": "tasks executing", "ph": "C", "pid": 1, "tid": 0, "ts": 4.000, "args": {"value": 1}},
    {"name": "tasks executing", "ph": "C", "pid": 1, "tid": 0, "ts": 4.500, "args": {"value": 0}}
  ]
}
)";

TEST(ChromeExport, GoldenSmallTrace) {
  RegionRegistry registry;
  const RegionHandle fib = registry.register_region("fib", RegionType::kTask);
  ChromeExportOptions options;
  options.registry = &registry;
  EXPECT_EQ(render_chrome_trace(small_trace(fib), options), kGolden);
}

// Per-tid B/E counts over a rendered document.  Leans on the one-event-
// per-line output shape.
std::map<int, int> be_imbalance(const std::string& doc) {
  std::map<int, int> balance;
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    const auto ph = line.find("\"ph\": \"");
    const auto tid = line.find("\"tid\": ");
    if (ph == std::string::npos || tid == std::string::npos) continue;
    const char phase = line[ph + 7];
    const int t = std::stoi(line.substr(tid + 7));
    if (phase == 'B') ++balance[t];
    if (phase == 'E') --balance[t];
  }
  return balance;
}

TEST(ChromeExport, RecordedSimTraceIsBalancedAndBracketed) {
  RegionRegistry registry;
  const RegionHandle task =
      registry.register_region("t", RegionType::kTask);
  rt::SimRuntime sim;
  trace::TraceRecorder recorder;
  sim.set_hooks(&recorder);
  sim.parallel(4, [task](rt::TaskContext& ctx) {
    if (ctx.single()) {
      for (int i = 0; i < 32; ++i) {
        rt::TaskAttrs attrs;
        attrs.region = task;
        ctx.create_task(
            [](rt::TaskContext& inner) { inner.work(100); }, attrs);
      }
      ctx.taskwait();
    }
    ctx.barrier();
  });
  sim.set_hooks(nullptr);

  ChromeExportOptions options;
  options.registry = &registry;
  const std::string doc =
      render_chrome_trace(recorder.take(), options);

  // Document-level structure: balanced braces/brackets, one trailing
  // newline, a traceEvents array.
  EXPECT_NE(doc.find("\"traceEvents\": ["), std::string::npos);
  long depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const char c = doc[i];
    if (c == '"' && (i == 0 || doc[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);

  // Every track's duration events pair up.
  for (const auto& [tid, imbalance] : be_imbalance(doc)) {
    EXPECT_EQ(imbalance, 0) << "tid " << tid;
  }

  // One thread_name metadata record per worker, named after its id.
  for (int tid = 0; tid < 4; ++tid) {
    const std::string meta = "\"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                             "\"tid\": " +
                             std::to_string(tid);
    EXPECT_NE(doc.find(meta), std::string::npos) << "tid " << tid;
    EXPECT_NE(doc.find("\"worker " + std::to_string(tid) + "\""),
              std::string::npos);
  }

  // All 32 creates show up as instants; every task slice carries its name.
  std::size_t creates = 0;
  for (std::size_t pos = doc.find("\"name\": \"create\", \"ph\": \"i\"");
       pos != std::string::npos;
       pos = doc.find("\"name\": \"create\", \"ph\": \"i\"", pos + 1)) {
    ++creates;
  }
  EXPECT_EQ(creates, 32u);
  EXPECT_NE(doc.find("\"name\": \"t\", \"ph\": \"B\""), std::string::npos);
}

TEST(ChromeExport, EscapesRegionNames) {
  RegionRegistry registry;
  const RegionHandle weird = registry.register_region(
      "qu\"ote\\back\nline", RegionType::kTask);
  ChromeExportOptions options;
  options.registry = &registry;
  const std::string doc = render_chrome_trace(
      testutil::TraceBuilder(1).run(0, 0, 10, 1, weird).build(), options);
  EXPECT_NE(doc.find("qu\\\"ote\\\\back\\nline"), std::string::npos);
}

TEST(ChromeExport, TelemetryCountersBecomeTracks) {
  RegionRegistry registry;
  const RegionHandle fib = registry.register_region("fib", RegionType::kTask);
  telemetry::Registry telem;
  telem.prepare(1);
  telem.add(0, telemetry::Counter::kStealAttempts, 5);

  ChromeExportOptions options;
  options.registry = &registry;
  const telemetry::Snapshot snap = telem.snapshot();
  options.telemetry = &snap;
  const std::string doc = render_chrome_trace(small_trace(fib), options);
  EXPECT_NE(doc.find("\"telemetry steal_attempts\""), std::string::npos);
  EXPECT_NE(doc.find("{\"value\": 5}"), std::string::npos);
  // Zero counters are skipped.
  EXPECT_EQ(doc.find("\"telemetry tasks_created\""), std::string::npos);
}

TEST(ChromeExport, UntimedAnnotationSitsAtTheStartOfTheTimeline) {
  // A finding without a timestamp (time 0) on a trace that starts at
  // 1 ms, as real-engine traces start at a steady-clock reading.
  RegionRegistry registry;
  const RegionHandle fib = registry.register_region("fib", RegionType::kTask);
  const std::vector<trace::TraceAnnotation> notes = {
      {.name = "diagnosis: starved_workers",
       .time = 0,
       .thread = 0,
       .args = {}}};
  ChromeExportOptions options;
  options.registry = &registry;
  options.annotations = &notes;
  const std::string doc = render_chrome_trace(
      testutil::TraceBuilder(1).run(0, 1'000'000, 2'000'000, 1, fib).build(),
      options);
  EXPECT_NE(doc.find("    {\"name\": \"diagnosis: starved_workers\", "
                     "\"ph\": \"i\", \"pid\": 1, \"tid\": 0, "
                     "\"ts\": 0.000, \"s\": \"t\"}"),
            std::string::npos)
      << doc;
}

TEST(ChromeExport, WriteToFileRoundTrips) {
  RegionRegistry registry;
  const RegionHandle fib = registry.register_region("fib", RegionType::kTask);
  const std::string path =
      "chrome_export_test_" + std::to_string(::getpid()) + ".json";
  trace::ChromeExportOptions file_options;
  file_options.registry = &registry;
  trace::write_chrome_trace(path, small_trace(fib), file_options);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), kGolden);
  std::remove(path.c_str());
}

TEST(ChromeExport, WriteToBadPathThrows) {
  RegionRegistry registry;
  const RegionHandle fib = registry.register_region("fib", RegionType::kTask);
  EXPECT_THROW(trace::write_chrome_trace("/nonexistent-dir/x/y.json",
                                         small_trace(fib), {&registry}),
               std::runtime_error);
}

TEST(ChromeExport, EmptyTraceRendersValidSkeleton) {
  const std::string doc = render_chrome_trace(Trace{});
  EXPECT_NE(doc.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
  EXPECT_EQ(doc.find("\"ph\": \"B\""), std::string::npos);
}

}  // namespace
}  // namespace taskprof

// perfbench driver: what does the task profiler cost, end to end and per
// layer?  One process runs one workload on rt::RealRuntime.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --scratch DIR [--spans-out FILE]
//
// Set-up runs one untimed warm-up pass of every mode.  Then the modes
// (plain, profiled, traced, observed, snapshotted, serial, postmortem) run
// round-robin, one sample each per round, until S seconds have passed.
// With --trace 1 the end-to-end samples take the first half of S and the
// layer-timing pass (hook decorators plus spans) the second half.  Every
// sample's outputs are checked.  The last line on stdout is one JSON object
// with the raw samples, the per-layer values and the check counts;
// perfbench/run.py pools it with the other processes of the run.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bots/kernel.hpp"
#include "callpath.hpp"
#include "check/invariants.hpp"
#include "diagnose/diagnose.hpp"
#include "instrument/instrumentor.hpp"
#include "layers.hpp"
#include "report/json_report.hpp"
#include "report/text_report.hpp"
#include "rt/real_runtime.hpp"
#include "snapshot/flusher.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/analysis.hpp"
#include "trace/file.hpp"
#include "trace/recorder.hpp"
#include "whatif/whatif.hpp"

using namespace taskprof;
using perfbench::Callback;
using perfbench::HookTotals;
using perfbench::SpanLog;
using perfbench::TimedLayer;

namespace {

// --- Workloads ---------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  int threads;
  std::function<std::unique_ptr<bots::Kernel>()> make_kernel;
  bots::SizeClass size;
  /// Flusher cadence in snapshotted mode: a few flushes per profiled run.
  Ticks snapshot_interval;
  /// Post-mortem passes per sample, so one sample lasts tens of ms.
  int postmortem_reps;
};

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {"fib_fine", 1, [] { return bots::make_kernel("fib"); },
       bots::SizeClass::kSmall, 8 * kTicksPerMs, 1},
      {"callpath_wide", 3, [] { return perfbench::make_callpath_kernel(); },
       bots::SizeClass::kSmall, 10 * kTicksPerMs, 1},
      {"alignment_coarse", 3, [] { return bots::make_kernel("alignment"); },
       bots::SizeClass::kMedium, 40 * kTicksPerMs, 16},
  };
  return specs;
}

// --- Modes -------------------------------------------------------------------

enum class Mode : std::uint8_t {
  kPlain,
  kProfiled,
  kTraced,
  kObserved,
  kSnapshotted,
  kSerial,
  kPostmortem,
  kCount_
};
constexpr std::size_t kModes = static_cast<std::size_t>(Mode::kCount_);
constexpr std::array<const char*, kModes> kModeNames = {
    "plain",       "profiled", "traced",    "observed",
    "snapshotted", "serial",   "postmortem"};

Ticks now_ns() {
  static const SteadyClock clock;
  return clock.now();
}

double seconds_since(Ticks start) {
  return static_cast<double>(now_ns() - start) * 1e-9;
}

/// One timed run of one mode and what its checks found.
struct Sample {
  double seconds = 0.0;
  Ticks parallel_ticks = 0;
  double hook_mean_ns = 0.0;  ///< observed mode: TimedHooks' own claim
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Per-layer observations of one layer-timing round.
struct Probe {
  SpanLog spans;
  /// Index of each mode's first span; its spans end where the next
  /// mode's begin.
  std::array<std::size_t, kModes + 1> first_span{};
  int threads = 1;
  std::array<double, kModes> wall{};
  bots::KernelResult plain;
  telemetry::Snapshot plain_telemetry;
  HookTotals instr_profiled, recorder, instr_observed, timed_hooks,
      instr_snapshotted;
  Instrumentor::MemoryStats memory;
  std::size_t callpaths = 0;
  std::size_t max_fanout = 0;
  std::size_t max_concurrent = 0;
  std::size_t trace_events = 0;
  std::uintmax_t trace_file_bytes = 0;
  std::size_t snapshot_bytes = 0;
  std::uint64_t flushes = 0;
  double ship_s = 0.0;
  std::size_t findings = 0;
  std::size_t whatif_paths = 0;
  std::size_t report_bytes = 0;
};

/// The process's whole state: one runtime and one region registry are
/// reused by every sample, as a profiled program would reuse them.
struct Bench {
  Bench(const WorkloadSpec& workload, std::uint64_t seed, std::string dir)
      : spec(workload),
        kernel(workload.make_kernel()),
        scratch(std::move(dir)) {
    config.size = workload.size;
    config.seed = seed;
  }

  const WorkloadSpec& spec;
  std::unique_ptr<bots::Kernel> kernel;
  bots::KernelConfig config;
  rt::RealRuntime runtime;
  RegionRegistry registry;
  std::string scratch;
  /// Post-mortem input: the outputs of make_postmortem_input().
  std::vector<std::uint8_t> pm_snapshot;
  std::string pm_trace;
  std::optional<std::size_t> pm_findings;
  Probe* probe = nullptr;  ///< set only during the layer-timing pass

  SpanLog* spans() { return probe != nullptr ? &probe->spans : nullptr; }

  /// Wrap `inner` in a timing decorator when a probe is attached.
  rt::SchedulerHooks* wrap(std::optional<TimedLayer>& layer,
                           rt::SchedulerHooks* inner) {
    if (probe == nullptr) return inner;
    layer.emplace(inner, spec.threads);
    return &*layer;
  }

  bots::KernelResult run_kernel(int threads) {
    SpanLog::Scope span(spans(), "kernel.run");
    bots::KernelConfig run_config = config;
    run_config.threads = threads;
    return kernel->run(runtime, registry, run_config);
  }
};

/// finalize() and aggregate(), the end of every profiled run.
AggregateProfile finish_profile(Bench& b, Instrumentor& instr) {
  {
    SpanLog::Scope span(b.spans(), "measure.finalize");
    instr.finalize();
  }
  SpanLog::Scope span(b.spans(), "measure.aggregate");
  return instr.aggregate();
}

void check_run(Sample& out, const char* mode, const bots::KernelResult& run,
               const AggregateProfile& profile, const RegionRegistry& registry,
               const telemetry::Snapshot* telemetry,
               const MeasureOptions& options) {
  out.expect(run.ok, std::string(mode) + ": kernel self-check failed (" +
                         run.check + ")");
  const check::InvariantReport report =
      check::check_profile(profile, registry, &run.stats, telemetry, options);
  out.expect(report.ok(),
             std::string(mode) + ": check_profile: " + report.to_string());
}

Sample run_plain(Bench& b) {
  std::optional<telemetry::Registry> counters;
  if (b.probe != nullptr) b.runtime.set_telemetry(&counters.emplace());
  const Ticks t0 = now_ns();
  const bots::KernelResult run = b.run_kernel(b.spec.threads);
  Sample out;
  out.seconds = seconds_since(t0);
  b.runtime.set_telemetry(nullptr);
  out.parallel_ticks = run.stats.parallel_ticks;
  out.expect(run.ok, "plain: kernel self-check failed (" + run.check + ")");
  if (b.probe != nullptr) {
    b.probe->plain = run;
    b.probe->plain_telemetry = counters->snapshot();
  }
  return out;
}

Sample run_profiled(Bench& b) {
  const Ticks t0 = now_ns();
  Instrumentor instr(b.registry);
  std::optional<TimedLayer> layer;
  b.runtime.set_hooks(b.wrap(layer, &instr));
  const bots::KernelResult run = b.run_kernel(b.spec.threads);
  b.runtime.set_hooks(nullptr);
  const AggregateProfile profile = finish_profile(b, instr);
  Sample out;
  out.seconds = seconds_since(t0);
  check_run(out, "profiled", run, profile, b.registry, nullptr, {});
  if (b.probe != nullptr) {
    b.probe->instr_profiled = layer->totals();
    b.probe->memory = instr.memory_stats();
    b.probe->callpaths = perfbench::count_callpaths(profile);
    b.probe->max_fanout = perfbench::max_fanout(profile);
    b.probe->max_concurrent = profile.max_concurrent_any_thread;
  }
  return out;
}

std::size_t count_task_ends(const trace::Trace& recorded) {
  std::size_t ends = 0;
  for (ThreadId t = 0; t < recorded.thread_count(); ++t) {
    for (const trace::TraceEvent& e : recorded.thread_events(t)) {
      if (e.kind == trace::EventKind::kTaskEnd) ++ends;
    }
  }
  return ends;
}

Sample run_traced(Bench& b) {
  const std::string path =
      b.scratch + "/traced-" + std::to_string(::getpid()) + ".tptrc";
  const Ticks t0 = now_ns();
  Instrumentor instr(b.registry);
  trace::TraceRecorder recorder;
  std::optional<TimedLayer> instr_layer;
  std::optional<TimedLayer> recorder_layer;
  rt::FanoutHooks fanout{b.wrap(instr_layer, &instr),
                         b.wrap(recorder_layer, &recorder)};
  b.runtime.set_hooks(&fanout);
  const bots::KernelResult run = b.run_kernel(b.spec.threads);
  b.runtime.set_hooks(nullptr);
  const AggregateProfile profile = finish_profile(b, instr);
  trace::Trace recorded;
  {
    SpanLog::Scope span(b.spans(), "trace.take");
    recorded = recorder.take();
  }
  {
    SpanLog::Scope span(b.spans(), "trace.write");
    trace::write_trace_file(path, recorded);
  }
  Sample out;
  out.seconds = seconds_since(t0);

  check_run(out, "traced", run, profile, b.registry, nullptr, {});
  const std::size_t ends = count_task_ends(recorded);
  out.expect(ends == run.stats.tasks_executed,
             "traced: trace has " + std::to_string(ends) +
                 " task ends, engine executed " +
                 std::to_string(run.stats.tasks_executed));
  if (b.probe != nullptr) {
    b.probe->recorder = recorder_layer->totals();
    b.probe->trace_events = recorded.event_count();
    b.probe->trace_file_bytes = std::filesystem::file_size(path);
    std::vector<std::uint8_t> bytes;
    {
      SpanLog::Scope span(b.spans(), "snapshot.encode");
      bytes = snapshot::encode_snapshot(profile, b.registry, {});
    }
    b.probe->snapshot_bytes = bytes.size();
  }
  std::filesystem::remove(path);
  return out;
}

/// Set-up step: the fixed input of every post-mortem sample, from one
/// traced run on a single worker.  At one worker the event stream and the
/// profile do not depend on the schedule, so every process of every run
/// analyzes the same structure (a multi-worker trace varies with stealing,
/// and the post-mortem cost with it).
Sample make_postmortem_input(Bench& b) {
  Instrumentor instr(b.registry);
  trace::TraceRecorder recorder;
  rt::FanoutHooks fanout{&instr, &recorder};
  b.runtime.set_hooks(&fanout);
  const bots::KernelResult run = b.run_kernel(1);
  b.runtime.set_hooks(nullptr);
  instr.finalize();
  const AggregateProfile profile = instr.aggregate();
  const trace::Trace recorded = recorder.take();
  b.pm_trace =
      b.scratch + "/postmortem-" + std::to_string(::getpid()) + ".tptrc";
  trace::write_trace_file(b.pm_trace, recorded);
  b.pm_snapshot = snapshot::encode_snapshot(profile, b.registry, {});
  Sample out;
  check_run(out, "postmortem input", run, profile, b.registry, nullptr, {});
  return out;
}

Sample run_observed(Bench& b) {
  const Ticks t0 = now_ns();
  Instrumentor instr(b.registry);
  telemetry::Registry counters;
  std::optional<TimedLayer> instr_layer;
  std::optional<TimedLayer> timed_layer;
  telemetry::TimedHooks timed(b.wrap(instr_layer, &instr), &counters);
  b.runtime.set_telemetry(&counters);
  b.runtime.set_hooks(b.wrap(timed_layer, &timed));
  const bots::KernelResult run = b.run_kernel(b.spec.threads);
  b.runtime.set_hooks(nullptr);
  b.runtime.set_telemetry(nullptr);
  const AggregateProfile profile = finish_profile(b, instr);
  telemetry::Snapshot snap;
  {
    SpanLog::Scope span(b.spans(), "telemetry.snapshot");
    snap = counters.snapshot();
  }
  Sample out;
  out.seconds = seconds_since(t0);
  out.hook_mean_ns = snap.hook_mean_ticks();
  check_run(out, "observed", run, profile, b.registry, &snap, {});
  if (b.probe != nullptr) {
    b.probe->instr_observed = instr_layer->totals();
    b.probe->timed_hooks = timed_layer->totals();
  }
  return out;
}

/// Benchmark-owned flush destination: encodes every capture in memory.
/// ship() runs on the flusher thread and, for the final capture, on the
/// caller of flush_final(); the flusher serializes the two, and the driver
/// reads the fields only after both are done.
class EncodingSink final : public snapshot::FlushSink {
 public:
  bool ship(const AggregateProfile& profile, const RegionRegistry& registry,
            const snapshot::SnapshotMeta& meta,
            const telemetry::Snapshot* telemetry,
            bool final) noexcept override {
    try {
      const Ticks t0 = now_ns();
      std::vector<std::uint8_t> bytes =
          snapshot::encode_snapshot(profile, registry, meta, telemetry);
      encode_ticks += now_ns() - t0;
      ++ships;
      if (final) final_bytes = std::move(bytes);
      return true;
    } catch (...) {
      return false;
    }
  }

  std::uint64_t ships = 0;
  Ticks encode_ticks = 0;
  std::vector<std::uint8_t> final_bytes;
};

Sample run_snapshotted(Bench& b) {
  MeasureOptions options;
  options.snapshot_every = b.spec.snapshot_interval;
  const Ticks t0 = now_ns();
  Instrumentor instr(b.registry, options);
  EncodingSink sink;
  snapshot::FlusherOptions flush;
  flush.interval = b.spec.snapshot_interval;
  flush.sink = &sink;
  snapshot::SnapshotFlusher flusher(instr, b.registry, flush);
  std::optional<TimedLayer> layer;
  b.runtime.set_hooks(b.wrap(layer, &instr));
  flusher.start();
  const bots::KernelResult run = b.run_kernel(b.spec.threads);
  b.runtime.set_hooks(nullptr);
  flusher.stop();
  if (b.probe != nullptr) {
    // One capture from a thread that drives no profiler's events.
    Ticks start = 0;
    Ticks end = 0;
    std::thread capturer([&] {
      start = now_ns();
      const Instrumentor::CaptureResult captured = instr.capture_snapshot();
      end = now_ns();
      (void)captured;
    });
    capturer.join();
    b.probe->spans.add("snapshot.capture", start, end);
  }
  {
    SpanLog::Scope span(b.spans(), "measure.finalize");
    instr.finalize();
  }
  bool shipped = false;
  {
    SpanLog::Scope span(b.spans(), "snapshot.flush_final");
    shipped = flusher.flush_final();
  }
  Sample out;
  out.seconds = seconds_since(t0);

  out.expect(shipped && !sink.final_bytes.empty(),
             "snapshotted: flush_final failed: " + flusher.last_error());
  if (shipped) {
    const snapshot::SnapshotData data =
        snapshot::decode_snapshot(sink.final_bytes);
    check_run(out, "snapshotted", run, data.profile, *data.registry, nullptr,
              options);
  }
  if (b.probe != nullptr) {
    b.probe->instr_snapshotted = layer->totals();
    b.probe->flushes = sink.ships;
    b.probe->ship_s =
        sink.ships == 0 ? 0.0
                        : static_cast<double>(sink.encode_ticks) * 1e-9 /
                              static_cast<double>(sink.ships);
  }
  return out;
}

/// The plain run on one worker.  The post-mortem pass is single-threaded,
/// so postmortem_x divides it by this run rather than by the team's: both
/// then run on the same core, moments apart, and share its speed.
Sample run_serial(Bench& b) {
  const Ticks t0 = now_ns();
  const bots::KernelResult run = b.run_kernel(1);
  Sample out;
  out.seconds = seconds_since(t0);
  out.expect(run.ok, "serial: kernel self-check failed (" + run.check + ")");
  return out;
}

/// What one post-mortem pass leaves for its checks.
struct PostmortemOutput {
  snapshot::SnapshotData data;
  std::size_t findings = 0;
  whatif::Error whatif;
  std::size_t paths = 0;
  std::size_t report_bytes = 0;
};

PostmortemOutput postmortem_pass(Bench& b) {
  PostmortemOutput out;
  SpanLog* spans = b.spans();
  {
    SpanLog::Scope span(spans, "snapshot.decode");
    out.data = snapshot::decode_snapshot(b.pm_snapshot);
  }
  trace::Trace recorded;
  {
    SpanLog::Scope span(spans, "trace.read");
    recorded = trace::read_trace_file(b.pm_trace);
  }
  trace::TraceAnalysis analysis;
  {
    SpanLog::Scope span(spans, "trace.analyze");
    analysis = trace::analyze_trace(recorded);
  }
  {
    SpanLog::Scope span(spans, "diagnose.run");
    diag::DiagnosisInput input;
    input.profile = &out.data.profile;
    input.registry = out.data.registry.get();
    input.trace = &recorded;
    out.findings = diag::run_diagnosis(input).findings.size();
  }
  whatif::WhatIfProfile whatif_profile;
  {
    SpanLog::Scope span(spans, "whatif.build");
    out.whatif = whatif::WhatIfProfile::build(
        recorded, analysis, *out.data.registry, &whatif_profile);
  }
  if (out.whatif.ok()) {
    SpanLog::Scope span(spans, "whatif.rank");
    out.paths = whatif_profile.rank_targets(0.5, {}).size();
  }
  {
    SpanLog::Scope span(spans, "report.render");
    out.report_bytes =
        render_profile(out.data.profile, *out.data.registry).size() +
        render_report_json(out.data.profile, *out.data.registry).size();
  }
  return out;
}

Sample run_postmortem(Bench& b) {
  const int reps = b.spec.postmortem_reps;
  const Ticks t0 = now_ns();
  PostmortemOutput last;
  for (int i = 0; i < reps; ++i) last = postmortem_pass(b);
  Sample out;
  out.seconds = seconds_since(t0) / reps;

  out.expect(last.whatif.ok(),
             std::string("postmortem: what-if build failed: ") +
                 whatif::error_code_name(last.whatif.code) + " " +
                 last.whatif.message);
  out.expect(snapshot::encode_snapshot(last.data) == b.pm_snapshot,
             "postmortem: .tpsnap decode + re-encode is not byte-identical");
  if (!b.pm_findings) b.pm_findings = last.findings;
  out.expect(last.findings == *b.pm_findings,
             "postmortem: diagnosis findings changed from " +
                 std::to_string(*b.pm_findings) + " to " +
                 std::to_string(last.findings));
  if (b.probe != nullptr) {
    b.probe->findings = last.findings;
    b.probe->whatif_paths = last.paths;
    b.probe->report_bytes = last.report_bytes;
  }
  return out;
}

Sample run_mode(Bench& b, Mode mode) {
  try {
    switch (mode) {
      case Mode::kPlain: return run_plain(b);
      case Mode::kProfiled: return run_profiled(b);
      case Mode::kTraced: return run_traced(b);
      case Mode::kObserved: return run_observed(b);
      case Mode::kSnapshotted: return run_snapshotted(b);
      case Mode::kSerial: return run_serial(b);
      case Mode::kPostmortem: return run_postmortem(b);
      case Mode::kCount_: break;
    }
  } catch (const std::exception& error) {
    b.runtime.set_hooks(nullptr);
    b.runtime.set_telemetry(nullptr);
    Sample failed;
    failed.expect(false, std::string(kModeNames[static_cast<std::size_t>(
                             mode)]) + ": " + error.what());
    return failed;
  }
  return {};
}

// --- Statistics --------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

// --- Layer metrics -----------------------------------------------------------

struct E2EMedians {
  std::array<double, kModes> seconds{};
  double plain_parallel_ns = 0.0;
  double hook_mean_ns = 0.0;
};

/// Every per-layer metric of one layer-timing round.
std::map<std::string, double> layer_metrics(const Probe& p, double floor_ns,
                                            const E2EMedians& e2e) {
  std::map<std::string, double> m;
  const double tasks = static_cast<double>(p.plain.stats.tasks_executed);
  auto span_s = [&](Mode mode, const char* name) {
    const auto i = static_cast<std::size_t>(mode);
    return p.spans.seconds(name, p.first_span[i], p.first_span[i + 1]);
  };
  using telemetry::Counter;

  m["rt.tasks"] = tasks;
  m["rt.plain_s"] = e2e.seconds[static_cast<std::size_t>(Mode::kPlain)];
  m["rt.ns_per_task"] = tasks > 0 ? e2e.plain_parallel_ns / tasks : 0.0;
  m["rt.steals"] = static_cast<double>(p.plain.stats.steals);
  m["rt.steal_attempts"] = static_cast<double>(p.plain.stats.steal_attempts);
  m["rt.steal_success_ratio"] = p.plain_telemetry.steal_success_rate();
  m["rt.yields"] =
      static_cast<double>(p.plain_telemetry.counter(Counter::kSchedYields));
  m["rt.deque_depth_max"] = static_cast<double>(
      p.plain_telemetry.gauge(telemetry::Gauge::kDequeDepth));

  const HookTotals& ip = p.instr_profiled;
  m["instrument.events"] = static_cast<double>(ip.events());
  m["instrument.ns_per_event"] = ip.mean_ns(floor_ns);
  m["instrument.create_ns"] = ip.mean_ns(Callback::kCreateBegin, floor_ns) +
                              ip.mean_ns(Callback::kCreateEnd, floor_ns);
  m["instrument.task_begin_ns"] = ip.mean_ns(Callback::kTaskBegin, floor_ns);
  m["instrument.task_end_ns"] = ip.mean_ns(Callback::kTaskEnd, floor_ns);
  m["instrument.taskwait_ns"] = ip.mean_ns(Callback::kTaskwaitBegin, floor_ns) +
                                ip.mean_ns(Callback::kTaskwaitEnd, floor_ns);
  m["instrument.switch_ns"] = ip.mean_ns(Callback::kTaskSwitch, floor_ns);
  m["instrument.region_ns"] = ip.mean_ns(Callback::kRegionEnter, floor_ns) +
                              ip.mean_ns(Callback::kRegionExit, floor_ns);

  m["measure.finalize_s"] = span_s(Mode::kProfiled, "measure.finalize");
  m["measure.aggregate_s"] = span_s(Mode::kProfiled, "measure.aggregate");
  m["measure.pool_nodes"] = static_cast<double>(p.memory.nodes);
  m["measure.pool_bytes"] = static_cast<double>(p.memory.bytes);
  m["measure.max_concurrent"] = static_cast<double>(p.max_concurrent);
  m["profile.callpaths"] = static_cast<double>(p.callpaths);
  m["profile.max_fanout"] = static_cast<double>(p.max_fanout);
  m["clock.ns_per_read"] = floor_ns;

  // The decorator outside TimedHooks also times the decorator inside it,
  // whose two clock reads the inner measurement does not see.
  m["telemetry.self_ns_per_event"] = p.timed_hooks.mean_ns(floor_ns) -
                                     p.instr_observed.mean_ns(floor_ns) -
                                     2.0 * floor_ns;
  m["telemetry.reported_ns_per_event"] = e2e.hook_mean_ns;

  m["trace.events"] = static_cast<double>(p.trace_events);
  m["trace.bytes"] =
      static_cast<double>(p.trace_events * sizeof(trace::TraceEvent));
  m["trace.record_ns_per_event"] = p.recorder.mean_ns(floor_ns);
  m["trace.take_s"] = span_s(Mode::kTraced, "trace.take");
  m["trace.write_s"] = span_s(Mode::kTraced, "trace.write");
  m["trace.read_s"] = span_s(Mode::kPostmortem, "trace.read");
  m["trace.file_bytes"] = static_cast<double>(p.trace_file_bytes);
  m["trace.analyze_s"] = span_s(Mode::kPostmortem, "trace.analyze");

  m["snapshot.flushes"] = static_cast<double>(p.flushes);
  m["snapshot.ship_s"] = p.ship_s;
  m["snapshot.capture_s"] = span_s(Mode::kSnapshotted, "snapshot.capture");
  m["snapshot.handshake_ns_per_event"] =
      p.instr_snapshotted.mean_ns(floor_ns) - ip.mean_ns(floor_ns);
  m["snapshot.encode_s"] = span_s(Mode::kTraced, "snapshot.encode");
  m["snapshot.decode_s"] = span_s(Mode::kPostmortem, "snapshot.decode");
  m["snapshot.bytes"] = static_cast<double>(p.snapshot_bytes);

  m["diagnose.run_s"] = span_s(Mode::kPostmortem, "diagnose.run");
  m["diagnose.findings"] = static_cast<double>(p.findings);
  m["whatif.build_s"] = span_s(Mode::kPostmortem, "whatif.build");
  m["whatif.rank_s"] = span_s(Mode::kPostmortem, "whatif.rank");
  m["whatif.paths"] = static_cast<double>(p.whatif_paths);
  m["report.render_s"] = span_s(Mode::kPostmortem, "report.render");
  m["report.bytes"] = static_cast<double>(p.report_bytes);

  double layer_sum = 0.0;
  double e2e_sum = 0.0;
  for (std::size_t i = 0; i < kModes; ++i) {
    const double base = e2e.seconds[i];
    m[std::string("layer_timing.overhead_share.") + kModeNames[i]] =
        base > 0.0 ? (p.wall[i] - base) / base : 0.0;
    layer_sum += p.wall[i];
    e2e_sum += base;
  }
  m["layer_timing.overhead_share"] =
      e2e_sum > 0.0 ? (layer_sum - e2e_sum) / e2e_sum : 0.0;

  // Ledger: how much of profiled - plain the instrumentor's own time
  // explains.  Hook time is summed over threads; the delta is wall time.
  const double delta_ns =
      (e2e.seconds[static_cast<std::size_t>(Mode::kProfiled)] -
       e2e.seconds[static_cast<std::size_t>(Mode::kPlain)]) *
      1e9;
  const double explained_ns = ip.mean_ns(floor_ns) *
                              static_cast<double>(ip.events()) / p.threads;
  m["ledger.explained_share"] = delta_ns > 0.0 ? explained_ns / delta_ns : 0.0;
  return m;
}

// --- Output ------------------------------------------------------------------

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string scratch;
  std::string spans_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed =
          errno == 0 && end != nullptr && *end == '\0' && !value.empty();
      if (!have_seed) return false;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = errno == 0 && end != nullptr && *end == '\0' &&
                     args.seconds > 0.0 && std::isfinite(args.seconds);
      if (!have_seconds) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args.trace = value == "1";
    } else if (key == "--scratch") {
      args.scratch = value;
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && !args.workload.empty() &&
         !args.scratch.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const Ticks process_start = now_ns();
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 --scratch DIR [--spans-out FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : workloads()) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  Bench b(*spec, args.seed, args.scratch);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  auto account = [&](const Sample& s) {
    ++attempted;
    if (s.failures.empty()) return;
    ++failed;
    for (const std::string& f : s.failures) {
      if (failures.size() < 8) failures.push_back(f);
    }
  };

  // Set-up: inputs, the kernels' per-process self-check references, the
  // post-mortem input and the first touch of pools and slabs all land in
  // one untimed warm-up pass of every mode.
  try {
    account(make_postmortem_input(b));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "post-mortem input: %s\n", error.what());
    return 1;
  }
  for (std::size_t m = 0; m < kModes; ++m) {
    account(run_mode(b, static_cast<Mode>(m)));
  }
  const double setup_s = seconds_since(process_start);

  std::array<std::vector<double>, kModes> samples;
  std::vector<double> plain_parallel_ns;
  std::vector<double> hook_mean_ns;
  const double e2e_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const Ticks e2e_start = now_ns();
  // Round-robin: one sample of every mode per round, so a shift in host
  // speed lands on all modes alike instead of on one block of samples.
  do {
    for (std::size_t m = 0; m < kModes; ++m) {
      const Sample s = run_mode(b, static_cast<Mode>(m));
      account(s);
      samples[m].push_back(s.seconds);
      if (m == static_cast<std::size_t>(Mode::kPlain)) {
        plain_parallel_ns.push_back(static_cast<double>(s.parallel_ticks));
      }
      if (m == static_cast<std::size_t>(Mode::kObserved)) {
        hook_mean_ns.push_back(s.hook_mean_ns);
      }
    }
  } while (seconds_since(e2e_start) < e2e_seconds);

  std::map<std::string, double> layers;
  if (args.trace) {
    E2EMedians e2e;
    for (std::size_t m = 0; m < kModes; ++m) {
      e2e.seconds[m] = median(samples[m]);
    }
    e2e.plain_parallel_ns = median(plain_parallel_ns);
    e2e.hook_mean_ns = median(hook_mean_ns);
    const double floor_ns = perfbench::measure_clock_floor_ns();

    std::map<std::string, std::vector<double>> rounds;
    std::string spans_json = "[";
    const Ticks layer_start = now_ns();
    do {
      Probe probe;
      probe.threads = spec->threads;
      b.probe = &probe;
      for (std::size_t m = 0; m < kModes; ++m) {
        probe.first_span[m] = probe.spans.spans().size();
        SpanLog::Scope span(&probe.spans, kModeNames[m]);
        const Sample s = run_mode(b, static_cast<Mode>(m));
        probe.wall[m] = s.seconds;
        account(s);
      }
      probe.first_span[kModes] = probe.spans.spans().size();
      b.probe = nullptr;
      for (const auto& [name, value] : layer_metrics(probe, floor_ns, e2e)) {
        rounds[name].push_back(value);
      }
      if (spans_json.size() > 1) spans_json += ",";
      spans_json += probe.spans.to_json();
    } while (seconds_since(layer_start) < args.seconds - e2e_seconds);
    spans_json += "]";
    for (const auto& [name, values] : rounds) layers[name] = median(values);

    if (!args.spans_out.empty()) {
      if (std::FILE* f = std::fopen(args.spans_out.c_str(), "wb")) {
        std::fwrite(spans_json.data(), 1, spans_json.size(), f);
        std::fclose(f);
      }
    }
  }

  if (!b.pm_trace.empty()) std::filesystem::remove(b.pm_trace);

  std::string out = "{\"workload\":" + json_string(spec->name) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"setup_s\":" + json_number(setup_s) +
                    ",\"peak_rss_mb\":" + json_number(peak_rss_mb()) +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) + ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += (i == 0 ? "" : ",") + json_string(failures[i]);
  }
  out += "],\"samples\":{";
  for (std::size_t m = 0; m < kModes; ++m) {
    out += std::string(m == 0 ? "" : ",") + "\"" + kModeNames[m] + "_s\":[";
    for (std::size_t i = 0; i < samples[m].size(); ++i) {
      out += (i == 0 ? "" : ",") + json_number(samples[m][i]);
    }
    out += "]";
  }
  out += "},\"layers\":{";
  bool first = true;
  for (const auto& [name, value] : layers) {
    out += (first ? "\"" : ",\"") + name + "\":" + json_number(value);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return failed == 0 ? 0 : 1;
}

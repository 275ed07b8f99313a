// taskprof_cli: command-line profiling driver — run any BOTS kernel on
// either engine and emit the profile in several formats.  The "tool"
// face of the library, analogous to running a Score-P-instrumented
// binary and viewing it in CUBE.
//
//   taskprof_cli --kernel=nqueens --threads=4 --report=summary
//   taskprof_cli --kernel=fib --engine=real --size=test --report=tree
//   taskprof_cli --kernel=sort --report=csv > profile.csv
//   taskprof_cli --kernel=fib --snapshot-every=50       # crash-safe flushes
//   taskprof_cli load fib.tpsnap --report=tree --check
//   taskprof_cli merge --out=all.tpsnap a.tpsnap b.tpsnap
#include <cstdio>
#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bots/kernel.hpp"
#include "check/invariants.hpp"
#include "common/format.hpp"
#include "diagnose/diagnose.hpp"
#include "diagnose/render.hpp"
#include "instrument/instrumentor.hpp"
#include "report/analysis.hpp"
#include "report/cube_export.hpp"
#include "report/json_report.hpp"
#include "report/text_report.hpp"
#include "rt/real_runtime.hpp"
#include "rt/sim_runtime.hpp"
#include "ingest/client.hpp"
#include "snapshot/flusher.hpp"
#include "snapshot/merge.hpp"
#include "snapshot/snapshot.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/analysis.hpp"
#include "trace/chrome_export.hpp"
#include "trace/file.hpp"
#include "trace/recorder.hpp"
#include "whatif/render.hpp"
#include "whatif/validate.hpp"
#include "whatif/whatif.hpp"

using namespace taskprof;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s --kernel=NAME [options]\n"
      "       %s load FILE.tpsnap [--report=tree|cube|csv] [--check]\n"
      "       %s merge --out=OUT.tpsnap FILE.tpsnap [FILE.tpsnap ...]\n"
      "       taskprof_cli diagnose --kernel=NAME [run options]\n"
      "                             [--fail-on=SEV] [--json=FILE]\n"
      "       taskprof_cli diagnose FILE.tpsnap [--trace-file=FILE.tptrc]\n"
      "       taskprof_cli diagnose --trace-file=FILE.tptrc\n"
      "       taskprof_cli whatif --kernel=NAME [run options]\n"
      "                           [--whatif PATH=N ...] [--threads-list=...]\n"
      "                           [--json=FILE]\n"
      "       taskprof_cli whatif FILE.tpsnap --trace-file=FILE.tptrc\n"
      "       taskprof_cli whatif --trace-file=FILE.tptrc\n"
      "       taskprof_cli whatif-validate [--kernels=a,b] [--threads=2,4,8]\n"
      "                           [--optimize=25,50,90] [--size=test]\n"
      "                           [--tolerance=0.15] [--json=FILE]\n"
      "\n"
      "kernels: alignment fft fib floorplan health nqueens sort sparselu\n"
      "         strassen\n"
      "options:\n",
      argv0, argv0, argv0);
  std::printf(
      "  --engine=sim|real     virtual-time simulator (default) or real\n"
      "                        threads\n"
      "  --threads=N           team size (default 4)\n"
      "  --scheduler=chase_lev|mutex_deque|taskgraph   real-engine task\n"
      "                        scheduler (default chase_lev); taskgraph\n"
      "                        records the first run's task graph and\n"
      "                        replays later runs through a static\n"
      "                        schedule (use with --repeat)\n"
      "  --repeat=N            run the kernel N times on one runtime\n"
      "                        (default 1); with --scheduler=taskgraph\n"
      "                        run 1 records and runs 2..N replay\n"
      "  --size=test|small|medium   problem size (default small)\n"
      "  --cutoff              run the cut-off version (where available)\n"
      "  --untied              create tasks untied (simulator migrates them)\n"
      "  --depth-params        per-recursion-depth sub-trees (Table IV)\n"
      "  --seed=N              workload seed (default 42)\n"
      "  --report=summary|tree|csv|cube|findings|all   output format (default\n"
      "                        summary)\n"
      "  --trace               also record a trace; print the Section VII\n"
      "                        analyses and a timeline\n"
      "  --trace-out=FILE      record a trace and write it to FILE\n"
      "  --analyze-trace=FILE  post-mortem mode: load FILE (written by\n"
      "                        --trace-out) and print the analyses; no\n"
      "                        kernel runs\n"
      "  --telemetry           attach the scheduler-telemetry registry and\n"
      "                        print the telemetry section (steal rates,\n"
      "                        high-water marks, sampled hook overhead)\n"
      "  --telemetry-json=FILE write the telemetry snapshot as JSON\n"
      "  --chrome-trace=FILE   write a chrome://tracing / Perfetto timeline\n"
      "                        (implies --trace)\n"
      "  --snapshot-out=FILE   write a crash-safe .tpsnap profile snapshot\n"
      "                        (default <kernel>.tpsnap with\n"
      "                        --snapshot-every)\n"
      "  --topology=DxW[:flat] machine topology: D locality domains of W\n"
      "                        workers each (e.g. 2x4).  Steals prefer the\n"
      "                        thief's own domain and escalate to batched\n"
      "                        cross-domain steals; on the sim engine\n"
      "                        cross-domain work additionally pays the\n"
      "                        interconnect latency.  \":flat\" keeps the\n"
      "                        simulated machine but disables the\n"
      "                        hierarchical victim policy (A/B baseline)\n"
      "  --snapshot-every=MS   flush a partial snapshot every MS\n"
      "                        milliseconds during the run; the final flush\n"
      "                        replaces it with the complete profile\n"
      "  --ingest=SOCKET       stream every flush to a running taskprofd\n"
      "                        as a delta snapshot over the Unix socket\n"
      "                        (combine with --snapshot-every; without\n"
      "                        --snapshot-out no local file is written)\n"
      "  --report-json=FILE    write the profile analysis (construct stats,\n"
      "                        scheduling points, advisor findings) as JSON\n"
      "  --uninstrumented      run without measurement (timing baseline)\n"
      "\n"
      "diagnose runs the detrimental-pattern detectors (creation storm,\n"
      "serialized spawn chain, starved workers, granularity collapse,\n"
      "taskwait serialization, replay fallback) over a live run, a .tpsnap\n"
      "snapshot, and/or a recorded trace.  --fail-on=info|warning|problem\n"
      "exits 3 when a finding at or above that severity is present.\n"
      "\n"
      "whatif computes causal projections over a recorded trace: for each\n"
      "--whatif PATH=N hypothesis (\"call path PATH runs N%% faster\",\n"
      "N in (0,100]) it reports the new critical path, logical parallelism,\n"
      "and anticipated wall-clock speedup at each --threads-list count.\n"
      "Without targets it prints the ranked top-optimization-targets table\n"
      "(every path at N=50).  whatif needs a trace: a live --kernel run\n"
      "records one, or pass --trace-file; a .tpsnap alone is rejected with\n"
      "a no_trace error.  whatif-validate replays BOTS kernels on the sim\n"
      "engine with each hypothesis applied to the virtual task durations\n"
      "and gates |projected - simulated| / simulated per case (exit 3 on\n"
      "gate failure).\n");
}

struct CliOptions {
  std::string kernel;
  std::string engine = "sim";
  std::string scheduler = "chase_lev";
  std::string report = "summary";
  int repeat = 1;
  bots::KernelConfig config;
  bool instrumented = true;
  bool trace = false;
  bool telemetry = false;
  std::string trace_out;
  std::string analyze_trace;
  std::string telemetry_json;
  std::string chrome_trace;
  std::string report_json;
  std::string snapshot_out;
  std::string ingest_socket;
  std::uint64_t snapshot_every_ms = 0;
  std::string topology_spec;
};

/// Parses "--topology=DxW[:flat]" into a Topology.  The optional ":flat"
/// suffix keeps the simulated machine (domains, latencies) but selects
/// the flat victim policy — the A/B knob of bench_numa_scaling.
bool parse_topology_spec(const std::string& spec, rt::Topology& out) {
  std::string machine = spec;
  bool hierarchical = true;
  if (const auto colon = machine.rfind(":flat");
      colon != std::string::npos && colon == machine.size() - 5) {
    machine.resize(colon);
    hierarchical = false;
  }
  const auto parsed = rt::Topology::parse(machine);
  if (!parsed.has_value()) return false;
  out = *parsed;
  out.hierarchical = hierarchical;
  return true;
}

bool parse(int argc, char** argv, CliOptions& cli) {
  cli.config.threads = 4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--kernel=", 0) == 0) {
      cli.kernel = value_of("--kernel=");
    } else if (arg.rfind("--engine=", 0) == 0) {
      cli.engine = value_of("--engine=");
    } else if (arg.rfind("--scheduler=", 0) == 0) {
      cli.scheduler = value_of("--scheduler=");
    } else if (arg.rfind("--repeat=", 0) == 0) {
      cli.repeat = std::stoi(value_of("--repeat="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      cli.config.threads = std::stoi(value_of("--threads="));
    } else if (arg == "--size=test") {
      cli.config.size = bots::SizeClass::kTest;
    } else if (arg == "--size=small") {
      cli.config.size = bots::SizeClass::kSmall;
    } else if (arg == "--size=medium") {
      cli.config.size = bots::SizeClass::kMedium;
    } else if (arg == "--cutoff") {
      cli.config.cutoff = true;
    } else if (arg == "--untied") {
      cli.config.untied = true;
    } else if (arg == "--depth-params") {
      cli.config.depth_parameter = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      cli.config.seed = std::stoull(value_of("--seed="));
    } else if (arg.rfind("--report=", 0) == 0) {
      cli.report = value_of("--report=");
    } else if (arg == "--uninstrumented") {
      cli.instrumented = false;
    } else if (arg == "--trace") {
      cli.trace = true;
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      cli.trace = true;
      cli.trace_out = value_of("--trace-out=");
    } else if (arg.rfind("--analyze-trace=", 0) == 0) {
      cli.analyze_trace = value_of("--analyze-trace=");
    } else if (arg == "--telemetry") {
      cli.telemetry = true;
    } else if (arg.rfind("--telemetry-json=", 0) == 0) {
      cli.telemetry = true;
      cli.telemetry_json = value_of("--telemetry-json=");
    } else if (arg.rfind("--chrome-trace=", 0) == 0) {
      cli.trace = true;
      cli.chrome_trace = value_of("--chrome-trace=");
    } else if (arg.rfind("--report-json=", 0) == 0) {
      cli.report_json = value_of("--report-json=");
    } else if (arg.rfind("--snapshot-out=", 0) == 0) {
      cli.snapshot_out = value_of("--snapshot-out=");
    } else if (arg.rfind("--snapshot-every=", 0) == 0) {
      cli.snapshot_every_ms = std::stoull(value_of("--snapshot-every="));
    } else if (arg.rfind("--ingest=", 0) == 0) {
      cli.ingest_socket = value_of("--ingest=");
    } else if (arg.rfind("--topology=", 0) == 0) {
      cli.topology_spec = value_of("--topology=");
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  if (cli.kernel.empty() && cli.analyze_trace.empty()) {
    std::fprintf(stderr, "--kernel (or --analyze-trace) is required\n");
    return false;
  }
  if (cli.snapshot_every_ms > 0 && cli.snapshot_out.empty() &&
      cli.ingest_socket.empty()) {
    cli.snapshot_out = cli.kernel + ".tpsnap";
  }
  if (cli.repeat < 1) {
    std::fprintf(stderr, "--repeat must be >= 1\n");
    return false;
  }
  return true;
}

void print_summary(const bots::KernelResult& result,
                   const AggregateProfile& profile,
                   const RegionRegistry& registry) {
  std::printf("parallel span: %s | tasks executed: %s | steals: %llu | "
              "migrations: %llu\n",
              format_ticks(result.stats.parallel_ticks).c_str(),
              format_count(result.stats.tasks_executed).c_str(),
              static_cast<unsigned long long>(result.stats.steals),
              static_cast<unsigned long long>(result.stats.migrations));
  std::printf("self-check: %s (%s)\n", result.ok ? "passed" : "FAILED",
              result.check.c_str());
  TextTable table({"task construct", "instances", "mean", "min", "max",
                   "create mean", "taskwait"});
  for (const auto& c : task_construct_stats(profile, registry)) {
    std::string name = c.name;
    if (c.parameter != kNoParameter) {
      name += " [" + std::to_string(c.parameter) + "]";
    }
    table.add_row({name, format_count(c.instances),
                   format_ticks(static_cast<Ticks>(c.inclusive_mean)),
                   format_ticks(c.inclusive_min),
                   format_ticks(c.inclusive_max),
                   format_ticks(static_cast<Ticks>(c.create_mean)),
                   format_ticks(c.taskwait_total)});
  }
  std::fputs(table.str().c_str(), stdout);
  const auto summary = scheduling_point_summary(profile, registry);
  std::printf(
      "barriers: %s total, %s executing tasks, %s waiting/managing\n",
      format_ticks(summary.barrier_inclusive).c_str(),
      format_ticks(summary.barrier_stub_time).c_str(),
      format_ticks(summary.barrier_exclusive).c_str());
  std::printf("max concurrent task instances per thread: %zu\n",
              profile.max_concurrent_any_thread);
}

/// `taskprof_cli load FILE [--report=tree|cube|csv] [--check]`:
/// deserialize a .tpsnap and render it exactly like a live profile.
int cmd_load(int argc, char** argv) {
  std::string path;
  std::string report = "tree";
  bool check = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--report=", 0) == 0) {
      report = arg.substr(std::strlen("--report="));
    } else if (arg == "--check") {
      check = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "load takes exactly one file\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: taskprof_cli load FILE.tpsnap "
                 "[--report=tree|cube|csv] [--check]\n");
    return 2;
  }
  try {
    const snapshot::SnapshotData data = snapshot::read_snapshot_file(path);
    std::fprintf(stderr,
                 "loaded %s: flush %llu of process %llu, %zu regions, "
                 "%zu threads%s%s\n",
                 path.c_str(),
                 static_cast<unsigned long long>(data.meta.flush_seq),
                 static_cast<unsigned long long>(data.meta.process_id),
                 data.registry->size(), data.profile.thread_count,
                 data.profile.partial_capture ? ", partial capture" : "",
                 data.has_telemetry ? ", telemetry" : "");
    if (check) {
      const check::InvariantReport verdict = check::check_profile(
          data.profile, *data.registry, nullptr,
          data.has_telemetry ? &data.telemetry : nullptr);
      if (!verdict.ok()) {
        std::fprintf(stderr, "check_profile FAILED:\n%s\n",
                     verdict.to_string().c_str());
        return 1;
      }
      std::fprintf(stderr, "check_profile passed (%zu nodes)\n",
                   verdict.nodes_checked);
    }
    if (report == "tree") {
      std::fputs(render_profile(data.profile, *data.registry).c_str(),
                 stdout);
    } else if (report == "cube") {
      std::fputs(render_cube_xml(data.profile, *data.registry).c_str(),
                 stdout);
    } else if (report == "csv") {
      std::fputs(render_csv(data.profile, *data.registry).c_str(), stdout);
    } else {
      std::fprintf(stderr, "unknown report: %s\n", report.c_str());
      return 2;
    }
    if (data.has_telemetry) {
      std::fputs(render_telemetry(data.telemetry).c_str(), stdout);
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }
}

/// `taskprof_cli merge --out=OUT a.tpsnap b.tpsnap ...`: collate
/// per-process snapshots into one (registries unified, trees merged).
int cmd_merge(int argc, char** argv) {
  std::string out;
  std::vector<std::string> paths;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out = arg.substr(std::strlen("--out="));
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (out.empty() || paths.empty()) {
    std::fprintf(stderr, "usage: taskprof_cli merge --out=OUT.tpsnap "
                 "FILE.tpsnap [FILE.tpsnap ...]\n");
    return 2;
  }
  try {
    const snapshot::SnapshotData merged = snapshot::merge_snapshot_files(paths);
    snapshot::write_snapshot_file(out, merged);
    std::printf("merged %zu snapshots into %s (%zu regions, %zu threads%s)\n",
                paths.size(), out.c_str(), merged.registry->size(),
                merged.profile.thread_count,
                merged.profile.partial_capture ? ", partial capture" : "");
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }
}

/// `taskprof_cli diagnose ...`: run the detrimental-pattern detectors.
/// Three input modes, combinable where it makes sense:
///   --kernel=NAME        live run (trace + telemetry recorded implicitly)
///   FILE.tpsnap          post-mortem profile (+ telemetry if present)
///   --trace-file=FILE    recorded trace (alone, or alongside a .tpsnap)
int cmd_diagnose(int argc, char** argv) {
  std::string kernel_name;
  std::string engine = "sim";
  std::string scheduler = "chase_lev";
  std::string snapshot_path;
  std::string trace_path;
  std::string json_out;
  std::string chrome_out;
  std::string fail_on;
  int repeat = 1;
  bots::KernelConfig config;
  config.threads = 4;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--kernel=", 0) == 0) {
      kernel_name = value_of("--kernel=");
    } else if (arg.rfind("--engine=", 0) == 0) {
      engine = value_of("--engine=");
    } else if (arg.rfind("--scheduler=", 0) == 0) {
      scheduler = value_of("--scheduler=");
    } else if (arg.rfind("--repeat=", 0) == 0) {
      repeat = std::stoi(value_of("--repeat="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      config.threads = std::stoi(value_of("--threads="));
    } else if (arg == "--size=test") {
      config.size = bots::SizeClass::kTest;
    } else if (arg == "--size=small") {
      config.size = bots::SizeClass::kSmall;
    } else if (arg == "--size=medium") {
      config.size = bots::SizeClass::kMedium;
    } else if (arg == "--cutoff") {
      config.cutoff = true;
    } else if (arg == "--untied") {
      config.untied = true;
    } else if (arg == "--depth-params") {
      config.depth_parameter = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.seed = std::stoull(value_of("--seed="));
    } else if (arg.rfind("--trace-file=", 0) == 0) {
      trace_path = value_of("--trace-file=");
    } else if (arg.rfind("--json=", 0) == 0) {
      json_out = value_of("--json=");
    } else if (arg.rfind("--chrome-trace=", 0) == 0) {
      chrome_out = value_of("--chrome-trace=");
    } else if (arg.rfind("--fail-on=", 0) == 0) {
      fail_on = value_of("--fail-on=");
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    } else if (snapshot_path.empty()) {
      snapshot_path = arg;
    } else {
      std::fprintf(stderr, "diagnose takes at most one .tpsnap file\n");
      return 2;
    }
  }
  diag::Severity gate = diag::Severity::kProblem;
  if (!fail_on.empty() && !diag::parse_severity(fail_on, &gate)) {
    std::fprintf(stderr, "--fail-on must be info|warning|problem\n");
    return 2;
  }
  const bool live = !kernel_name.empty();
  if (!live && snapshot_path.empty() && trace_path.empty()) {
    std::fprintf(stderr, "diagnose needs --kernel=NAME, a .tpsnap file, "
                 "or --trace-file=FILE\n");
    return 2;
  }
  if (live && !snapshot_path.empty()) {
    std::fprintf(stderr, "diagnose: --kernel and a .tpsnap file are "
                 "mutually exclusive\n");
    return 2;
  }

  // Inputs must outlive run_diagnosis; declare all storage up front.
  RegionRegistry registry;
  AggregateProfile profile;
  snapshot::SnapshotData snap;
  trace::Trace recorded;
  telemetry::Snapshot telemetry_snapshot;
  diag::DiagnosisInput input;
  diag::DiagnosisReport report;

  try {
    if (live) {
      auto kernel = bots::make_kernel(kernel_name);
      if (kernel == nullptr) {
        std::fprintf(stderr, "unknown kernel: %s\n", kernel_name.c_str());
        return 2;
      }
      std::unique_ptr<rt::Runtime> runtime;
      if (engine == "sim") {
        runtime = std::make_unique<rt::SimRuntime>();
      } else if (engine == "real") {
        rt::RealConfig real_config;
        if (scheduler == "chase_lev") {
          real_config.scheduler = rt::SchedulerKind::kChaseLev;
        } else if (scheduler == "mutex_deque") {
          real_config.scheduler = rt::SchedulerKind::kMutexDeque;
        } else if (scheduler == "taskgraph") {
          real_config.scheduler = rt::SchedulerKind::kTaskGraph;
        } else {
          std::fprintf(stderr, "unknown scheduler: %s\n", scheduler.c_str());
          return 2;
        }
        runtime = std::make_unique<rt::RealRuntime>(real_config);
      } else {
        std::fprintf(stderr, "unknown engine: %s\n", engine.c_str());
        return 2;
      }
      // A diagnose run always records everything the detectors can use:
      // profile, trace, and telemetry.
      Instrumentor instrumentor(registry, MeasureOptions{});
      trace::TraceRecorder recorder;
      telemetry::Registry telem;
      rt::FanoutHooks fanout;
      fanout.add(&instrumentor);
      fanout.add(&recorder);
      telemetry::TimedHooks timed(&fanout, &telem);
      runtime->set_hooks(&timed);
      runtime->set_telemetry(&telem);
      bots::KernelResult result;
      for (int run = 0; run < repeat; ++run) {
        result = kernel->run(*runtime, registry, config);
        if (!result.ok) break;
      }
      runtime->set_hooks(nullptr);
      runtime->set_telemetry(nullptr);
      if (!result.ok) {
        std::fprintf(stderr, "kernel self-check FAILED: %s\n",
                     result.check.c_str());
        return 1;
      }
      instrumentor.finalize();
      profile = instrumentor.aggregate();
      recorded = recorder.take();
      telemetry_snapshot = telem.snapshot();
      input.profile = &profile;
      input.registry = &registry;
      input.trace = &recorded;
      input.telemetry = &telemetry_snapshot;
    } else if (!snapshot_path.empty()) {
      snap = snapshot::read_snapshot_file(snapshot_path);
      input.profile = &snap.profile;
      input.registry = snap.registry.get();
      if (snap.has_telemetry) input.telemetry = &snap.telemetry;
      if (!trace_path.empty()) {
        recorded = trace::read_trace_file(trace_path);
        input.trace = &recorded;
      }
    } else {
      // Trace only: region names are not stored in the trace file, so
      // run against a registry of generated names (same as
      // --analyze-trace).
      recorded = trace::read_trace_file(trace_path);
      RegionHandle max_region = 0;
      for (const auto& event : recorded.merged()) {
        if (event.region != kInvalidRegion) {
          max_region = std::max(max_region, event.region);
        }
      }
      for (RegionHandle r = 0; r <= max_region; ++r) {
        registry.register_region("region " + std::to_string(r),
                                 RegionType::kTask);
      }
      input.registry = &registry;
      input.trace = &recorded;
    }
    // Replaying a loaded trace rejects impossible histories typed.
    report = diag::run_diagnosis(input);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }

  {
    std::ostringstream os;
    diag::render_diagnosis_text(report, os);
    std::fputs(os.str().c_str(), stdout);
  }
  if (!json_out.empty()) {
    const std::string json = diag::render_diagnosis_json(report);
    std::FILE* f = std::fopen(json_out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("diagnosis JSON written to %s\n", json_out.c_str());
  }
  if (!chrome_out.empty() && input.trace != nullptr) {
    try {
      const std::vector<trace::TraceAnnotation> annotations =
          diag::diagnosis_annotations(report);
      trace::ChromeExportOptions chrome;
      chrome.registry = input.registry;
      chrome.telemetry = input.telemetry;
      chrome.annotations = &annotations;
      trace::write_chrome_trace(chrome_out, *input.trace, chrome);
      std::printf("chrome trace written to %s (diagnoses as instant "
                  "events)\n",
                  chrome_out.c_str());
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 1;
    }
  }
  if (!fail_on.empty() && report.count_at_least(gate) > 0) {
    std::fprintf(stderr, "diagnose: %zu finding(s) at or above %s\n",
                 report.count_at_least(gate), diag::severity_name(gate));
    return 3;
  }
  return 0;
}

/// Parse "2,4,8" into integers; returns false on any bad element.
bool parse_int_list(const std::string& text, std::vector<int>* out) {
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      out->push_back(std::stoi(item));
    } catch (const std::exception&) {
      return false;
    }
  }
  return !out->empty();
}

bool parse_double_list(const std::string& text, std::vector<double>* out) {
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      out->push_back(std::stod(item));
    } catch (const std::exception&) {
      return false;
    }
  }
  return !out->empty();
}

int report_whatif_error(const whatif::Error& error) {
  std::fprintf(stderr, "whatif: [%s] %s\n",
               whatif::error_code_name(error.code), error.message.c_str());
  return 2;
}

/// `taskprof_cli whatif ...`: causal what-if projections over a recorded
/// trace.  Input modes mirror diagnose, but a trace is mandatory (the
/// projection runs over reconstructed task lifetimes):
///   --kernel=NAME        live run, trace recorded implicitly
///   FILE.tpsnap --trace-file=FILE   snapshot registry + recorded trace
///   --trace-file=FILE    recorded trace with generated region names
int cmd_whatif(int argc, char** argv) {
  std::string kernel_name;
  std::string engine = "sim";
  std::string snapshot_path;
  std::string trace_path;
  std::string json_out;
  std::vector<std::string> specs;
  std::vector<int> thread_counts;
  double rank_percent = 50.0;
  bots::KernelConfig config;
  config.threads = 4;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--kernel=", 0) == 0) {
      kernel_name = value_of("--kernel=");
    } else if (arg.rfind("--engine=", 0) == 0) {
      engine = value_of("--engine=");
    } else if (arg.rfind("--threads=", 0) == 0) {
      config.threads = std::stoi(value_of("--threads="));
    } else if (arg.rfind("--threads-list=", 0) == 0) {
      if (!parse_int_list(value_of("--threads-list="), &thread_counts)) {
        std::fprintf(stderr, "--threads-list wants e.g. 2,4,8\n");
        return 2;
      }
    } else if (arg == "--size=test") {
      config.size = bots::SizeClass::kTest;
    } else if (arg == "--size=small") {
      config.size = bots::SizeClass::kSmall;
    } else if (arg == "--size=medium") {
      config.size = bots::SizeClass::kMedium;
    } else if (arg == "--cutoff") {
      config.cutoff = true;
    } else if (arg == "--untied") {
      config.untied = true;
    } else if (arg == "--depth-params") {
      config.depth_parameter = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.seed = std::stoull(value_of("--seed="));
    } else if (arg.rfind("--trace-file=", 0) == 0) {
      trace_path = value_of("--trace-file=");
    } else if (arg.rfind("--json=", 0) == 0) {
      json_out = value_of("--json=");
    } else if (arg.rfind("--rank-percent=", 0) == 0) {
      rank_percent = std::stod(value_of("--rank-percent="));
    } else if (arg.rfind("--whatif=", 0) == 0) {
      specs.push_back(value_of("--whatif="));
    } else if (arg == "--whatif" && i + 1 < argc) {
      specs.emplace_back(argv[++i]);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    } else if (snapshot_path.empty()) {
      snapshot_path = arg;
    } else {
      std::fprintf(stderr, "whatif takes at most one .tpsnap file\n");
      return 2;
    }
  }
  const bool live = !kernel_name.empty();
  if (!live && snapshot_path.empty() && trace_path.empty()) {
    std::fprintf(stderr, "whatif needs --kernel=NAME, a .tpsnap file with "
                 "--trace-file, or --trace-file=FILE\n");
    return 2;
  }
  if (live && !snapshot_path.empty()) {
    std::fprintf(stderr, "whatif: --kernel and a .tpsnap file are "
                 "mutually exclusive\n");
    return 2;
  }
  // Parse hypotheses before any (possibly slow) run so bad specs fail
  // fast with their typed error.
  std::vector<whatif::TargetSpec> targets;
  for (const std::string& spec : specs) {
    whatif::TargetSpec target;
    const whatif::Error parse_error = whatif::parse_target_spec(spec, &target);
    if (!parse_error.ok()) return report_whatif_error(parse_error);
    targets.push_back(std::move(target));
  }
  if (!(rank_percent > 0.0) || rank_percent > 100.0) {
    return report_whatif_error(
        {whatif::ErrorCode::kBadFraction,
         "--rank-percent must be in (0,100]"});
  }

  // Inputs must outlive the profile; declare all storage up front.
  RegionRegistry registry;
  snapshot::SnapshotData snap;
  trace::Trace recorded;
  trace::TraceAnalysis analysis;
  const RegionRegistry* names = &registry;

  try {
    if (live) {
      auto kernel = bots::make_kernel(kernel_name);
      if (kernel == nullptr) {
        std::fprintf(stderr, "unknown kernel: %s\n", kernel_name.c_str());
        return 2;
      }
      std::unique_ptr<rt::Runtime> runtime;
      if (engine == "sim") {
        runtime = std::make_unique<rt::SimRuntime>();
      } else if (engine == "real") {
        runtime = std::make_unique<rt::RealRuntime>();
      } else {
        std::fprintf(stderr, "unknown engine: %s\n", engine.c_str());
        return 2;
      }
      Instrumentor instrumentor(registry, MeasureOptions{});
      trace::TraceRecorder recorder;
      rt::FanoutHooks fanout;
      fanout.add(&instrumentor);
      fanout.add(&recorder);
      runtime->set_hooks(&fanout);
      const bots::KernelResult result =
          kernel->run(*runtime, registry, config);
      runtime->set_hooks(nullptr);
      if (!result.ok) {
        std::fprintf(stderr, "kernel self-check FAILED: %s\n",
                     result.check.c_str());
        return 1;
      }
      instrumentor.finalize();
      recorded = recorder.take();
    } else if (!snapshot_path.empty()) {
      snap = snapshot::read_snapshot_file(snapshot_path);
      names = snap.registry.get();
      if (trace_path.empty()) {
        // The projection needs task lifetimes; a profile snapshot alone
        // cannot provide them.
        return report_whatif_error(
            {whatif::ErrorCode::kNoTrace,
             "snapshot input '" + snapshot_path +
                 "' carries no trace; record one with --trace-out and pass "
                 "--trace-file=FILE.tptrc"});
      }
      recorded = trace::read_trace_file(trace_path);
    } else {
      // Trace only: generated region names (names are not in the file).
      recorded = trace::read_trace_file(trace_path);
      RegionHandle max_region = 0;
      for (const auto& event : recorded.merged()) {
        if (event.region != kInvalidRegion) {
          max_region = std::max(max_region, event.region);
        }
      }
      for (RegionHandle r = 0; r <= max_region; ++r) {
        registry.register_region("region " + std::to_string(r),
                                 RegionType::kTask);
      }
    }
    // Replaying a loaded trace rejects impossible histories typed.
    analysis = trace::analyze_trace(recorded);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }

  whatif::WhatIfProfile profile;
  const whatif::Error build_error =
      whatif::WhatIfProfile::build(recorded, analysis, *names, &profile);
  if (!build_error.ok()) return report_whatif_error(build_error);

  whatif::Report report;
  report.summarize(profile);
  report.rank_fraction = rank_percent / 100.0;
  for (const whatif::TargetSpec& target : targets) {
    std::vector<std::size_t> indices;
    const whatif::Error resolve_error =
        profile.resolve(target.path, &indices);
    if (!resolve_error.ok()) return report_whatif_error(resolve_error);
    report.projections.push_back(
        profile.project(indices, target.fraction, thread_counts));
  }
  if (targets.empty()) {
    report.top_targets =
        profile.rank_targets(report.rank_fraction, thread_counts);
  }

  {
    std::ostringstream os;
    whatif::render_whatif_text(report, os);
    std::fputs(os.str().c_str(), stdout);
  }
  if (!json_out.empty()) {
    const std::string json = whatif::render_whatif_json(report);
    std::FILE* f = std::fopen(json_out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("whatif JSON written to %s\n", json_out.c_str());
  }
  return 0;
}

/// `taskprof_cli whatif-validate ...`: run the analytical-vs-sim-replay
/// tolerance gate over the BOTS matrix.  Exit 3 when any case misses the
/// tolerance (or changes program structure).
int cmd_whatif_validate(int argc, char** argv) {
  whatif::ValidateOptions options;
  std::string json_out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg.rfind("--kernels=", 0) == 0) {
      std::stringstream ss(value_of("--kernels="));
      std::string item;
      options.kernels.clear();
      while (std::getline(ss, item, ',')) options.kernels.push_back(item);
    } else if (arg.rfind("--threads=", 0) == 0) {
      options.threads.clear();
      if (!parse_int_list(value_of("--threads="), &options.threads)) {
        std::fprintf(stderr, "--threads wants e.g. 2,4,8\n");
        return 2;
      }
    } else if (arg.rfind("--optimize=", 0) == 0) {
      std::vector<double> percents;
      if (!parse_double_list(value_of("--optimize="), &percents)) {
        std::fprintf(stderr, "--optimize wants percents, e.g. 25,50,90\n");
        return 2;
      }
      options.fractions.clear();
      for (const double percent : percents) {
        if (!(percent > 0.0) || percent > 100.0) {
          return report_whatif_error(
              {whatif::ErrorCode::kBadFraction,
               "--optimize percents must be in (0,100]"});
        }
        options.fractions.push_back(percent / 100.0);
      }
    } else if (arg == "--size=test") {
      options.size = bots::SizeClass::kTest;
    } else if (arg == "--size=small") {
      options.size = bots::SizeClass::kSmall;
    } else if (arg == "--size=medium") {
      options.size = bots::SizeClass::kMedium;
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      options.tolerance = std::stod(value_of("--tolerance="));
    } else if (arg.rfind("--json=", 0) == 0) {
      json_out = value_of("--json=");
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }

  whatif::Error error;
  const whatif::ValidateReport report =
      whatif::run_validation(options, &error);
  if (!error.ok()) return report_whatif_error(error);

  {
    std::ostringstream os;
    whatif::render_validate_text(report, os);
    std::fputs(os.str().c_str(), stdout);
  }
  if (!json_out.empty()) {
    const std::string json = whatif::render_validate_json(report);
    std::FILE* f = std::fopen(json_out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_out.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("validation JSON written to %s\n", json_out.c_str());
  }
  return report.all_within() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "load") == 0) {
    return cmd_load(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "merge") == 0) {
    return cmd_merge(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "diagnose") == 0) {
    return cmd_diagnose(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "whatif") == 0) {
    return cmd_whatif(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "whatif-validate") == 0) {
    return cmd_whatif_validate(argc, argv);
  }
  CliOptions cli;
  if (!parse(argc, argv, cli)) {
    usage(argv[0]);
    return 2;
  }

  // Post-mortem mode: analyze a previously recorded trace file.
  if (!cli.analyze_trace.empty()) {
    try {
      const trace::Trace loaded = trace::read_trace_file(cli.analyze_trace);
      std::printf("loaded %zu events from %zu threads\n",
                  loaded.event_count(), loaded.thread_count());
      // Region names are not stored in the trace file; analyses that need
      // them use a registry with generated names.
      RegionRegistry names;
      RegionHandle max_region = 0;
      for (const auto& event : loaded.merged()) {
        if (event.region != kInvalidRegion) {
          max_region = std::max(max_region, event.region);
        }
      }
      for (RegionHandle r = 0; r <= max_region; ++r) {
        names.register_region("region " + std::to_string(r),
                              RegionType::kTask);
      }
      const trace::TraceAnalysis analysis = trace::analyze_trace(loaded);
      std::fputs(trace::render_analysis(analysis, names).c_str(), stdout);
      std::fputs(trace::render_timeline(loaded).c_str(), stdout);
      return 0;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "%s\n", error.what());
      return 1;
    }
  }

  auto kernel = bots::make_kernel(cli.kernel);
  if (kernel == nullptr) {
    std::fprintf(stderr, "unknown kernel: %s\n", cli.kernel.c_str());
    return 2;
  }

  rt::Topology topology;
  if (!cli.topology_spec.empty() &&
      !parse_topology_spec(cli.topology_spec, topology)) {
    std::fprintf(stderr, "bad --topology spec: %s (want DxW, e.g. 4x16)\n",
                 cli.topology_spec.c_str());
    return 2;
  }

  std::unique_ptr<rt::Runtime> runtime;
  rt::RealRuntime* real_runtime = nullptr;
  if (cli.engine == "sim") {
    if (cli.scheduler != "chase_lev") {
      std::fprintf(stderr, "--scheduler applies to --engine=real only\n");
      return 2;
    }
    rt::SimConfig sim_config;
    sim_config.topology = topology;
    runtime = std::make_unique<rt::SimRuntime>(sim_config);
  } else if (cli.engine == "real") {
    rt::RealConfig config;
    config.topology = topology;
    if (cli.scheduler == "chase_lev") {
      config.scheduler = rt::SchedulerKind::kChaseLev;
    } else if (cli.scheduler == "mutex_deque") {
      config.scheduler = rt::SchedulerKind::kMutexDeque;
    } else if (cli.scheduler == "taskgraph") {
      config.scheduler = rt::SchedulerKind::kTaskGraph;
    } else {
      std::fprintf(stderr, "unknown scheduler: %s\n", cli.scheduler.c_str());
      return 2;
    }
    auto real = std::make_unique<rt::RealRuntime>(config);
    real_runtime = real.get();
    runtime = std::move(real);
  } else {
    std::fprintf(stderr, "unknown engine: %s\n", cli.engine.c_str());
    return 2;
  }

  RegionRegistry registry;
  std::unique_ptr<Instrumentor> instrumentor;
  std::unique_ptr<trace::TraceRecorder> recorder;
  std::unique_ptr<telemetry::Registry> telem;
  std::unique_ptr<telemetry::TimedHooks> timed;
  rt::FanoutHooks fanout;
  if (cli.instrumented) {
    MeasureOptions measure;
    if (!cli.snapshot_out.empty() || !cli.ingest_socket.empty()) {
      // Non-zero arms the capture handshake in every profiler's event
      // path; the actual cadence lives in the flusher.
      measure.snapshot_every = static_cast<Ticks>(
          cli.snapshot_every_ms > 0 ? cli.snapshot_every_ms * 1'000'000 : 1);
    }
    try {
      instrumentor = std::make_unique<Instrumentor>(registry, measure);
    } catch (const std::exception& error) {
      // Armed snapshots need membarrier(2), which a kernel may refuse.
      std::fprintf(stderr, "%s\n", error.what());
      return 1;
    }
    fanout.add(instrumentor.get());
  }
  if (cli.trace) {
    recorder = std::make_unique<trace::TraceRecorder>();
    fanout.add(recorder.get());
  }
  if (cli.telemetry) telem = std::make_unique<telemetry::Registry>();
  if (cli.instrumented || cli.trace) {
    // With telemetry on, the timing decorator sits between the engine and
    // the measurement hooks so their cost lands in the telemetry too.
    if (telem != nullptr) {
      timed = std::make_unique<telemetry::TimedHooks>(&fanout, telem.get());
      runtime->set_hooks(timed.get());
    } else {
      runtime->set_hooks(&fanout);
    }
  }
  if (telem != nullptr) runtime->set_telemetry(telem.get());
  std::unique_ptr<snapshot::SnapshotFlusher> flusher;
  std::unique_ptr<ingest::IngestFlushSink> ingest_sink;
  if (instrumentor != nullptr &&
      (!cli.snapshot_out.empty() || !cli.ingest_socket.empty())) {
    snapshot::FlusherOptions flush_options;
    flush_options.path = cli.snapshot_out;
    flush_options.interval =
        static_cast<Ticks>(cli.snapshot_every_ms) * 1'000'000;
    flush_options.telemetry = telem.get();
    if (!cli.ingest_socket.empty()) {
      ingest::ClientOptions client_options;
      client_options.socket_path = cli.ingest_socket;
      client_options.producer_name = cli.kernel;
      ingest_sink =
          std::make_unique<ingest::IngestFlushSink>(std::move(client_options));
      flush_options.sink = ingest_sink.get();
      // Fleet producers de-synchronize their flush cadence.
      flush_options.jitter_fraction = 0.1;
    }
    flusher = std::make_unique<snapshot::SnapshotFlusher>(
        *instrumentor, registry, std::move(flush_options));
    snapshot::install_crash_flush(flusher.get());
    flusher->start();
  }
  // --repeat runs the kernel on one runtime/registry/instrumentor: the
  // profile aggregates across runs (RegionRegistry dedupes identical
  // re-registrations), and with --scheduler=taskgraph run 1 records the
  // task graph while runs 2..N replay it through the static schedule.
  bots::KernelResult result;
  for (int run = 0; run < cli.repeat; ++run) {
    result = kernel->run(*runtime, registry, cli.config);
    if (!result.ok) break;
  }
  runtime->set_hooks(nullptr);
  runtime->set_telemetry(nullptr);
  if (real_runtime != nullptr && cli.scheduler == "taskgraph") {
    if (real_runtime->taskgraph_stale()) {
      std::printf("taskgraph: %zu nodes recorded, %d replay run(s), "
                  "diverged (fell back to chase_lev; cause: %s)\n",
                  real_runtime->taskgraph_size(),
                  cli.repeat > 1 ? cli.repeat - 1 : 0,
                  rt::scheduler_note_name(
                      real_runtime->taskgraph_fallback_reason()));
    } else {
      std::printf("taskgraph: %zu nodes recorded, %d replay run(s), "
                  "shape stable\n",
                  real_runtime->taskgraph_size(),
                  cli.repeat > 1 ? cli.repeat - 1 : 0);
    }
  }
  if (flusher != nullptr) flusher->stop();

  telemetry::Snapshot telemetry_snapshot;
  if (telem != nullptr) telemetry_snapshot = telem->snapshot();

  if (cli.trace) {
    const trace::Trace recorded = recorder->take();
    std::printf("--- trace: %zu events ---\n", recorded.event_count());
    if (!cli.trace_out.empty()) {
      try {
        trace::write_trace_file(cli.trace_out, recorded);
        std::printf("trace written to %s\n", cli.trace_out.c_str());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
      }
    }
    if (!cli.chrome_trace.empty()) {
      try {
        trace::ChromeExportOptions chrome;
        chrome.registry = &registry;
        chrome.telemetry = telem != nullptr ? &telemetry_snapshot : nullptr;
        trace::write_chrome_trace(cli.chrome_trace, recorded, chrome);
        std::printf("chrome trace written to %s (open in ui.perfetto.dev)\n",
                    cli.chrome_trace.c_str());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
      }
    }
    const trace::TraceAnalysis analysis = trace::analyze_trace(recorded);
    std::fputs(trace::render_analysis(analysis, registry).c_str(), stdout);
    // Ranked what-if targets: which construct to optimize first, and the
    // projected payoff if it ran 50% faster.
    whatif::WhatIfProfile whatif_profile;
    if (whatif::WhatIfProfile::build(recorded, analysis, registry,
                                     &whatif_profile)
            .ok()) {
      whatif::Report whatif_report;
      whatif_report.summarize(whatif_profile);
      whatif_report.top_targets =
          whatif_profile.rank_targets(whatif_report.rank_fraction, {});
      std::ostringstream os;
      whatif::render_top_targets_text(whatif_report, 5, os);
      std::fputs(os.str().c_str(), stdout);
    }
    std::fputs(trace::render_timeline(recorded).c_str(), stdout);
  }

  if (telem != nullptr) {
    std::fputs(render_telemetry(telemetry_snapshot).c_str(), stdout);
    if (!cli.telemetry_json.empty()) {
      std::FILE* f = std::fopen(cli.telemetry_json.c_str(), "wb");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", cli.telemetry_json.c_str());
        return 1;
      }
      const std::string json = telemetry::snapshot_to_json(telemetry_snapshot);
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
      std::printf("telemetry snapshot written to %s\n",
                  cli.telemetry_json.c_str());
    }
  }

  if (!cli.instrumented) {
    std::printf("parallel span: %s | tasks executed: %s | self-check: %s\n",
                format_ticks(result.stats.parallel_ticks).c_str(),
                format_count(result.stats.tasks_executed).c_str(),
                result.ok ? "passed" : "FAILED");
    return result.ok ? 0 : 1;
  }
  instrumentor->finalize();
  const AggregateProfile profile = instrumentor->aggregate();
  if (flusher != nullptr) {
    if (flusher->flush_final()) {
      if (!cli.snapshot_out.empty()) {
        std::printf("snapshot written to %s (%llu flushes)\n",
                    cli.snapshot_out.c_str(),
                    static_cast<unsigned long long>(flusher->flush_count()));
      }
    } else {
      std::fprintf(stderr, "snapshot write failed: %s\n",
                   flusher->last_error().c_str());
    }
    if (ingest_sink != nullptr) {
      std::printf("ingest: streamed %llu snapshot(s) to %s "
                  "(%llu rebase(s))\n",
                  static_cast<unsigned long long>(
                      ingest_sink->client().total_sends()),
                  cli.ingest_socket.c_str(),
                  static_cast<unsigned long long>(
                      ingest_sink->client().total_rebases()));
    }
    snapshot::install_crash_flush(nullptr);
  }

  if (cli.report == "summary" || cli.report == "all") {
    print_summary(result, profile, registry);
  }
  if (cli.report == "tree" || cli.report == "all") {
    std::fputs(render_profile(profile, registry).c_str(), stdout);
  }
  if (cli.report == "cube") {
    std::fputs(render_cube_xml(profile, registry).c_str(), stdout);
  }
  if (cli.report == "csv") {
    std::fputs(render_csv(profile, registry).c_str(), stdout);
  }
  if (cli.report == "findings" || cli.report == "all") {
    std::fputs(render_findings(diagnose(profile, registry)).c_str(), stdout);
  }
  if (!cli.report_json.empty()) {
    const std::string json = render_report_json(profile, registry);
    std::FILE* f = std::fopen(cli.report_json.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", cli.report_json.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("report JSON written to %s\n", cli.report_json.c_str());
  }
  return result.ok ? 0 : 1;
}

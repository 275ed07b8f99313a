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
//
// The command line is one option table (kOptions below; see
// common/cli_options.hpp).  `taskprof_cli [COMMAND] --help` prints a
// command's options with their ranges and defaults, and a bad value exits
// 2 before any work starts.  The run, diagnose and whatif commands share
// the live-run options and one make_runtime.
#include <cstdio>
#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bots/kernel.hpp"
#include "check/invariants.hpp"
#include "common/cli_options.hpp"
#include "common/format.hpp"
#include "common/write_file.hpp"
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

using cli::Kind;

enum Command : unsigned { kRun, kLoad, kMerge, kDiagnose, kWhatif, kValidate };

constexpr std::uint32_t bit(Command command) { return 1u << command; }
constexpr std::uint32_t kRunOnly = bit(kRun);
/// The commands that can run a kernel live ...
constexpr std::uint32_t kLive = bit(kRun) | bit(kDiagnose) | bit(kWhatif);
/// ... and those that also run it repeatedly, on any scheduler.
constexpr std::uint32_t kRepeated = bit(kRun) | bit(kDiagnose);
/// Team sizes: the bound the benches' --max-workers has.
constexpr double kMaxThreads = 1024;

constexpr cli::Command kCommands[] = {
    {.about = "Run a BOTS kernel and print its profile, or analyze a recorded "
              "trace."},
    {.name = "load", .about = "Render a .tpsnap snapshot like a live profile.",
     .files = "FILE.tpsnap", .min_files = 1, .max_files = 1},
    {.name = "merge", .about = "Collate per-process snapshots into one.",
     .files = "FILE.tpsnap", .min_files = 1, .max_files = cli::kAnyCount},
    {.name = "diagnose",
     .about = "Run the detrimental-pattern detectors over a live run, a "
              ".tpsnap\nsnapshot and/or a recorded trace.",
     .files = "FILE.tpsnap", .max_files = 1},
    {.name = "whatif",
     .about = "Project what-if speedups over a recorded trace (live, or "
              "--trace-file;\na .tpsnap only names its regions).",
     .files = "FILE.tpsnap", .max_files = 1},
    {.name = "whatif-validate",
     .about = "Check the projections against sim replays of the BOTS "
              "kernels\n(exit 3 when a case misses its tolerance)."},
};

constexpr cli::Option kOptions[] = {
    {.name = "--kernel", .kind = Kind::kChoice, .help = "BOTS kernel to run",
     .values = bots::kKernelChoices, .commands = kLive},
    {.name = "--engine", .kind = Kind::kChoice,
     .help = "virtual-time simulator or real threads", .fallback = "sim",
     .values = "sim|real", .commands = kLive},
    {.name = "--scheduler", .kind = Kind::kChoice,
     .help = "real-engine task scheduler; taskgraph records run 1 and "
             "replays\nruns 2..N through a static schedule",
     .fallback = "chase_lev", .values = "chase_lev|taskgraph",
     .commands = kRepeated},
    {.name = "--repeat", .kind = Kind::kInt,
     .help = "run the kernel this many times on one runtime", .fallback = "1",
     .min = 1, .commands = kRepeated},
    {.name = "--threads", .kind = Kind::kInt, .help = "team size",
     .fallback = "4", .min = 1, .max = kMaxThreads, .commands = kLive},
    {.name = "--size", .kind = Kind::kChoice, .help = "problem size",
     .fallback = "small", .values = "test|small|medium", .commands = kLive},
    {.name = "--cutoff", .help = "run the cut-off version, where there is one",
     .commands = kLive},
    {.name = "--untied",
     .help = "create tasks untied (the simulator migrates them)",
     .commands = kLive},
    {.name = "--depth-params",
     .help = "per-recursion-depth sub-trees (Table IV)", .commands = kLive},
    {.name = "--seed", .kind = Kind::kU64, .help = "workload seed",
     .fallback = "42", .commands = kLive},
    {.name = "--topology", .kind = Kind::kString,
     .help = "D locality domains of W workers (e.g. 2x4); :flat keeps the "
             "flat\nvictim policy on that machine",
     .values = "DxW[:flat]", .commands = kRunOnly},
    {.name = "--report", .kind = Kind::kChoice, .help = "output format",
     .fallback = "summary", .values = "summary|tree|csv|cube|findings|all",
     .commands = kRunOnly},
    {.name = "--uninstrumented", .help = "run without measurement",
     .commands = kRunOnly},
    {.name = "--trace", .help = "record a trace; print its analyses and a "
                                "timeline",
     .commands = kRunOnly},
    {.name = "--trace-out", .kind = Kind::kString,
     .help = "record a trace into FILE", .values = "FILE",
     .commands = kRunOnly},
    {.name = "--analyze-trace", .kind = Kind::kString,
     .help = "analyze a trace from --trace-out; no kernel runs",
     .values = "FILE", .commands = kRunOnly},
    {.name = "--telemetry", .help = "attach and print scheduler telemetry",
     .commands = kRunOnly},
    {.name = "--telemetry-json", .kind = Kind::kString,
     .help = "write the telemetry as JSON", .values = "FILE",
     .commands = kRunOnly},
    {.name = "--chrome-trace", .kind = Kind::kString,
     .help = "write a chrome://tracing / Perfetto timeline", .values = "FILE",
     .commands = bit(kRun) | bit(kDiagnose)},
    {.name = "--snapshot-out", .kind = Kind::kString,
     .help = "write a crash-safe .tpsnap snapshot", .values = "FILE",
     .commands = kRunOnly},
    {.name = "--snapshot-every", .kind = Kind::kU64,
     .help = "flush a partial snapshot every U64 ms (to --snapshot-out, "
             "else\n<kernel>.tpsnap); the final flush completes it",
     .fallback = "0", .min = 0,
     .max = 9223372036854.0,  // ms * 10^6 fits in Ticks (int64)
     .commands = kRunOnly},
    {.name = "--ingest", .kind = Kind::kString,
     .help = "stream every flush to the taskprofd on SOCKET",
     .values = "SOCKET",
     .commands = kRunOnly},
    {.name = "--report-json", .kind = Kind::kString,
     .help = "write the profile analysis as JSON", .values = "FILE",
     .commands = kRunOnly},
    {.name = "--report", .kind = Kind::kChoice, .help = "output format",
     .fallback = "tree", .values = "tree|cube|csv", .commands = bit(kLoad)},
    {.name = "--check", .help = "check the profile's invariants first",
     .commands = bit(kLoad)},
    {.name = "--out", .kind = Kind::kString, .help = "write the merge to FILE",
     .values = "FILE", .required = true, .commands = bit(kMerge)},
    {.name = "--trace-file", .kind = Kind::kString,
     .help = "a trace written by --trace-out", .values = "FILE",
     .commands = bit(kDiagnose) | bit(kWhatif)},
    {.name = "--json", .kind = Kind::kString,
     .help = "also write the report as JSON", .values = "FILE",
     .commands = bit(kDiagnose) | bit(kWhatif) | bit(kValidate)},
    {.name = "--fail-on", .kind = Kind::kChoice,
     .help = "exit 3 on a finding of this severity or worse",
     .values = "info|warning|problem", .commands = bit(kDiagnose)},
    {.name = "--whatif", .kind = Kind::kString,
     .help = "hypothesis: call path PATH runs N% faster, N in (0, 100]",
     .values = "PATH=N", .repeatable = true, .commands = bit(kWhatif)},
    {.name = "--threads-list", .kind = Kind::kInt,
     .help = "team sizes to project to",
     .min = 1, .max = kMaxThreads, .list = true, .commands = bit(kWhatif)},
    {.name = "--rank-percent", .kind = Kind::kReal,
     .help = "speedup assumed to rank the targets", .fallback = "50", .min = 0,
     .max = 100, .min_open = true, .commands = bit(kWhatif)},
    {.name = "--kernels", .kind = Kind::kChoice,
     .help = "kernels to validate (all nine when absent)",
     .values = bots::kKernelChoices, .list = true, .commands = bit(kValidate)},
    {.name = "--threads", .kind = Kind::kInt, .help = "team sizes",
     .fallback = "2,4,8", .min = 1, .max = kMaxThreads, .list = true,
     .commands = bit(kValidate)},
    {.name = "--optimize", .kind = Kind::kReal,
     .help = "hypothetical speedups, in percent",
     .fallback = "25,50,90", .min = 0, .max = 100, .min_open = true,
     .list = true, .commands = bit(kValidate)},
    {.name = "--size", .kind = Kind::kChoice, .help = "problem size",
     .fallback = "test", .values = "test|small|medium",
     .commands = bit(kValidate)},
    {.name = "--tolerance", .kind = Kind::kReal,
     .help = "gate on |projected - simulated| / simulated", .fallback = "0.15",
     .min = 0, .min_open = true, .commands = bit(kValidate)},
};

constexpr cli::Table kTable{kCommands, kOptions};

/// The engine --engine, --scheduler and --topology ask for; `real` gets
/// the real engine, if that is the one.  Exits 2 on a combination the
/// table cannot rule out.
std::unique_ptr<rt::Runtime> make_runtime(const cli::Args& args,
                                          rt::RealRuntime** real = nullptr) {
  rt::Topology topology;
  if (const std::string& spec = args.text("--topology"); !spec.empty()) {
    // The ":flat" suffix keeps the simulated machine (domains, latencies)
    // but selects the flat victim policy: bench_numa_scaling's A/B knob.
    const bool flat = spec.ends_with(":flat");
    const auto parsed = rt::Topology::parse(
        std::string_view(spec).substr(0, spec.size() - (flat ? 5 : 0)));
    if (!parsed.has_value()) {
      cli::usage_error("--topology",
                       "'" + spec + "' is not DxW[:flat] (e.g. 4x16)");
    }
    topology = *parsed;
    topology.hierarchical = !flat;
  }
  const std::string& scheduler = args.text("--scheduler");
  if (args.text("--engine") == "sim") {
    if (scheduler != "chase_lev") {
      cli::usage_error("--scheduler", "applies to --engine=real only");
    }
    rt::SimConfig config;
    config.topology = topology;
    return std::make_unique<rt::SimRuntime>(config);
  }
  rt::RealConfig config;
  config.topology = topology;
  config.scheduler = scheduler == "taskgraph" ? rt::SchedulerKind::kTaskGraph
                                              : rt::SchedulerKind::kChaseLev;
  auto runtime = std::make_unique<rt::RealRuntime>(config);
  if (real != nullptr) *real = runtime.get();
  return runtime;
}

/// Runs --kernel --repeat times on one runtime and registry, stopping at
/// the first failed self-check.  The profile aggregates across runs
/// (RegionRegistry dedupes identical re-registrations), and with
/// --scheduler=taskgraph run 1 records the task graph while runs 2..N
/// replay it through the static schedule.
bots::KernelResult run_kernel(const cli::Args& args, rt::Runtime& runtime,
                              RegionRegistry& registry) {
  const auto kernel = bots::make_kernel(args.text("--kernel"));
  bots::KernelConfig config;
  config.threads = args.integer("--threads");
  config.size = *bots::parse_size(args.text("--size"));
  config.cutoff = args.flag("--cutoff");
  config.untied = args.flag("--untied");
  config.depth_parameter = args.flag("--depth-params");
  config.seed = args.u64("--seed");
  bots::KernelResult result;
  for (int run = 0; run < args.integer("--repeat"); ++run) {
    result = kernel->run(runtime, registry, config);
    if (!result.ok) break;
  }
  return result;
}

/// Trace files carry no region names: register "region N" for every
/// region `trace` mentions, for the analyses that print names.
void register_generated_names(const trace::Trace& trace,
                              RegionRegistry* registry) {
  RegionHandle max_region = 0;
  for (const auto& event : trace.merged()) {
    if (event.region != kInvalidRegion) {
      max_region = std::max(max_region, event.region);
    }
  }
  for (RegionHandle r = 0; r <= max_region; ++r) {
    registry->register_region("region " + std::to_string(r),
                              RegionType::kTask);
  }
}

/// The listeners of a live run, each optional: the profiler, a trace
/// recorder and the scheduler telemetry.  The runtime holds their
/// addresses, so they do not move.
struct Listeners {
  Listeners() = default;
  Listeners(const Listeners&) = delete;
  Listeners& operator=(const Listeners&) = delete;

  std::unique_ptr<Instrumentor> instrumentor;
  std::unique_ptr<trace::TraceRecorder> recorder;
  std::unique_ptr<telemetry::Registry> telemetry;
  std::unique_ptr<telemetry::TimedHooks> timed;
  rt::FanoutHooks fanout;

  /// With telemetry on, the timing decorator sits between the engine and
  /// the measurement hooks so their cost lands in the telemetry too.
  void attach(rt::Runtime& runtime) {
    if (instrumentor != nullptr) fanout.add(instrumentor.get());
    if (recorder != nullptr) fanout.add(recorder.get());
    if (instrumentor != nullptr || recorder != nullptr) {
      rt::SchedulerHooks* hooks = &fanout;
      if (telemetry != nullptr) {
        timed = std::make_unique<telemetry::TimedHooks>(&fanout,
                                                        telemetry.get());
        hooks = timed.get();
      }
      runtime.set_hooks(hooks);
    }
    if (telemetry != nullptr) runtime.set_telemetry(telemetry.get());
  }
};

/// Writes `bytes` to `path` (throwing when it cannot) and says so.
void write_output(const std::string& path, const std::string& bytes,
                  const char* what) {
  write_file(path, bytes);
  std::printf("%s written to %s\n", what, path.c_str());
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
int cmd_load(const cli::Args& args) {
  const std::string& path = args.files.front();
  const std::string& report = args.text("--report");
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
  if (args.flag("--check")) {
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
  const std::string rendered =
      report == "tree"   ? render_profile(data.profile, *data.registry)
      : report == "cube" ? render_cube_xml(data.profile, *data.registry)
                         : render_csv(data.profile, *data.registry);
  std::fputs(rendered.c_str(), stdout);
  if (data.has_telemetry) {
    std::fputs(render_telemetry(data.telemetry).c_str(), stdout);
  }
  return 0;
}

/// `taskprof_cli merge --out=OUT a.tpsnap b.tpsnap ...`: collate
/// per-process snapshots into one (registries unified, trees merged).
int cmd_merge(const cli::Args& args) {
  const std::string& out = args.text("--out");
  const snapshot::SnapshotData merged =
      snapshot::merge_snapshot_files(args.files);
  snapshot::write_snapshot_file(out, merged);
  std::printf("merged %zu snapshots into %s (%zu regions, %zu threads%s)\n",
              args.files.size(), out.c_str(), merged.registry->size(),
              merged.profile.thread_count,
              merged.profile.partial_capture ? ", partial capture" : "");
  return 0;
}

/// The input of diagnose and whatif: a live run (--kernel), a .tpsnap
/// file and/or a recorded trace (--trace-file).  `view` points into the
/// storage that the mode filled.
struct Inputs {
  RegionRegistry registry;  ///< live run, or names generated for a trace
  snapshot::SnapshotData snap;
  AggregateProfile profile;
  trace::Trace trace;
  telemetry::Snapshot telemetry;
  diag::DiagnosisInput view;
};

/// Exits 2 unless the options name an input, and at most one of --kernel
/// and a .tpsnap file.
void check_inputs(const cli::Args& args, const char* command,
                  const char* needs) {
  if (!args.given("--kernel") && args.files.empty() &&
      !args.given("--trace-file")) {
    cli::usage_error(args.program + " " + command, needs);
  }
  if (args.given("--kernel") && !args.files.empty()) {
    cli::usage_error("--kernel", "and a .tpsnap file are mutually exclusive");
  }
}

/// Fills `in` from the inputs the options name.  A live run records the
/// profile and a trace, plus, with `with_telemetry`, the scheduler
/// telemetry behind TimedHooks.  Returns false after reporting a failed
/// kernel self-check; throws when a file cannot be read.
bool load_inputs(const cli::Args& args, bool with_telemetry, Inputs* in) {
  if (args.given("--kernel")) {
    const std::unique_ptr<rt::Runtime> runtime = make_runtime(args);
    Listeners on;
    on.instrumentor =
        std::make_unique<Instrumentor>(in->registry, MeasureOptions{});
    on.recorder = std::make_unique<trace::TraceRecorder>();
    if (with_telemetry) on.telemetry = std::make_unique<telemetry::Registry>();
    on.attach(*runtime);
    const bots::KernelResult result = run_kernel(args, *runtime, in->registry);
    runtime->set_hooks(nullptr);
    runtime->set_telemetry(nullptr);
    if (!result.ok) {
      std::fprintf(stderr, "kernel self-check FAILED: %s\n",
                   result.check.c_str());
      return false;
    }
    on.instrumentor->finalize();
    in->profile = on.instrumentor->aggregate();
    in->trace = on.recorder->take();
    in->view = {&in->profile, &in->registry, &in->trace, nullptr};
    if (with_telemetry) {
      in->telemetry = on.telemetry->snapshot();
      in->view.telemetry = &in->telemetry;
    }
    return true;
  }
  if (!args.files.empty()) {
    in->snap = snapshot::read_snapshot_file(args.files.front());
    in->view.profile = &in->snap.profile;
    in->view.registry = in->snap.registry.get();
    if (in->snap.has_telemetry) in->view.telemetry = &in->snap.telemetry;
  }
  if (args.given("--trace-file")) {
    in->trace = trace::read_trace_file(args.text("--trace-file"));
    in->view.trace = &in->trace;
  }
  if (in->view.registry == nullptr) {
    register_generated_names(in->trace, &in->registry);
    in->view.registry = &in->registry;
  }
  return true;
}

/// `taskprof_cli diagnose ...`: run the detrimental-pattern detectors.
/// Three input modes, combinable where it makes sense:
///   --kernel=NAME        live run (trace + telemetry recorded implicitly)
///   FILE.tpsnap          post-mortem profile (+ telemetry if present)
///   --trace-file=FILE    recorded trace (alone, or alongside a .tpsnap)
int cmd_diagnose(const cli::Args& args) {
  check_inputs(args, "diagnose",
               "needs --kernel=NAME, a .tpsnap file, or --trace-file=FILE");
  diag::Severity gate = diag::Severity::kProblem;
  const bool gated = args.given("--fail-on");
  if (gated) (void)diag::parse_severity(args.text("--fail-on"), &gate);

  Inputs in;
  if (!load_inputs(args, /*with_telemetry=*/true, &in)) return 1;
  // Replaying a loaded trace rejects impossible histories typed.
  const diag::DiagnosisReport report = diag::run_diagnosis(in.view);
  {
    std::ostringstream os;
    diag::render_diagnosis_text(report, os);
    std::fputs(os.str().c_str(), stdout);
  }
  if (const std::string& json_out = args.text("--json"); !json_out.empty()) {
    write_output(json_out, diag::render_diagnosis_json(report),
                 "diagnosis JSON");
  }
  const std::string& chrome_out = args.text("--chrome-trace");
  if (!chrome_out.empty() && in.view.trace != nullptr) {
    const std::vector<trace::TraceAnnotation> annotations =
        diag::diagnosis_annotations(report);
    trace::ChromeExportOptions chrome;
    chrome.registry = in.view.registry;
    chrome.telemetry = in.view.telemetry;
    chrome.annotations = &annotations;
    trace::write_chrome_trace(chrome_out, *in.view.trace, chrome);
    std::printf("chrome trace written to %s (diagnoses as instant events)\n",
                chrome_out.c_str());
  }
  if (gated && report.count_at_least(gate) > 0) {
    std::fprintf(stderr, "diagnose: %zu finding(s) at or above %s\n",
                 report.count_at_least(gate), diag::severity_name(gate));
    return 3;
  }
  return 0;
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
int cmd_whatif(const cli::Args& args) {
  check_inputs(args, "whatif",
               "needs --kernel=NAME, a .tpsnap file with --trace-file, or "
               "--trace-file=FILE");
  // Parse hypotheses before any (possibly slow) run so bad specs fail
  // fast with their typed error.
  std::vector<whatif::TargetSpec> targets;
  for (const std::string& spec : args.texts("--whatif")) {
    whatif::TargetSpec target;
    const whatif::Error parse_error = whatif::parse_target_spec(spec, &target);
    if (!parse_error.ok()) return report_whatif_error(parse_error);
    targets.push_back(std::move(target));
  }
  const std::vector<int> thread_counts = args.integers("--threads-list");

  Inputs in;
  if (!load_inputs(args, /*with_telemetry=*/false, &in)) return 1;
  if (in.view.trace == nullptr) {
    // The projection needs task lifetimes; a profile snapshot alone
    // cannot provide them.
    return report_whatif_error(
        {whatif::ErrorCode::kNoTrace,
         "snapshot input '" + args.files.front() +
             "' carries no trace; record one with --trace-out and pass "
             "--trace-file=FILE.tptrc"});
  }
  // Replaying a loaded trace rejects impossible histories typed.
  const trace::TraceAnalysis& analysis = *in.trace.analysis();

  whatif::WhatIfProfile profile;
  const whatif::Error build_error =
      whatif::WhatIfProfile::build(in.trace, analysis, *in.view.registry,
                                   &profile);
  if (!build_error.ok()) return report_whatif_error(build_error);

  whatif::Report report;
  report.summarize(profile);
  report.rank_fraction = args.real("--rank-percent") / 100.0;
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
  if (const std::string& json_out = args.text("--json"); !json_out.empty()) {
    write_output(json_out, whatif::render_whatif_json(report), "whatif JSON");
  }
  return 0;
}

/// `taskprof_cli whatif-validate ...`: run the analytical-vs-sim-replay
/// tolerance gate over the BOTS matrix.  Exit 3 when any case misses the
/// tolerance (or changes program structure).
int cmd_whatif_validate(const cli::Args& args) {
  whatif::ValidateOptions options;
  options.kernels = args.texts("--kernels");
  options.threads = args.integers("--threads");
  options.fractions.clear();
  for (const double percent : args.reals("--optimize")) {
    options.fractions.push_back(percent / 100.0);
  }
  options.size = *bots::parse_size(args.text("--size"));
  options.tolerance = args.real("--tolerance");

  whatif::Error error;
  const whatif::ValidateReport report =
      whatif::run_validation(options, &error);
  if (!error.ok()) return report_whatif_error(error);

  {
    std::ostringstream os;
    whatif::render_validate_text(report, os);
    std::fputs(os.str().c_str(), stdout);
  }
  if (const std::string& json_out = args.text("--json"); !json_out.empty()) {
    write_output(json_out, whatif::render_validate_json(report),
                 "validation JSON");
  }
  return report.all_within() ? 0 : 3;
}

/// `taskprof_cli --analyze-trace=FILE`: the analyses of a recorded trace.
int analyze_trace_file(const std::string& path) {
  const trace::Trace loaded = trace::read_trace_file(path);
  std::printf("loaded %zu events from %zu threads\n", loaded.event_count(),
              loaded.thread_count());
  RegionRegistry names;
  register_generated_names(loaded, &names);
  std::fputs(trace::render_analysis(*loaded.analysis(), names).c_str(),
             stdout);
  std::fputs(trace::render_timeline(loaded).c_str(), stdout);
  return 0;
}

/// `taskprof_cli --kernel=NAME ...`: one profiled (or plain) run.
int cmd_run(const cli::Args& args) {
  if (args.given("--analyze-trace")) {
    return analyze_trace_file(args.text("--analyze-trace"));
  }
  if (!args.given("--kernel")) {
    cli::usage_error("--kernel", "is required (or --analyze-trace=FILE)");
  }
  const std::string& kernel_name = args.text("--kernel");
  const std::string& trace_out = args.text("--trace-out");
  const std::string& chrome_trace = args.text("--chrome-trace");
  const std::string& telemetry_json = args.text("--telemetry-json");
  const std::string& report_json = args.text("--report-json");
  const std::string& ingest_socket = args.text("--ingest");
  const std::string& report = args.text("--report");
  const bool instrumented = !args.flag("--uninstrumented");
  const bool tracing =
      args.flag("--trace") || !trace_out.empty() || !chrome_trace.empty();
  const bool with_telemetry =
      args.flag("--telemetry") || !telemetry_json.empty();
  if (!instrumented) {
    // These outputs read the profile, which --uninstrumented does not
    // record: refuse them rather than drop them silently.
    const std::string reason = "needs a profile; --uninstrumented records none";
    for (const char* option :
         {"--report-json", "--snapshot-out", "--snapshot-every", "--ingest"}) {
      if (args.given(option)) cli::usage_error(option, reason);
    }
    if (report != "summary") {
      cli::usage_error("--report", report + " " + reason);
    }
  }
  const std::uint64_t snapshot_every_ms = args.u64("--snapshot-every");
  std::string snapshot_out = args.text("--snapshot-out");
  if (snapshot_every_ms > 0 && snapshot_out.empty() && ingest_socket.empty()) {
    snapshot_out = kernel_name + ".tpsnap";
  }

  rt::RealRuntime* real_runtime = nullptr;
  const std::unique_ptr<rt::Runtime> runtime =
      make_runtime(args, &real_runtime);

  RegionRegistry registry;
  Listeners on;
  if (instrumented) {
    MeasureOptions measure;
    if (!snapshot_out.empty() || !ingest_socket.empty()) {
      // Non-zero arms the capture handshake in every profiler's event
      // path; the actual cadence lives in the flusher.
      measure.snapshot_every = static_cast<Ticks>(
          snapshot_every_ms > 0 ? snapshot_every_ms * 1'000'000 : 1);
    }
    // Armed snapshots need membarrier(2); a kernel that refuses it makes
    // the constructor throw (exit 1).
    on.instrumentor = std::make_unique<Instrumentor>(registry, measure);
  }
  if (tracing) on.recorder = std::make_unique<trace::TraceRecorder>();
  if (with_telemetry) on.telemetry = std::make_unique<telemetry::Registry>();
  on.attach(*runtime);
  Instrumentor* const instrumentor = on.instrumentor.get();
  telemetry::Registry* const telem = on.telemetry.get();
  std::unique_ptr<snapshot::SnapshotFlusher> flusher;
  std::unique_ptr<ingest::IngestFlushSink> ingest_sink;
  if (instrumentor != nullptr &&
      (!snapshot_out.empty() || !ingest_socket.empty())) {
    snapshot::FlusherOptions flush_options;
    flush_options.path = snapshot_out;
    flush_options.interval =
        static_cast<Ticks>(snapshot_every_ms) * 1'000'000;
    flush_options.telemetry = telem;
    if (!ingest_socket.empty()) {
      ingest::ClientOptions client_options;
      client_options.socket_path = ingest_socket;
      client_options.producer_name = kernel_name;
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
  const bots::KernelResult result = run_kernel(args, *runtime, registry);
  runtime->set_hooks(nullptr);
  runtime->set_telemetry(nullptr);
  if (real_runtime != nullptr && args.text("--scheduler") == "taskgraph") {
    const bool stale = real_runtime->taskgraph_stale();
    std::printf("taskgraph: %zu nodes recorded, %d replay run(s), %s%s%s\n",
                real_runtime->taskgraph_size(), args.integer("--repeat") - 1,
                stale ? "diverged (fell back to chase_lev; cause: "
                      : "shape stable",
                stale ? rt::scheduler_note_name(
                            real_runtime->taskgraph_fallback_reason())
                      : "",
                stale ? ")" : "");
  }
  if (flusher != nullptr) flusher->stop();

  telemetry::Snapshot telemetry_snapshot;
  if (telem != nullptr) telemetry_snapshot = telem->snapshot();

  trace::Trace recorded;
  if (tracing) {
    recorded = on.recorder->take();
    std::printf("--- trace: %zu events ---\n", recorded.event_count());
    if (!trace_out.empty()) {
      trace::write_trace_file(trace_out, recorded);
      std::printf("trace written to %s\n", trace_out.c_str());
    }
    if (!chrome_trace.empty()) {
      trace::ChromeExportOptions chrome;
      chrome.registry = &registry;
      chrome.telemetry = telem != nullptr ? &telemetry_snapshot : nullptr;
      trace::write_chrome_trace(chrome_trace, recorded, chrome);
      std::printf("chrome trace written to %s (open in ui.perfetto.dev)\n",
                  chrome_trace.c_str());
    }
    const trace::TraceAnalysis& analysis = *recorded.analysis();
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
    if (!telemetry_json.empty()) {
      write_output(telemetry_json,
                   telemetry::snapshot_to_json(telemetry_snapshot),
                   "telemetry snapshot");
    }
  }

  if (!instrumented) {
    std::printf("parallel span: %s | tasks executed: %s | self-check: %s\n",
                format_ticks(result.stats.parallel_ticks).c_str(),
                format_count(result.stats.tasks_executed).c_str(),
                result.ok ? "passed" : "FAILED");
    return result.ok ? 0 : 1;
  }
  instrumentor->finalize();
  const AggregateProfile profile = instrumentor->aggregate();
  // A final .tpsnap that could not be written fails the run, like every
  // other output; streaming to --ingest alone stays best effort.
  bool snapshot_failed = false;
  if (flusher != nullptr) {
    if (flusher->flush_final()) {
      if (!snapshot_out.empty()) {
        std::printf("snapshot written to %s (%llu flushes)\n",
                    snapshot_out.c_str(),
                    static_cast<unsigned long long>(flusher->flush_count()));
      }
    } else {
      std::fprintf(stderr, "snapshot write failed: %s\n",
                   flusher->last_error().c_str());
      snapshot_failed = !snapshot_out.empty();
    }
    if (ingest_sink != nullptr) {
      std::printf("ingest: streamed %llu snapshot(s) to %s "
                  "(%llu rebase(s))\n",
                  static_cast<unsigned long long>(
                      ingest_sink->client().total_sends()),
                  ingest_socket.c_str(),
                  static_cast<unsigned long long>(
                      ingest_sink->client().total_rebases()));
    }
    snapshot::install_crash_flush(nullptr);
  }

  const bool all = report == "all";
  if (all || report == "summary") print_summary(result, profile, registry);
  std::string rendered;
  if (all || report == "tree") rendered += render_profile(profile, registry);
  if (report == "cube") rendered += render_cube_xml(profile, registry);
  if (report == "csv") rendered += render_csv(profile, registry);
  std::fputs(rendered.c_str(), stdout);
  if (all || report == "findings") {
    // What `diagnose` reads from a live run, so the same verdict.
    const diag::DiagnosisInput input{
        &profile, &registry, tracing ? &recorded : nullptr,
        telem != nullptr ? &telemetry_snapshot : nullptr};
    std::ostringstream os;
    diag::render_diagnosis_text(diag::run_diagnosis(input), os);
    std::fputs(os.str().c_str(), stdout);
  }
  if (!report_json.empty()) {
    write_output(report_json, render_report_json(profile, registry),
                 "report JSON");
  }
  return result.ok && !snapshot_failed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(kTable, argc, argv);
  try {
    switch (args.command) {
      case kLoad: return cmd_load(args);
      case kMerge: return cmd_merge(args);
      case kDiagnose: return cmd_diagnose(args);
      case kWhatif: return cmd_whatif(args);
      case kValidate: return cmd_whatif_validate(args);
      default: return cmd_run(args);
    }
  } catch (const std::exception& error) {
    // A run failure: an unreadable or corrupt input file, an unwritable
    // output, a refused membarrier(2).
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }
}

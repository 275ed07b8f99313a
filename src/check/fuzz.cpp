#include "check/fuzz.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <memory>
#include <utility>

#include "check/differential.hpp"
#include "check/invariants.hpp"
#include "check/random_tree.hpp"
#include "common/rng.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/hooks.hpp"
#include "rt/real_runtime.hpp"
#include "rt/schedule_policy.hpp"
#include "rt/sim_runtime.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/chrome_export.hpp"
#include "trace/recorder.hpp"

namespace taskprof::check {

namespace {

/// One engine execution of a case: profile + invariants + projection.
struct EngineRun {
  ProfileProjection projection;
  std::vector<std::string> problems;
};

/// Run the case's program on `runtime` with measurement and telemetry
/// attached; `extra` (optional) is fanned in alongside the instrumentor
/// (the replay path hangs a TraceRecorder here).
EngineRun run_engine(const FuzzCase& c, rt::Runtime& runtime,
                     const char* engine_name,
                     rt::SchedulerHooks* extra = nullptr) {
  EngineRun out;
  RegionRegistry registry;
  Instrumentor instr(registry);
  telemetry::Registry telem;
  rt::FanoutHooks fanout({&instr});
  if (extra != nullptr) fanout.add(extra);
  runtime.set_hooks(&fanout);
  runtime.set_telemetry(&telem);

  rt::TeamStats stats;
  std::uint64_t checksum = 0;
  bool self_check_ok = true;
  if (c.kernel == kRandomKernel) {
    RandomTaskTree tree(registry);
    stats = tree.run(runtime, c.seed, c.threads);
    // The tree shape is a pure function of the seed, so the task count is
    // the random program's cross-engine checksum.
    checksum = stats.tasks_created;
  } else {
    std::unique_ptr<bots::Kernel> kernel = bots::make_kernel(c.kernel);
    if (kernel == nullptr) {
      out.problems.push_back(std::string("[") + engine_name +
                             "] unknown kernel '" + c.kernel + "'");
      runtime.set_hooks(nullptr);
      runtime.set_telemetry(nullptr);
      return out;
    }
    bots::KernelConfig config;
    config.threads = c.threads;
    config.size = c.size;
    const bots::KernelResult result = kernel->run(runtime, registry, config);
    stats = result.stats;
    checksum = result.checksum;
    self_check_ok = result.ok;
  }

  runtime.set_hooks(nullptr);
  runtime.set_telemetry(nullptr);
  instr.finalize();
  const AggregateProfile profile = instr.aggregate();
  const telemetry::Snapshot snapshot = telem.snapshot();

  const InvariantReport report =
      check_profile(profile, registry, &stats, &snapshot);
  for (const std::string& violation : report.violations) {
    out.problems.push_back(std::string("[") + engine_name + " invariant] " +
                           violation);
  }

  out.projection = project_profile(profile, registry, stats);
  out.projection.engine = engine_name;
  out.projection.checksum = checksum;
  out.projection.self_check_ok = self_check_ok;
  return out;
}

EngineRun run_sim_engine(const FuzzCase& c,
                         rt::SchedulerHooks* extra = nullptr) {
  rt::SchedulePolicy policy(c.seed);
  rt::SimConfig config;
  config.policy = &policy;
  rt::SimRuntime sim(config);
  return run_engine(c, sim, "sim", extra);
}

EngineRun run_real_engine(const FuzzCase& c) {
  rt::SchedulePolicy policy(c.seed);
  rt::RealConfig config;
  config.policy = &policy;
  rt::RealRuntime real(config);
  return run_engine(c, real, "real");
}

void log_line(std::FILE* log, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void log_line(std::FILE* log, const char* fmt, ...) {
  if (log == nullptr) return;
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(log, fmt, args);
  va_end(args);
  std::fputc('\n', log);
  std::fflush(log);
}

/// Shrink a failing case: smallest thread count (among `thread_options`
/// plus 1) that still fails with the same seed, then the smallest size
/// class.  Every candidate run is logged so a flaky shrink is visible.
CaseOutcome shrink_case(CaseOutcome failing,
                        const std::vector<int>& thread_options, bool run_sim,
                        bool run_real, std::FILE* log) {
  std::vector<int> candidates{1};
  candidates.insert(candidates.end(), thread_options.begin(),
                    thread_options.end());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  for (int threads : candidates) {
    if (threads >= failing.c.threads) break;
    FuzzCase candidate = failing.c;
    candidate.threads = threads;
    CaseOutcome outcome = run_case(candidate, run_sim, run_real);
    log_line(log, "  shrink: threads=%d -> %s", threads,
             outcome.ok() ? "passes" : "still fails");
    if (!outcome.ok()) {
      failing = std::move(outcome);
      break;
    }
  }
  if (failing.c.size != bots::SizeClass::kTest) {
    FuzzCase candidate = failing.c;
    candidate.size = bots::SizeClass::kTest;
    CaseOutcome outcome = run_case(candidate, run_sim, run_real);
    log_line(log, "  shrink: size=test -> %s",
             outcome.ok() ? "passes" : "still fails");
    if (!outcome.ok()) failing = std::move(outcome);
  }
  return failing;
}

}  // namespace

CaseOutcome run_case(const FuzzCase& c, bool run_sim, bool run_real) {
  CaseOutcome outcome;
  outcome.c = c;

  EngineRun sim;
  EngineRun real;
  if (run_sim) {
    sim = run_sim_engine(c);
    outcome.problems.insert(outcome.problems.end(), sim.problems.begin(),
                            sim.problems.end());
  }
  if (run_real) {
    real = run_real_engine(c);
    outcome.problems.insert(outcome.problems.end(), real.problems.begin(),
                            real.problems.end());
  }
  if (run_sim && run_real) {
    for (const std::string& diff :
         diff_projections(sim.projection, real.projection)) {
      outcome.problems.push_back("[differential] " + diff);
    }
  }
  return outcome;
}

FuzzReport fuzz_schedules(const FuzzOptions& options, std::FILE* log) {
  FuzzReport report;
  for (const std::string& kernel : options.kernels) {
    for (int threads : options.threads) {
      // Seeds are split deterministically per (kernel, threads) pair so
      // adding a kernel to the sweep does not shift every other seed.
      std::uint64_t pair_salt = options.base_seed;
      for (char ch : kernel) {
        pair_salt = pair_salt * 1099511628211ULL ^
                    static_cast<std::uint64_t>(ch);
      }
      pair_salt ^= static_cast<std::uint64_t>(threads) << 32;
      SplitMix64 split(pair_salt);
      std::uint64_t pair_failures = 0;
      for (int i = 0; i < options.seeds; ++i) {
        FuzzCase c;
        c.kernel = kernel;
        c.threads = threads;
        c.seed = split.next();
        c.size = options.size;
        CaseOutcome outcome = run_case(c, options.run_sim, options.run_real);
        ++report.cases_run;
        if (outcome.ok()) continue;
        ++pair_failures;
        log_line(log, "FAIL kernel=%s threads=%d seed=0x%016" PRIx64,
                 kernel.c_str(), threads, c.seed);
        for (const std::string& p : outcome.problems) {
          log_line(log, "  %s", p.c_str());
        }
        if (options.shrink) {
          outcome = shrink_case(std::move(outcome), options.threads,
                                options.run_sim, options.run_real, log);
        }
        log_line(log, "  replay: %s",
                 replay_command(outcome.c).c_str());
        report.failures.push_back(std::move(outcome));
      }
      log_line(log, "kernel=%s threads=%d: %d seeds, %" PRIu64 " failures",
               kernel.c_str(), threads, options.seeds, pair_failures);
    }
  }
  return report;
}

ReplayResult replay_seed(const FuzzCase& c) {
  ReplayResult out;

  auto one_run = [&c](std::string* rendered) -> std::size_t {
    trace::TraceRecorder recorder;
    RegionRegistry registry;  // rendering needs the region names
    rt::SchedulePolicy policy(c.seed);
    rt::SimConfig config;
    config.policy = &policy;
    rt::SimRuntime sim(config);
    EngineRun run = run_engine(c, sim, "sim", &recorder);
    (void)run;
    const std::size_t events = recorder.event_count();
    trace::ChromeExportOptions options;
    const trace::Trace trace = recorder.take();
    *rendered = render_chrome_trace(trace, options);
    return events;
  };
  // The recorder must see the same registry the instrumentor fills, so
  // replay renders with handle labels only (registry = nullptr): the
  // comparison is over event structure and timestamps, which is what the
  // seed promises to reproduce.

  std::string first;
  std::string second;
  out.event_count = one_run(&first);
  one_run(&second);
  out.trace_identical = (first == second);
  if (!out.trace_identical) {
    out.problems.push_back(
        "replay diverged: two sim runs with the same seed rendered "
        "different Chrome traces");
  }

  // A full differential pass on the replayed seed (sim invariants, real
  // engine, projection diff) so the replay reports the original failure
  // too, not just determinism.
  CaseOutcome outcome = run_case(c, /*run_sim=*/true, /*run_real=*/true);
  out.problems.insert(out.problems.end(), outcome.problems.begin(),
                      outcome.problems.end());
  out.chrome_trace = std::move(first);
  return out;
}

std::string replay_command(const FuzzCase& c) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "fuzz_schedules --replay 0x%016" PRIx64
                " --kernels %s --threads %d --size %s",
                c.seed, c.kernel.c_str(), c.threads, bots::size_name(c.size));
  return buf;
}

}  // namespace taskprof::check

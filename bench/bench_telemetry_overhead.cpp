// Telemetry self-overhead benchmark: what does the lock-free scheduler
// telemetry registry cost on the real engine's hot path?
//
// The registry's design claim is "near-zero when no sink is attached, one
// relaxed load+store per event on a thread-private cache line when one is"
// (src/telemetry/telemetry.hpp).  This bench measures that claim on the
// two fine-grained recursive workloads shared with
// bench_queue_contention (fib and nqueens, cut-off-free), in four modes:
//
//   off          no sink, no hooks — the baseline every run pays
//   sink         telemetry registry attached (counters + gauges recorded)
//   hooks        no-op measurement hooks attached, no telemetry — the
//                event-emission cost alone, for reference
//   sink+timed   registry attached AND TimedHooks decorating the no-op
//                hooks — the full self-timing path: every callback is
//                counted, about one in 64 is timed with two clock reads
//                and scaled; hook_ns_per_event is that sampled estimate
//                of the per-event cost inside the decorator
//
// The acceptance bar is sink-vs-off on fib < 5%.  Results go to stdout
// and to BENCH_telemetry_overhead.json (schema per bench/common.hpp).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/concurrency.hpp"
#include "rt/real_runtime.hpp"
#include "telemetry/telemetry.hpp"

using namespace taskprof;

namespace {

struct Sizes {
  int fib_n;
  int nqueens_n;
};

Sizes sizes_for(bots::SizeClass size) {
  switch (size) {
    case bots::SizeClass::kTest: return {16, 6};
    case bots::SizeClass::kSmall: return {20, 8};
    case bots::SizeClass::kMedium: return {24, 10};
  }
  return {20, 8};
}

enum class Mode { kOff, kSink, kHooks, kSinkTimed };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kSink: return "sink";
    case Mode::kHooks: return "hooks";
    case Mode::kSinkTimed: return "sink+timed";
  }
  return "?";
}

struct Measurement {
  rt::TeamStats stats;
  std::uint64_t checksum = 0;
  double hook_ns_per_event = 0.0;  ///< sink+timed only: in-band number
};

Measurement run_once(const std::string& workload, Mode mode, int threads,
                     RegionHandle task, const Sizes& sz) {
  rt::RealRuntime runtime;
  telemetry::Registry registry;
  rt::SchedulerHooks noop;
  telemetry::TimedHooks timed(&noop, &registry);

  if (mode == Mode::kSink || mode == Mode::kSinkTimed) {
    runtime.set_telemetry(&registry);
  }
  if (mode == Mode::kHooks) runtime.set_hooks(&noop);
  if (mode == Mode::kSinkTimed) runtime.set_hooks(&timed);

  Measurement m;
  if (workload == "fib") {
    long result = 0;
    m.stats = runtime.parallel(threads, [&](rt::TaskContext& ctx) {
      if (ctx.single()) bench::fib_workload(ctx, task, sz.fib_n, &result);
    });
    m.checksum = static_cast<std::uint64_t>(result);
  } else {
    std::atomic<std::uint64_t> solutions{0};
    m.stats = runtime.parallel(threads, [&](rt::TaskContext& ctx) {
      if (ctx.single()) {
        bench::nqueens_workload(ctx, task, sz.nqueens_n, 0, 0, 0, 0,
                                solutions);
      }
    });
    m.checksum = solutions.load();
  }

  if (mode == Mode::kSinkTimed) {
    m.hook_ns_per_event = registry.snapshot().hook_mean_ticks();
  }
  return m;
}

/// Median-of-reps by span (same estimator rationale as
/// bench_queue_contention: preemption noise without filtering convoys).
Measurement measure(const std::string& workload, Mode mode, int threads,
                    RegionHandle task, const Sizes& sz, int reps) {
  std::vector<Measurement> runs;
  runs.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    runs.push_back(run_once(workload, mode, threads, task, sz));
    if (runs.back().checksum != runs.front().checksum) {
      std::fprintf(stderr, "FATAL: %s checksum varies across reps\n",
                   workload.c_str());
      std::exit(1);
    }
  }
  std::sort(runs.begin(), runs.end(),
            [](const Measurement& a, const Measurement& b) {
              return a.stats.parallel_ticks < b.stats.parallel_ticks;
            });
  return runs[runs.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const bench::TrajectoryOptions options = bench::parse_trajectory_options(
      argc, argv, "BENCH_telemetry_overhead.json");
  const Sizes sz = sizes_for(options.size);
  constexpr int kThreads = 4;
  constexpr Mode kModes[] = {Mode::kOff, Mode::kSink, Mode::kHooks,
                             Mode::kSinkTimed};

  std::printf("=== Telemetry registry self-overhead ===\n");
  std::printf(
      "engine: real threads x%d | size class: %s | host threads: %u | "
      "median of %d reps\n\n",
      kThreads, bots::size_name(options.size),
      taskprof::hardware_threads(), options.reps);

  RegionRegistry registry;
  const RegionHandle task = registry.register_region("t", RegionType::kTask);

  JsonWriter json;
  json.begin_object();
  json.field("bench", "telemetry_overhead");
  json.field("size", bots::size_name(options.size));
  json.field("seed", options.seed);
  json.field("threads", kThreads);
  json.field("reps", options.reps);
  json.field("host_threads",
             static_cast<std::uint64_t>(taskprof::hardware_threads()));
  json.begin_array("results");

  double sink_overhead_fib = 0.0;
  double sink_overhead_nqueens = 0.0;
  double hook_ns_per_event = 0.0;

  for (const std::string workload : {"fib", "nqueens"}) {
    TextTable table({"workload", "mode", "tasks", "span ms", "overhead"});
    Ticks baseline = 0;
    for (const Mode mode : kModes) {
      const Measurement m =
          measure(workload, mode, kThreads, task, sz, options.reps);
      if (mode == Mode::kOff) baseline = m.stats.parallel_ticks;
      const double over = bench::overhead(baseline, m.stats.parallel_ticks);
      if (mode == Mode::kSink) {
        if (workload == "fib") sink_overhead_fib = over;
        if (workload == "nqueens") sink_overhead_nqueens = over;
      }
      if (mode == Mode::kSinkTimed && workload == "fib") {
        hook_ns_per_event = m.hook_ns_per_event;
      }
      table.add_row(
          {workload, mode_name(mode),
           std::to_string(m.stats.tasks_executed),
           format_fixed(
               static_cast<double>(m.stats.parallel_ticks) / 1e6, 2),
           mode == Mode::kOff ? "-" : format_percent(over, 1)});

      json.begin_object();
      json.field("workload", workload);
      json.field("mode", mode_name(mode));
      json.field("tasks_executed", m.stats.tasks_executed);
      json.field("span_ns",
                 static_cast<std::int64_t>(m.stats.parallel_ticks));
      json.field("overhead_vs_off", over);
      if (mode == Mode::kSinkTimed) {
        json.field("hook_ns_per_event", m.hook_ns_per_event);
      }
      json.field("checksum", m.checksum);
      json.end_object();
    }
    std::fputs(table.str().c_str(), stdout);
    std::fputs("\n", stdout);
  }

  json.end_array();
  json.field("sink_overhead_fib", sink_overhead_fib);
  json.field("sink_overhead_nqueens", sink_overhead_nqueens);
  json.field("sink_overhead_fib_under_5pct", sink_overhead_fib < 0.05);
  json.field("timed_hook_ns_per_event", hook_ns_per_event);
  json.end_object();
  const bool wrote = bench::write_json(options.out_path, json);

  std::printf("telemetry sink overhead, fib x%d:     %s (target < +5.0 %%)\n",
              kThreads, format_percent(sink_overhead_fib, 1).c_str());
  std::printf("telemetry sink overhead, nqueens x%d: %s\n", kThreads,
              format_percent(sink_overhead_nqueens, 1).c_str());
  std::printf(
      "self-timed hook cost: %.0f ns/event (sampled in-band estimate)\n",
      hook_ns_per_event);
  if (wrote) std::printf("wrote %s\n", options.out_path.c_str());
  return wrote ? 0 : 1;
}

// Shared helpers for the benchmark harness (one binary per paper
// table/figure).
//
// Every bench parses its command line with one of the two option tables
// below (common/cli_options.hpp): --size, --quick (alias for --size=test)
// and --seed, plus --max-workers for the paper benches or --reps and
// --out for the trajectory benches.  `BENCH --help` lists them with
// their ranges and defaults; a bad value exits 2.
//
// The figures/tables are reproduced on the simulator engine: deterministic
// virtual time with the contention model that the host (one core,
// oversubscribed) cannot provide in wall-clock time.  bench_realtime_*
// uses the real engine.
#pragma once

#include <atomic>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bots/kernel.hpp"
#include "common/cli_options.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "common/write_file.hpp"
#include "instrument/instrumentor.hpp"
#include "rt/sim_runtime.hpp"

namespace taskprof::bench {

struct Options {
  bots::SizeClass size = bots::SizeClass::kSmall;
  std::uint64_t seed = 42;
  /// Upper end of a bench's worker sweep (benches that sweep thread
  /// counts double 1, 2, 4, ... up to here).  The simulator runs any
  /// width on one OS thread, so 256+ virtual workers are fine.
  int max_workers = 8;
};

/// A bench takes no subcommand and no files.
inline constexpr cli::Command kBenchCommand[] = {{}};
inline constexpr cli::Option kSizeOption{
    .name = "--size", .kind = cli::Kind::kChoice,
    .help = "problem size class", .fallback = "small",
    .values = "test|small|medium"};
inline constexpr cli::Option kQuickOption{
    .name = "--quick", .help = "alias for --size=test (wins over --size)"};
inline constexpr cli::Option kSeedOption{
    .name = "--seed", .kind = cli::Kind::kU64, .help = "workload seed",
    .fallback = "42"};

inline Options parse_options(int argc, char** argv) {
  static constexpr cli::Option kRows[] = {
      kSizeOption, kQuickOption, kSeedOption,
      {.name = "--max-workers", .kind = cli::Kind::kInt,
       .help = "upper end of the worker sweep", .fallback = "8", .min = 1,
       .max = 1024}};
  static constexpr cli::Table kTable{kBenchCommand, kRows};
  const cli::Args args = cli::parse_or_exit(kTable, argc, argv);
  Options options;
  options.size = args.flag("--quick") ? bots::SizeClass::kTest
                                      : *bots::parse_size(args.text("--size"));
  options.seed = args.u64("--seed");
  options.max_workers = args.integer("--max-workers");
  return options;
}

/// One simulator measurement of a kernel.
struct SimRun {
  bots::KernelResult result;
  std::optional<AggregateProfile> profile;  ///< set when instrumented
  std::unique_ptr<RegionRegistry> registry;
  Instrumentor::MemoryStats memory{};  ///< profiler footprint (instrumented)
};

/// Run `kernel` once on a fresh simulator; instrumented runs also return
/// the aggregated profile.
inline SimRun run_sim(bots::Kernel& kernel, const bots::KernelConfig& config,
                      bool instrumented,
                      const rt::SimConfig& sim_config = {}) {
  SimRun out;
  out.registry = std::make_unique<RegionRegistry>();
  rt::SimRuntime sim(sim_config);
  if (instrumented) {
    Instrumentor instr(*out.registry);
    sim.set_hooks(&instr);
    out.result = kernel.run(sim, *out.registry, config);
    sim.set_hooks(nullptr);
    instr.finalize();
    out.profile = instr.aggregate();
    out.memory = instr.memory_stats();
  } else {
    out.result = kernel.run(sim, *out.registry, config);
  }
  if (!out.result.ok) {
    std::fprintf(stderr, "FATAL: %s self-check failed (%s)\n",
                 std::string(kernel.name()).c_str(),
                 out.result.check.c_str());
    std::exit(1);
  }
  return out;
}

/// Overhead of instrumentation relative to the plain run, as a ratio.
inline double overhead(Ticks plain, Ticks instrumented) {
  return plain == 0 ? 0.0
                    : static_cast<double>(instrumented - plain) /
                          static_cast<double>(plain);
}

/// Options for trajectory benches — the BENCH_<name>.json emitters that
/// track performance across PRs.  Extends the basic size/seed flags with
/// the shared --reps / --out flags.
struct TrajectoryOptions {
  bots::SizeClass size = bots::SizeClass::kSmall;
  std::uint64_t seed = 42;
  int reps = 3;
  std::string out_path;
};

/// Parse the trajectory-bench command line.  `default_out` names the
/// BENCH_<name>.json written when --out is absent.
inline TrajectoryOptions parse_trajectory_options(int argc, char** argv,
                                                  const char* default_out) {
  const cli::Option rows[] = {
      kSizeOption, kQuickOption, kSeedOption,
      {.name = "--reps", .kind = cli::Kind::kInt,
       .help = "repetitions per measurement", .fallback = "3", .min = 1},
      {.name = "--out", .kind = cli::Kind::kString,
       .help = "write the JSON document here", .fallback = default_out,
       .values = "FILE"}};
  const cli::Table table{kBenchCommand, rows};
  const cli::Args args = cli::parse_or_exit(table, argc, argv);
  TrajectoryOptions options;
  options.size = args.flag("--quick") ? bots::SizeClass::kTest
                                      : *bots::parse_size(args.text("--size"));
  options.seed = args.u64("--seed");
  options.reps = args.integer("--reps");
  options.out_path = args.text("--out");
  return options;
}

// ---------------------------------------------------------------------------
// Shared real-engine recursive workloads (engine-agnostic: they only use
// TaskContext).  bench_queue_contention and bench_telemetry_overhead
// measure the *same* task graphs so their numbers are comparable.
// ---------------------------------------------------------------------------

/// Cut-off-free fib recursion — the paper's fine-grained worst case
/// (Fig. 14): two child tasks plus a taskwait per node.
inline void fib_workload(rt::TaskContext& ctx, RegionHandle task, int n,
                         long* result) {
  if (n < 2) {
    *result = n;
    return;
  }
  rt::TaskAttrs attrs;
  attrs.region = task;
  long a = 0;
  long b = 0;
  ctx.create_task(
      [task, n, &a](rt::TaskContext& c) { fib_workload(c, task, n - 1, &a); },
      attrs);
  ctx.create_task(
      [task, n, &b](rt::TaskContext& c) { fib_workload(c, task, n - 2, &b); },
      attrs);
  ctx.taskwait();
  *result = a + b;
}

/// Cut-off-free nqueens recursion: wider fan-out, deeper taskwait nesting.
inline void nqueens_workload(rt::TaskContext& ctx, RegionHandle task, int n,
                             int row, std::uint32_t cols, std::uint32_t diag1,
                             std::uint32_t diag2,
                             std::atomic<std::uint64_t>& solutions) {
  if (row == n) {
    solutions.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  rt::TaskAttrs attrs;
  attrs.region = task;
  for (int col = 0; col < n; ++col) {
    const std::uint32_t c = 1u << col;
    const std::uint32_t d1 = 1u << (row + col);
    const std::uint32_t d2 = 1u << (row - col + n - 1);
    if ((cols & c) != 0 || (diag1 & d1) != 0 || (diag2 & d2) != 0) continue;
    ctx.create_task(
        [task, n, row, cols, diag1, diag2, c, d1, d2,
         &solutions](rt::TaskContext& child) {
          nqueens_workload(child, task, n, row + 1, cols | c, diag1 | d1,
                           diag2 | d2, solutions);
        },
        attrs);
  }
  ctx.taskwait();
}

inline void print_header(const char* title, const char* paper_ref,
                         const Options& options) {
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("engine: virtual-time simulator | size class: %s | seed: %llu\n\n",
              bots::size_name(options.size),
              static_cast<unsigned long long>(options.seed));
}

// ---------------------------------------------------------------------------
// Machine-readable output (the BENCH_<name>.json convention).
//
// Benches that track a performance trajectory across PRs write one flat
// JSON file per run through common/json.hpp's JsonWriter: a top-level
// object with "bench", the harness options, and a "results" array of
// records.
// ---------------------------------------------------------------------------

/// Write `json`'s finished document to `path`; returns false (with a
/// message on stderr) when the file cannot be written.
inline bool write_json(const std::string& path, JsonWriter& json) {
  try {
    write_file(path, json.finish());
    return true;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return false;
  }
}

}  // namespace taskprof::bench

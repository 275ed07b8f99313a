// fuzz_schedules: the schedule-fuzzing / differential-checking driver.
//
//   fuzz_schedules --seeds 256 --kernels fib,nqueens --threads 1,4,8
//   fuzz_schedules --replay 0x<seed> --kernels fib --threads 4
//
// Sweeps N seeds per (kernel, thread-count) pair through the sim and real
// engines under the seeded SchedulePolicy, checks every profile's
// structural invariants, diffs the engines' order-insensitive projections,
// shrinks failing seeds and prints a replay command per failure.  The
// options are one table (common/cli_options.hpp; `--help` lists them).
// Exit code 0 = clean sweep, 1 = failures or an unwritable output,
// 2 = usage error.
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "check/fuzz.hpp"
#include "common/cli_options.hpp"
#include "common/write_file.hpp"

namespace {

using namespace taskprof;
using cli::Kind;

constexpr cli::Command kCommands[] = {
    {.about = "Sweep seeded schedules through the sim and real engines and "
              "diff their\nprofiles; --replay re-runs one seed."}};

constexpr cli::Option kOptions[] = {
    {.name = "--seeds", .kind = Kind::kInt,
     .help = "seeds per (kernel, threads) pair", .fallback = "16", .min = 1},
    {.name = "--base-seed", .kind = Kind::kU64, .help = "sweep base seed",
     .fallback = "0x5eedc0de"},
    {.name = "--kernels", .kind = Kind::kChoice,
     .help = "BOTS kernels and/or random task trees", .fallback = "fib",
     .values = "alignment|fft|fib|floorplan|health|nqueens|sort|sparselu|"
               "strassen|random",
     .list = true},
    {.name = "--threads", .kind = Kind::kInt, .help = "team sizes to sweep",
     .fallback = "1,2,4", .min = 1, .max = 1024, .list = true},
    {.name = "--size", .kind = Kind::kChoice, .help = "problem size class",
     .fallback = "test", .values = "test|small|medium"},
    {.name = "--engine", .kind = Kind::kChoice, .help = "engines to run",
     .fallback = "both", .values = "both|sim|real"},
    {.name = "--no-shrink", .help = "keep the first failing configuration"},
    {.name = "--log", .kind = Kind::kString,
     .help = "append the sweep log / failing seeds to FILE", .values = "FILE"},
    {.name = "--replay", .kind = Kind::kU64,
     .help = "re-run one seed: deterministic sim replay (Chrome-trace diff)\n"
             "plus a full differential pass; uses the first --kernels and\n"
             "--threads entries"},
    {.name = "--chrome-out", .kind = Kind::kString,
     .help = "with --replay: write the replayed trace to FILE",
     .values = "FILE"},
};

constexpr cli::Table kTable{kCommands, kOptions};

}  // namespace

int main(int argc, char** argv) {
  const cli::Args args = cli::parse_or_exit(kTable, argc, argv);
  check::FuzzOptions options;
  options.seeds = args.integer("--seeds");
  options.base_seed = args.u64("--base-seed");
  options.kernels = args.texts("--kernels");
  options.threads = args.integers("--threads");
  options.size = *bots::parse_size(args.text("--size"));
  options.run_sim = args.text("--engine") != "real";
  options.run_real = args.text("--engine") != "sim";
  options.shrink = !args.flag("--no-shrink");
  const std::string& chrome_out = args.text("--chrome-out");

  std::FILE* log = nullptr;
  if (args.given("--log")) {
    log = std::fopen(args.text("--log").c_str(), "a");
    if (log == nullptr) cli::usage_error("--log", "cannot open for append");
  }

  int exit_code = 0;
  if (args.given("--replay")) {
    check::FuzzCase c;
    c.kernel = options.kernels.front();
    c.threads = options.threads.front();
    c.seed = args.u64("--replay");
    c.size = options.size;
    std::printf("replaying kernel=%s threads=%d size=%s seed=0x%016" PRIx64
                "\n",
                c.kernel.c_str(), c.threads, bots::size_name(c.size), c.seed);
    const check::ReplayResult result = check::replay_seed(c);
    std::printf("deterministic replay: %s (%zu events)\n",
                result.trace_identical ? "event order identical"
                                       : "DIVERGED",
                result.event_count);
    for (const std::string& p : result.problems) {
      std::printf("  %s\n", p.c_str());
    }
    if (!chrome_out.empty()) {
      try {
        write_file(chrome_out, result.chrome_trace);
        std::printf("chrome trace written to %s\n", chrome_out.c_str());
      } catch (const std::exception& error) {
        std::fprintf(stderr, "fuzz_schedules: %s\n", error.what());
        exit_code = 1;
      }
    }
    if (!result.ok()) exit_code = 1;
    std::printf("replay %s\n", result.ok() ? "PASS" : "FAIL");
  } else {
    const check::FuzzReport report =
        check::fuzz_schedules(options, log != nullptr ? log : stdout);
    std::printf("fuzz_schedules: %" PRIu64 " cases, %zu failing\n",
                report.cases_run, report.failures.size());
    for (const check::CaseOutcome& failure : report.failures) {
      std::printf("FAIL kernel=%s threads=%d seed=0x%016" PRIx64 "\n",
                  failure.c.kernel.c_str(), failure.c.threads,
                  failure.c.seed);
      for (const std::string& p : failure.problems) {
        std::printf("  %s\n", p.c_str());
      }
      std::printf("  replay: %s\n", check::replay_command(failure.c).c_str());
    }
    if (!report.ok()) exit_code = 1;
  }

  if (log != nullptr) std::fclose(log);
  return exit_code;
}

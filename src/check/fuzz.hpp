// Schedule fuzzing: sweep seeds x kernels x thread counts through both
// engines, check every profile's invariants, diff the engines'
// projections, shrink failures, and replay seeds deterministically.
//
// Seed protocol: one 64-bit seed fully determines a case's perturbation
// (rt::SchedulePolicy) and — for the "random" pseudo-kernel — the program
// shape.  On the sim engine a seed reproduces the exact interleaving, so
// replay_seed() runs a case twice and byte-compares the rendered Chrome
// traces; on the real engine the seed biases the races, so a failing seed
// is replayed as a fresh differential run.  Failing cases shrink to the
// smallest thread count (then problem size) that still fails, and every
// failure carries a ready-to-paste replay command line.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bots/kernel.hpp"

namespace taskprof::check {

/// Name of the non-BOTS pseudo-kernel backed by RandomTaskTree.
inline constexpr const char* kRandomKernel = "random";

/// One point of the fuzz sweep.
struct FuzzCase {
  std::string kernel = "fib";  ///< BOTS kernel name or kRandomKernel
  int threads = 2;
  std::uint64_t seed = 0;
  bots::SizeClass size = bots::SizeClass::kTest;
};

/// Result of running one case (on one or both engines).
struct CaseOutcome {
  FuzzCase c;
  /// Empty when the case passed; otherwise one line per invariant
  /// violation / projection difference, tagged with the engine.
  std::vector<std::string> problems;

  [[nodiscard]] bool ok() const noexcept { return problems.empty(); }
};

struct FuzzOptions {
  std::vector<std::string> kernels{"fib"};
  std::vector<int> threads{1, 2, 4};
  int seeds = 16;                      ///< seeds per (kernel, threads) pair
  std::uint64_t base_seed = 0x5eedc0de;
  bots::SizeClass size = bots::SizeClass::kTest;
  bool run_sim = true;
  bool run_real = true;
  bool shrink = true;
};

struct FuzzReport {
  std::uint64_t cases_run = 0;
  std::vector<CaseOutcome> failures;  ///< shrunk, with replay commands

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

/// Run one case: sim and/or real engine with the seeded policy, invariant
/// checks on each profile, and (when both engines ran) the differential
/// projection diff.
[[nodiscard]] CaseOutcome run_case(const FuzzCase& c, bool run_sim,
                                   bool run_real);

/// The sweep.  Progress and failures go to `log` (may be nullptr).
[[nodiscard]] FuzzReport fuzz_schedules(const FuzzOptions& options,
                                        std::FILE* log);

/// Deterministic replay: run the case twice on the sim engine with the
/// seeded policy and byte-compare the rendered Chrome traces (identical
/// event order required), plus the usual invariant checks.
struct ReplayResult {
  bool trace_identical = false;
  std::size_t event_count = 0;
  std::string chrome_trace;  ///< first run's rendering (for --chrome-out)
  std::vector<std::string> problems;

  [[nodiscard]] bool ok() const noexcept {
    return trace_identical && problems.empty();
  }
};
[[nodiscard]] ReplayResult replay_seed(const FuzzCase& c);

/// Command line that reproduces `c` with the fuzz_schedules binary.
[[nodiscard]] std::string replay_command(const FuzzCase& c);

}  // namespace taskprof::check

// The Barcelona OpenMP Task Suite (BOTS) reproduction.
//
// Nine kernels, reimplemented against taskprof's TaskContext so they run
// on both engines.  Each kernel mirrors its BOTS counterpart's *task
// structure* (what creates tasks, where the taskwaits are, whether a
// cut-off version exists) and self-verifies its result.  The kernels
// declare virtual computation costs via ctx.work() so the simulator
// reproduces the granularity relationships of the paper's Table I; on the
// real engine the actual computation is the cost and work() is a no-op.
//
// Versions follow the paper's §V-A selection:
//  - cut-off versions exist for fib, floorplan, health, nqueens, strassen;
//  - sparselu creates its tasks from a single construct;
//  - sort, fft, alignment have no distinct cut-off version (their serial
//    grain thresholds are intrinsic to the algorithm).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "profile/region.hpp"
#include "rt/runtime.hpp"

namespace taskprof::bots {

/// Problem-size selector: kTest for unit tests (sub-second on the real
/// engine), kSmall for default bench sweeps, kMedium for the full
/// reproduction runs.
enum class SizeClass : std::uint8_t { kTest, kSmall, kMedium };

/// "test", "small" or "medium": the spelling of every command line,
/// replay command and bench JSON.
[[nodiscard]] const char* size_name(SizeClass size) noexcept;

/// The inverse of size_name; nullopt for any other text.
[[nodiscard]] std::optional<SizeClass> parse_size(
    std::string_view text) noexcept;

struct KernelConfig {
  int threads = 1;
  SizeClass size = SizeClass::kSmall;
  /// Run the cut-off version (only meaningful when the kernel has one).
  bool cutoff = false;
  /// With `cutoff`: use BOTS' if-clause strategy — tasks below the
  /// cut-off depth are still created but *undeferred* (OpenMP `if(0)`),
  /// executing inline inside the creation construct, instead of the
  /// manual strategy that calls the serial code directly.
  bool if_clause = false;
  /// Attach the task-depth parameter to task constructs (paper Table IV).
  bool depth_parameter = false;
  /// Create tasks untied where the kernel supports it (extension).
  bool untied = false;
  std::uint64_t seed = 42;
};

struct KernelResult {
  bool ok = false;            ///< self-verification outcome
  std::string check;          ///< what was verified, human-readable
  std::uint64_t checksum = 0; ///< kernel-specific result value
  rt::TeamStats stats;        ///< engine counters for the parallel region
};

/// One BOTS benchmark code.
class Kernel {
 public:
  virtual ~Kernel() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// True when BOTS ships a version with a manual task-creation cut-off
  /// (paper Figs. 13/14 distinguish the two).
  [[nodiscard]] virtual bool has_cutoff_version() const = 0;

  /// Execute one measurement run: one parallel region on `runtime`.
  /// Task-construct regions are registered in `registry`.
  virtual KernelResult run(rt::Runtime& runtime, RegionRegistry& registry,
                           const KernelConfig& config) = 0;
};

/// All nine kernels, in the paper's (alphabetical) order: alignment, fft,
/// fib, floorplan, health, nqueens, sort, sparselu, strassen.
[[nodiscard]] std::vector<std::unique_ptr<Kernel>> make_all_kernels();

/// The names of make_all_kernels(), in its order, as an option table's
/// choices.
inline constexpr std::string_view kKernelChoices =
    "alignment|fft|fib|floorplan|health|nqueens|sort|sparselu|strassen";

/// Factory for a single kernel by name; nullptr for unknown names.
[[nodiscard]] std::unique_ptr<Kernel> make_kernel(std::string_view name);

/// The five kernels whose non-cut-off versions the paper studies in
/// Fig. 14 / Fig. 15 / Table I.
[[nodiscard]] const std::vector<std::string>& nocutoff_study_kernels();

}  // namespace taskprof::bots

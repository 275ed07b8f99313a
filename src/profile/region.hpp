// Source-code regions and the region registry.
//
// Every call-tree node refers to a region: a function, an OpenMP-style
// construct (parallel, barrier, taskwait, task-create, task body) or a
// parameter region (used for the paper's Table IV per-recursion-depth
// profiling).  Regions are registered once and addressed by small integer
// handles; the registry is the only string-holding structure on the
// measurement path.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace taskprof {

/// Classifies a region.  The measurement layer treats scheduling-point
/// regions specially: stub nodes for task execution appear beneath them.
enum class RegionType : std::uint8_t {
  kFunction,         ///< instrumented user function
  kParallel,         ///< parallel region (runs the implicit tasks)
  kImplicitBarrier,  ///< barrier at the end of a parallel region
  kBarrier,          ///< explicit barrier
  kTaskwait,         ///< taskwait construct
  kTaskCreate,       ///< task-creation region (paper: "create task")
  kTask,             ///< explicit task body (one per task construct)
  kImplicitTask,     ///< root region of a thread's implicit task
  kParameter,        ///< parameter sub-region (e.g. "depth=3")
};

/// Human-readable name of a region type, e.g. "taskwait".
[[nodiscard]] std::string_view region_type_name(RegionType type) noexcept;

/// True for constructs at which the runtime may schedule another task and
/// under whose node a task-execution stub node may therefore appear.
[[nodiscard]] constexpr bool is_scheduling_point(RegionType type) noexcept {
  return type == RegionType::kImplicitBarrier || type == RegionType::kBarrier ||
         type == RegionType::kTaskwait || type == RegionType::kTaskCreate;
}

/// Static description of one region.
struct RegionInfo {
  std::string name;          ///< e.g. "nqueens_task", "foo"
  RegionType type = RegionType::kFunction;
  std::string file;          ///< source file (may be empty)
  int line = 0;              ///< source line (0 if unknown)
};

/// Registry mapping RegionHandle -> RegionInfo.
///
/// Registration is thread-safe; lookup returns a reference that stays valid
/// for the registry's lifetime (regions are never removed).  Identical
/// (name, type) pairs are deduplicated so kernels may re-register their
/// regions on every run.
class RegionRegistry {
 public:
  RegionRegistry() = default;
  RegionRegistry(const RegionRegistry&) = delete;
  RegionRegistry& operator=(const RegionRegistry&) = delete;

  /// Register a region (or return the existing handle for an identical
  /// name/type pair).
  RegionHandle register_region(RegionInfo info);

  /// Shorthand for the common case.
  RegionHandle register_region(std::string name, RegionType type) {
    return register_region(RegionInfo{std::move(name), type, {}, 0});
  }

  /// Register every region of `other` here, in handle order, and return
  /// the map from `other`'s handles to this registry's.
  std::vector<RegionHandle> adopt(const RegionRegistry& other);

  /// Look up a handle.  Precondition: handle was returned by this registry.
  [[nodiscard]] const RegionInfo& info(RegionHandle handle) const;

  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  // Deque-like stability is guaranteed by storing pointers.
  std::vector<std::unique_ptr<RegionInfo>> regions_;
};

}  // namespace taskprof

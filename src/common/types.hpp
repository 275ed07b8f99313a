// Fundamental value types shared by every taskprof subsystem.
//
// All time in taskprof is integer ticks; one tick is one nanosecond.  The
// real-thread engine measures ticks on std::chrono::steady_clock's epoch
// (from a calibrated invariant TSC where the CPU has one, see
// common/clock.hpp), the discrete-event simulator advances a virtual tick
// counter.  Using the same integer domain for both lets the measurement
// layer (src/measure) run unchanged on either engine.
#pragma once

#include <cstdint>
#include <limits>

namespace taskprof {

/// Time in nanoseconds (wall-clock or virtual, depending on the engine).
using Ticks = std::int64_t;

/// Identifies a thread (real worker thread or simulated virtual worker)
/// inside one parallel region.  Thread 0 is the master.
using ThreadId = std::uint32_t;

/// Identifies one task *instance* (one execution of a task construct).
/// Unique within a parallel region; never reused while the instance is
/// active.  Instance 0 is reserved for the implicit task.
using TaskInstanceId = std::uint64_t;

/// Opaque handle to a registered source-code region (function, task
/// construct, barrier, ...).  Handles index into the RegionRegistry.
using RegionHandle = std::uint32_t;

/// Sentinel: "no region".
inline constexpr RegionHandle kInvalidRegion =
    std::numeric_limits<RegionHandle>::max();

/// Sentinel: "no task instance".
inline constexpr TaskInstanceId kImplicitTaskId = 0;

/// Sentinel parameter value for call-tree nodes that carry no parameter
/// (see RegionType::kParameter for parameter-based profiling).
inline constexpr std::int64_t kNoParameter =
    std::numeric_limits<std::int64_t>::min();

/// Ticks per microsecond / millisecond / second, for readability.
inline constexpr Ticks kTicksPerUs = 1'000;
inline constexpr Ticks kTicksPerMs = 1'000'000;
inline constexpr Ticks kTicksPerSec = 1'000'000'000;

}  // namespace taskprof

// Clock abstraction decoupling the measurement layer from the time source.
//
// The paper's profiler takes timestamps at every enter/exit/task event.  In
// this reproduction the same measurement code runs against two engines:
//
//  * the real-thread engine, where each worker hands its listeners an
//    EventClock: one stamp per scheduler event, read lazily from a
//    calibrated invariant TSC (TscClock, on steady_clock's epoch) or from
//    std::chrono::steady_clock where the CPU has no invariant TSC, and
//  * the discrete-event simulator, where each virtual worker owns a virtual
//    tick counter.
//
// Clock is deliberately a tiny interface: one call, no state visible to the
// caller.  ManualClock exists for deterministic unit tests that replay the
// event streams of the paper's figures with hand-picked timestamps.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>

#include "common/types.hpp"

namespace taskprof {

/// Source of timestamps for the measurement layer.
///
/// Implementations must be monotonic: successive now() calls on the same
/// thread never decrease.  Thread safety is implementation-defined; the
/// engines hand each worker its own Clock (or a thread-safe one).
class Clock {
 public:
  virtual ~Clock() = default;

  /// Current time in ticks (nanoseconds).
  [[nodiscard]] virtual Ticks now() const noexcept = 0;
};

/// std::chrono::steady_clock in ticks.
[[nodiscard]] inline Ticks steady_now() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall-clock time via std::chrono::steady_clock.  Thread-safe.
class SteadyClock final : public Clock {
 public:
  [[nodiscard]] Ticks now() const noexcept override { return steady_now(); }
};

/// Hand-driven clock for tests.  Not thread-safe.
class ManualClock final : public Clock {
 public:
  ManualClock() = default;
  explicit ManualClock(Ticks start) : now_(start) {}

  [[nodiscard]] Ticks now() const noexcept override { return now_; }

  /// Move time forward by `delta` ticks (delta >= 0).
  void advance(Ticks delta) noexcept { now_ += delta; }

  /// Jump to an absolute time (must not move backwards in normal use).
  void set(Ticks t) noexcept { now_ = t; }

 private:
  Ticks now_ = 0;
};

/// Wall-clock time from the invariant time-stamp counter, converted to
/// steady_clock nanoseconds:
///
///   ns = base_ns + ((tsc - base_tsc) * mult) >> 32
///
/// with a 128-bit product.  The TSC path requires x86-64 and CPUID leaf
/// 0x80000007 EDX bit 8 (invariant TSC); without it now() reads
/// steady_clock.  The frequency is calibrated once per process against
/// steady_clock (CPUID leaves 0x15/0x16 are often zero under a
/// hypervisor), and base_ns comes from steady_clock, so both paths share
/// its epoch.
///
/// A plain time source, not a Clock: the read is an unfenced rdtsc, which
/// may execute a few ns out of order, so successive reads on one thread
/// can step backwards.  Listeners only ever see it through an EventClock,
/// which clamps.  Thread-safe.
class TscClock {
 public:
  /// Copies the process-wide calibration (calibrating on first use).
  TscClock() noexcept;

  [[nodiscard]] Ticks now() const noexcept {
#if defined(__x86_64__)
    if (tsc_) {
      const auto delta =
          static_cast<std::int64_t>(__builtin_ia32_rdtsc() - base_tsc_);
      return base_ns_ +
             static_cast<Ticks>((static_cast<__int128>(delta) * mult_) >> 32);
    }
#endif
    return steady_now();
  }

  /// True when now() reads the TSC, false on the steady_clock fallback.
  [[nodiscard]] bool uses_tsc() const noexcept { return tsc_; }

 private:
  std::uint64_t base_tsc_ = 0;
  Ticks base_ns_ = 0;
  std::int64_t mult_ = 0;  ///< ns per TSC tick, 32.32 fixed point
  bool tsc_ = false;
};

/// One timestamp per scheduler event.  The engine calls next_event()
/// before it dispatches an event on the clock's thread; the first now()
/// of that event reads `Source` once, and every later now() of the same
/// event -- from any listener -- returns the same stamp.  An event no
/// listener times costs no read at all.  Stamps never decrease: a read
/// below the previous stamp is clamped to it.
///
/// Owned by one thread at a time; cache-line aligned because each worker
/// writes its own clock on every event.  `Source` is held by value, so a
/// stale stamp costs one non-virtual read.
template <class Source>
class alignas(64) EventClock final : public Clock {
 public:
  explicit EventClock(Source source = Source{}) : source_(source) {}
  // Listeners hold its address.
  EventClock(const EventClock&) = delete;
  EventClock& operator=(const EventClock&) = delete;

  /// Start a new event: the next now() reads the source.
  void next_event() noexcept { fresh_ = false; }

  [[nodiscard]] Ticks now() const noexcept override {
    if (!fresh_) {
      stamp_ = std::max(stamp_, source_.now());
      fresh_ = true;
    }
    return stamp_;
  }

 private:
  Source source_;
  mutable Ticks stamp_ = std::numeric_limits<Ticks>::min();
  mutable bool fresh_ = false;
};

}  // namespace taskprof

#include "common/clock.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace taskprof {
namespace {

struct TscCalibration {
  std::uint64_t base_tsc = 0;
  Ticks base_ns = 0;
  std::int64_t mult = 0;
  bool tsc = false;
};

#if defined(__x86_64__)

/// Calibration window: long enough that the endpoints' read jitter (tens
/// of ns) stays in the parts per million.
constexpr Ticks kCalibrationNs = 5 * kTicksPerMs;

/// CPUID leaf 0x80000007, EDX bit 8: the TSC ticks at a constant rate in
/// every P-, C- and T-state.
bool invariant_tsc() noexcept {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(0x80000007u, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (edx & (1u << 8)) != 0;
}

struct Sample {
  std::uint64_t tsc = 0;
  Ticks ns = 0;
};

/// One steady_clock read paired with the TSC: the read is bracketed by
/// two TSC reads, and of a few tries the narrowest bracket wins (a
/// preempted try is simply discarded).  The pair's TSC is the bracket's
/// midpoint.
Sample sample() noexcept {
  Sample best;
  std::uint64_t best_width = ~std::uint64_t{0};
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t before = __builtin_ia32_rdtsc();
    const Ticks ns = steady_now();
    const std::uint64_t after = __builtin_ia32_rdtsc();
    if (after - before < best_width) {
      best_width = after - before;
      best = Sample{before + (after - before) / 2, ns};
    }
  }
  return best;
}

TscCalibration calibrate() noexcept {
  TscCalibration c;
  if (!invariant_tsc()) return c;
  const Sample start = sample();
  while (steady_now() - start.ns < kCalibrationNs) {
  }
  const Sample end = sample();
  if (end.tsc <= start.tsc) return c;  // not a usable counter: no division
  c.tsc = true;
  c.base_tsc = end.tsc;
  c.base_ns = end.ns;
  c.mult = static_cast<std::int64_t>(
      (static_cast<__int128>(end.ns - start.ns) << 32) /
      static_cast<__int128>(end.tsc - start.tsc));
  return c;
}

#else

TscCalibration calibrate() noexcept { return {}; }

#endif

const TscCalibration& calibration() noexcept {
  static const TscCalibration c = calibrate();
  return c;
}

}  // namespace

TscClock::TscClock() noexcept {
  const TscCalibration& c = calibration();
  base_tsc_ = c.base_tsc;
  base_ns_ = c.base_ns;
  mult_ = c.mult;
  tsc_ = c.tsc;
}

}  // namespace taskprof

// Per-node metric accumulation.
//
// Each call-tree node stores, per the paper (§IV-A), "the sum, the minimum,
// the maximum and the number of samples" of the measured metric, which is
// inclusive time per visit.  DurationStats packages exactly that quadruple.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/types.hpp"

namespace taskprof {

/// Sum / min / max / count accumulator over tick durations.
struct DurationStats {
  Ticks sum = 0;
  Ticks min = std::numeric_limits<Ticks>::max();
  Ticks max = std::numeric_limits<Ticks>::min();
  std::uint64_t count = 0;

  /// Record one sample.
  void add(Ticks value) noexcept {
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
    ++count;
  }

  /// Fold another accumulator in (used when merging trees).
  void merge(const DurationStats& other) noexcept {
    if (other.count == 0) return;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
    count += other.count;
  }

  /// Arithmetic mean; 0 when empty.
  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }

  [[nodiscard]] bool empty() const noexcept { return count == 0; }

  void reset() noexcept { *this = DurationStats{}; }
};

}  // namespace taskprof

// Human-readable formatting of ticks, shares and counts, and aligned
// text tables.  JSON goes through common/json.hpp.
//
// The report writer and every bench binary print call trees and
// paper-style tables; they share these helpers so all output formats
// numbers identically.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace taskprof {

/// Format ticks with an auto-selected unit: "1.49 us", "25.8 ms", "113 s".
/// Three significant digits, like the numbers quoted in the paper.
[[nodiscard]] std::string format_ticks(Ticks t);

/// Format a double with fixed decimals, e.g. "12.34".
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// Format ticks as seconds with fixed decimals, e.g. "12.345".
[[nodiscard]] std::string format_seconds(Ticks t, int decimals = 3);

/// Format a ratio as a signed percentage, e.g. "+6.2 %", "-1.0 %": for
/// deltas, such as an overhead against a baseline.
[[nodiscard]] std::string format_percent(double ratio, int decimals = 1);

/// Format a ratio as an unsigned share with one decimal, e.g. "54.7%":
/// for parts of a whole, such as a thread's busy time of its span.
[[nodiscard]] std::string format_share(double ratio);

/// Format a count with thousands separators, e.g. "3,690,000,000".
[[nodiscard]] std::string format_count(std::uint64_t n);

/// Minimal aligned-column table used by benches and the report writer.
///
/// Usage:
///   TextTable t({"code", "mean time", "number of tasks"});
///   t.add_row({"fib", "1.49 us", "3,690,000,000"});
///   std::cout << t.str();
class TextTable {
 public:
  /// Construct with the header row.  Column count is fixed from here on.
  explicit TextTable(std::vector<std::string> header);

  /// Append a row; must have exactly as many cells as the header.
  void add_row(std::vector<std::string> row);

  /// Render with columns padded to their widest cell.  The first column is
  /// left-aligned, all others right-aligned (numeric convention).
  [[nodiscard]] std::string str() const;

  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace taskprof

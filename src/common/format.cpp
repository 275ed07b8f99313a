#include "common/format.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "common/assert.hpp"

namespace taskprof {

std::string format_fixed(double value, int decimals) {
  // printf's "%.*f" output: a negative precision means the default, 6.
  const int precision = decimals < 0 ? 6 : decimals;
  // The longest result is a sign, the 309 integer digits of DBL_MAX, the
  // point and the decimals; the buffer always holds it.
  const std::size_t longest =
      2 + std::numeric_limits<double>::max_exponent10 + 1 +
      static_cast<std::size_t>(precision);
  char stack[512];
  std::unique_ptr<char[]> heap;
  char* buf = stack;
  if (longest > sizeof stack) {
    heap = std::make_unique<char[]>(longest);
    buf = heap.get();
  }
  const std::to_chars_result result = std::to_chars(
      buf, buf + longest, value, std::chars_format::fixed, precision);
  return std::string(buf, result.ptr);
}

std::string format_ticks(Ticks t) {
  const bool negative = t < 0;
  const double abs_ns = std::abs(static_cast<double>(t));
  const char* unit = "ns";
  double value = abs_ns;
  if (abs_ns >= 1e9) {
    unit = "s";
    value = abs_ns / 1e9;
  } else if (abs_ns >= 1e6) {
    unit = "ms";
    value = abs_ns / 1e6;
  } else if (abs_ns >= 1e3) {
    unit = "us";
    value = abs_ns / 1e3;
  }
  // Three significant digits: decimals depend on magnitude.  Nanosecond
  // values are integral ticks, so they never show decimals.
  int decimals = 2;
  if (value >= 100.0 || abs_ns < 1e3) {
    decimals = 0;
  } else if (value >= 10.0) {
    decimals = 1;
  }
  std::string s = format_fixed(value, decimals);
  return (negative ? "-" : "") + s + " " + unit;
}

std::string format_seconds(Ticks t, int decimals) {
  return format_fixed(static_cast<double>(t) / 1e9, decimals);
}

std::string format_percent(double ratio, int decimals) {
  const double pct = ratio * 100.0;
  std::string s = format_fixed(pct, decimals);
  if (pct >= 0.0 && s[0] != '-') s.insert(s.begin(), '+');
  return s + " %";
}

std::string format_share(double ratio) {
  return format_fixed(ratio * 100.0, 1) + "%";
}

std::string format_count(std::uint64_t n) {
  std::string digits = std::to_string(n);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  const std::size_t first_group = digits.size() % 3 == 0 ? 3 : digits.size() % 3;
  for (std::size_t i = 0; i < digits.size(); ++i) {
    if (i != 0 && (i - first_group) % 3 == 0 && i >= first_group) {
      out.push_back(',');
    }
    out.push_back(digits[i]);
  }
  return out;
}

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  TASKPROF_ASSERT(!header_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> row) {
  TASKPROF_ASSERT(row.size() == header_.size(),
                  "row width must match header width");
  rows_.push_back(std::move(row));
}

std::string TextTable::str() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) os << "  ";
      const auto pad = widths[c] - row[c].size();
      if (c == 0) {
        os << row[c] << std::string(pad, ' ');
      } else {
        os << std::string(pad, ' ') << row[c];
      }
    }
    os << '\n';
  };

  emit_row(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

}  // namespace taskprof

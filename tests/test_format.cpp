#include "common/format.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace taskprof {
namespace {

TEST(FormatTicks, PicksNanosecondUnit) {
  EXPECT_EQ(format_ticks(0), "0 ns");
  EXPECT_EQ(format_ticks(999), "999 ns");
}

TEST(FormatTicks, PicksMicrosecondUnit) {
  EXPECT_EQ(format_ticks(1'490), "1.49 us");
  EXPECT_EQ(format_ticks(149'000), "149 us");
}

TEST(FormatTicks, PicksMillisecondUnit) {
  EXPECT_EQ(format_ticks(25'800'000), "25.8 ms");
}

TEST(FormatTicks, PicksSecondUnit) {
  EXPECT_EQ(format_ticks(113'000'000'000LL), "113 s");
  EXPECT_EQ(format_ticks(1'500'000'000LL), "1.50 s");
}

TEST(FormatTicks, NegativeValuesKeepSign) {
  EXPECT_EQ(format_ticks(-5'000'000'000LL), "-5.00 s");
}

TEST(FormatTicks, ThreeSignificantDigits) {
  EXPECT_EQ(format_ticks(12'345), "12.3 us");
  EXPECT_EQ(format_ticks(123'456), "123 us");
}

TEST(FormatSeconds, FixedDecimals) {
  EXPECT_EQ(format_seconds(1'234'000'000LL), "1.234");
  EXPECT_EQ(format_seconds(1'234'000'000LL, 1), "1.2");
}

TEST(FormatPercent, SignsAndDecimals) {
  EXPECT_EQ(format_percent(0.062), "+6.2 %");
  EXPECT_EQ(format_percent(-0.47), "-47.0 %");
  EXPECT_EQ(format_percent(3.10), "+310.0 %");
  EXPECT_EQ(format_percent(0.0), "+0.0 %");
}

TEST(FormatShare, UnsignedOneDecimal) {
  EXPECT_EQ(format_share(0.547), "54.7%");
  EXPECT_EQ(format_share(0.0), "0.0%");
  EXPECT_EQ(format_share(1.0), "100.0%");
  EXPECT_EQ(format_share(2.5), "250.0%");
  EXPECT_EQ(format_share(0.00049), "0.0%");
}

/// printf's "%.*f" rendering of `value`, untruncated.
std::string printf_fixed(double value, int decimals) {
  const int length = std::snprintf(nullptr, 0, "%.*f", decimals, value);
  std::string out(static_cast<std::size_t>(length) + 1, '\0');
  std::snprintf(out.data(), out.size(), "%.*f", decimals, value);
  out.pop_back();
  return out;
}

TEST(FormatFixed, MatchesPrintfOverASeededSweep) {
  Xoshiro256 rng(20261017);
  std::size_t cases = 0;
  auto check = [&](double value) {
    for (int decimals = -1; decimals <= 6; ++decimals) {
      ASSERT_EQ(format_fixed(value, decimals), printf_fixed(value, decimals))
          << "value " << std::hexfloat << value << " decimals " << decimals;
      ++cases;
    }
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double special :
       {0.0, -0.0, inf, -inf, nan, -nan, 0.5, 1.5, 2.5, 0.125, 0.005,
        std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::denorm_min(), 1e60, -1e300}) {
    check(special);
  }
  for (int i = 0; i < 10'000; ++i) {
    // Tick counts scaled the way format_ticks scales them.
    const auto ticks = static_cast<double>(rng.next() >> (rng.next() % 64));
    for (const double scale : {1.0, 1e3, 1e6, 1e9}) check(ticks / scale);
    // Arbitrary finite doubles, any exponent.
    double value = 0.0;
    do {
      value = std::bit_cast<double>(rng.next());
    } while (!std::isfinite(value));
    check(value);
    // Short decimals, where rounding ties sit.
    check(static_cast<double>(rng.next_below(2'000'000)) / 1'000.0 - 1'000.0);
  }
  EXPECT_GT(cases, 450'000u);
}

TEST(FormatFixed, NeverTruncates) {
  EXPECT_EQ(format_fixed(1e300, 2).size(), 301u + 3u);
  EXPECT_EQ(format_fixed(-std::numeric_limits<double>::max(), 0).size(),
            1u + 309u);
  EXPECT_EQ(format_fixed(0.1, 600), printf_fixed(0.1, 600));
}

TEST(FormatCount, ThousandsSeparators) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(3'690'000'000ULL), "3,690,000,000");
  EXPECT_EQ(format_count(73'700'000ULL), "73,700,000");
}

TEST(TextTable, AlignsColumns) {
  TextTable table({"code", "mean time", "number of tasks"});
  table.add_row({"fib", "1.49 us", "3,690,000,000"});
  table.add_row({"strassen", "149 us", "960,800"});
  const std::string out = table.str();
  EXPECT_NE(out.find("code"), std::string::npos);
  EXPECT_NE(out.find("strassen"), std::string::npos);
  // Right-aligned numeric columns: the shorter count is padded.
  EXPECT_NE(out.find("      960,800"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TextTable, EveryRowSameWidth) {
  TextTable table({"a", "b"});
  table.add_row({"xxxx", "1"});
  table.add_row({"y", "22"});
  const std::string out = table.str();
  std::size_t first_len = 0;
  std::size_t pos = 0;
  std::size_t line = 0;
  while (pos < out.size()) {
    const std::size_t eol = out.find('\n', pos);
    const std::size_t len = eol - pos;
    if (line == 0) first_len = len;
    if (line != 1) {  // separator line may differ
      EXPECT_LE(len, first_len + 2);
    }
    pos = eol + 1;
    ++line;
  }
  EXPECT_EQ(line, 4u);  // header + separator + 2 rows
}

}  // namespace
}  // namespace taskprof

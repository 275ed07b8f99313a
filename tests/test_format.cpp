#include "common/format.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

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

TEST(FormatCount, ThousandsSeparators) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(3'690'000'000ULL), "3,690,000,000");
  EXPECT_EQ(format_count(73'700'000ULL), "73,700,000");
}

TEST(JsonString, EscapesQuotesBackslashesAndControlCharacters) {
  std::string out;
  append_json_string(&out, "a\"b\\c");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\"");
  out.clear();
  append_json_string(&out, "tab\tnl\ncr\rbell\x01" "esc\x1f");
  EXPECT_EQ(out, "\"tab\\tnl\\ncr\\u000dbell\\u0001esc\\u001f\"");
  for (const char c : out) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  }
}

TEST(JsonString, KeepsNonAsciiBytesAndEmbeddedNul) {
  std::string out;
  append_json_string(&out, std::string("\xc3\xa9\0x", 4));
  EXPECT_EQ(out, std::string("\"\xc3\xa9\\u0000x\""));
}

TEST(JsonNumber, SixSignificantDigitsAndNullForNonFinite) {
  std::string out;
  append_json_number(&out, 44.64612);
  EXPECT_EQ(out, "44.6461");
  out.clear();
  append_json_number(&out, 2000.0);
  EXPECT_EQ(out, "2000");
  out.clear();
  append_json_number(&out, std::numeric_limits<double>::infinity());
  out += ',';
  append_json_number(&out, std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(out, "null,null");
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

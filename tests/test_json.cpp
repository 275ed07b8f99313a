// The one JSON writer (src/common/json): both container layouts and their
// nesting, escaping of keys and strings (invalid UTF-8 included), number
// formatting at the integer limits and for non-finite doubles, fixed
// decimals, and the asserts on a malformed build.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace taskprof {
namespace {

/// A one-member document: `{"s": <text as a JSON string>}`, with the
/// frame stripped so each case compares only the escaped string.
std::string escaped(std::string_view text) {
  JsonWriter json;
  json.begin_object({}, JsonWriter::kLine);
  json.field("s", text);
  json.end_object();
  std::string doc = json.finish();
  const std::string_view prefix = "{\"s\": ";
  EXPECT_EQ(doc.compare(0, prefix.size(), prefix), 0) << doc;
  EXPECT_EQ(doc.substr(doc.size() - 2), "}\n") << doc;
  return doc.substr(prefix.size(), doc.size() - prefix.size() - 2);
}

TEST(JsonWriter, BlockLayoutPutsOneMemberPerLine) {
  JsonWriter json;
  json.begin_object();
  json.field("a", 1);
  json.begin_object("b");
  json.field("c", true);
  json.end_object();
  json.begin_array("d");
  json.value("x");
  json.value(false);
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.finish(),
            "{\n"
            "  \"a\": 1,\n"
            "  \"b\": {\n"
            "    \"c\": true\n"
            "  },\n"
            "  \"d\": [\n"
            "    \"x\",\n"
            "    false\n"
            "  ]\n"
            "}\n");
}

TEST(JsonWriter, LineContainersStayOnTheirLine) {
  JsonWriter json;
  json.begin_object();
  json.begin_array("rows");
  json.begin_object({}, JsonWriter::kLine);
  json.field("a", 1);
  // Opened inside a line container: stays on the line although kBlock
  // is asked for.
  json.begin_array("b", JsonWriter::kBlock);
  json.value(2);
  json.value(3);
  json.end_array();
  json.begin_object("c");
  json.end_object();
  json.end_object();
  json.begin_array({}, JsonWriter::kLine);
  json.value(4);
  json.end_array();
  json.end_array();
  json.begin_array("sites", JsonWriter::kLine);
  json.begin_object();
  json.field("line", 7);
  json.end_object();
  json.begin_object();
  json.end_object();
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.finish(),
            "{\n"
            "  \"rows\": [\n"
            "    {\"a\": 1, \"b\": [2, 3], \"c\": {}},\n"
            "    [4]\n"
            "  ],\n"
            "  \"sites\": [{\"line\": 7}, {}]\n"
            "}\n");
}

TEST(JsonWriter, EmptyContainersCloseOnTheirLine) {
  JsonWriter json;
  json.begin_object();
  json.begin_array("block");
  json.end_array();
  json.begin_object("object");
  json.end_object();
  json.begin_array("line", JsonWriter::kLine);
  json.end_array();
  json.end_object();
  EXPECT_EQ(json.finish(),
            "{\n"
            "  \"block\": [],\n"
            "  \"object\": {},\n"
            "  \"line\": []\n"
            "}\n");

  JsonWriter top;
  top.begin_array();
  top.end_array();
  EXPECT_EQ(top.finish(), "[]\n");
}

TEST(JsonWriter, EscapesKeysLikeStrings) {
  JsonWriter json;
  json.begin_object({}, JsonWriter::kLine);
  json.field("a\"b\\c\n", "v");
  json.end_object();
  EXPECT_EQ(json.finish(), "{\"a\\\"b\\\\c\\n\": \"v\"}\n");
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters) {
  EXPECT_EQ(escaped("a\"b\\c"), "\"a\\\"b\\\\c\"");
  const std::string out = escaped("tab\tnl\ncr\rbell\x01" "esc\x1f");
  EXPECT_EQ(out, "\"tab\\tnl\\ncr\\u000dbell\\u0001esc\\u001f\"");
  for (const char c : out) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
  }
}

TEST(JsonWriter, KeepsEmbeddedNulAsAnEscape) {
  EXPECT_EQ(escaped(std::string_view("a\0x", 3)), "\"a\\u0000x\"");
}

TEST(JsonWriter, WellFormedUtf8PassesThrough) {
  // 2-, 3- and 4-byte sequences, including the edges of each range.
  for (const std::string_view text :
       {"\xc3\xa9", "\xc2\x80", "\xdf\xbf", "\xe2\x82\xac", "\xe0\xa0\x80",
        "\xed\x9f\xbf", "\xee\x80\x80", "\xef\xbf\xbf", "\xf0\x9f\x98\x80",
        "\xf0\x90\x80\x80", "\xf4\x8f\xbf\xbf"}) {
    EXPECT_EQ(escaped(text), std::string("\"").append(text).append("\""));
  }
}

TEST(JsonWriter, LoneContinuationByteBecomesReplacement) {
  EXPECT_EQ(escaped("a\x80z"), "\"a\\ufffdz\"");
  EXPECT_EQ(escaped("\xbf"), "\"\\ufffd\"");
  EXPECT_EQ(escaped("bad\xff\xfe name"), "\"bad\\ufffd\\ufffd name\"");
}

TEST(JsonWriter, TruncatedSequenceBecomesOneReplacementPerByte) {
  EXPECT_EQ(escaped("\xe2\x82"), "\"\\ufffd\\ufffd\"");
  EXPECT_EQ(escaped("\xe2\x82z"), "\"\\ufffd\\ufffdz\"");
  EXPECT_EQ(escaped("\xf0\x9f\x98"), "\"\\ufffd\\ufffd\\ufffd\"");
  // A lead byte followed by another lead byte: the second sequence is
  // whole and stays.
  EXPECT_EQ(escaped("\xc3\xc3\xa9"), "\"\\ufffd\xc3\xa9\"");
}

TEST(JsonWriter, OverlongFormsBecomeReplacements) {
  EXPECT_EQ(escaped("\xc0\xaf"), "\"\\ufffd\\ufffd\"");  // '/' in 2 bytes
  EXPECT_EQ(escaped("\xc1\xbf"), "\"\\ufffd\\ufffd\"");
  EXPECT_EQ(escaped("\xe0\x80\xaf"), "\"\\ufffd\\ufffd\\ufffd\"");
  EXPECT_EQ(escaped("\xf0\x80\x80\xaf"),
            "\"\\ufffd\\ufffd\\ufffd\\ufffd\"");
}

TEST(JsonWriter, EncodedSurrogatesAndCodePointsAboveTheRangeAreInvalid) {
  EXPECT_EQ(escaped("\xed\xa0\x80"), "\"\\ufffd\\ufffd\\ufffd\"");  // U+D800
  EXPECT_EQ(escaped("\xed\xbf\xbf"), "\"\\ufffd\\ufffd\\ufffd\"");  // U+DFFF
  EXPECT_EQ(escaped("\xf4\x90\x80\x80"),
            "\"\\ufffd\\ufffd\\ufffd\\ufffd\"");  // U+110000
  EXPECT_EQ(escaped("\xf5\x80\x80\x80"),
            "\"\\ufffd\\ufffd\\ufffd\\ufffd\"");
}

TEST(JsonWriter, DoublesUseSixSignificantDigitsAndNullForNonFinite) {
  JsonWriter json;
  json.begin_array({}, JsonWriter::kLine);
  json.value(44.64612);
  json.value(2000.0);
  json.value(1e-7);
  json.value(-0.5);
  json.value(std::numeric_limits<double>::infinity());
  json.value(-std::numeric_limits<double>::infinity());
  json.value(std::numeric_limits<double>::quiet_NaN());
  json.end_array();
  EXPECT_EQ(json.finish(), "[44.6461, 2000, 1e-07, -0.5, null, null, null]\n");
}

TEST(JsonWriter, IntegersPrintInFullAtTheirLimits) {
  JsonWriter json;
  json.begin_object({}, JsonWriter::kLine);
  json.field("min", std::numeric_limits<std::int64_t>::min());
  json.field("max", std::numeric_limits<std::uint64_t>::max());
  json.field("int", -7);
  json.field("u32", std::uint32_t{4'000'000'000});
  json.end_object();
  EXPECT_EQ(json.finish(),
            "{\"min\": -9223372036854775808, "
            "\"max\": 18446744073709551615, \"int\": -7, "
            "\"u32\": 4000000000}\n");
}

TEST(JsonWriter, FixedPrintsTheGivenDecimals) {
  JsonWriter json;
  json.begin_object({}, JsonWriter::kLine);
  json.fixed("ts", 1.5, 3);
  json.fixed("neg", -1000.0, 3);
  json.fixed("round", 2.0005, 0);
  json.fixed("inf", std::numeric_limits<double>::infinity(), 3);
  json.end_object();
  EXPECT_EQ(json.finish(),
            "{\"ts\": 1.500, \"neg\": -1000.000, \"round\": 2, "
            "\"inf\": null}\n");
}

TEST(JsonWriterDeathTest, MismatchedCloseAsserts) {
  EXPECT_DEATH(
      {
        JsonWriter json;
        json.begin_object();
        json.end_array();
      },
      "mismatched JSON close");
}

TEST(JsonWriterDeathTest, FinishWithAnOpenContainerAsserts) {
  EXPECT_DEATH(
      {
        JsonWriter json;
        json.begin_array();
        (void)json.finish();
      },
      "container open");
}

TEST(JsonWriterDeathTest, KeyedMemberInsideAnArrayAsserts) {
  EXPECT_DEATH(
      {
        JsonWriter json;
        json.begin_array();
        json.field("k", 1);
      },
      "outside an object");
}

}  // namespace
}  // namespace taskprof

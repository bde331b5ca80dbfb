#include "util/str_util.h"

#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

namespace rased {
namespace {

TEST(SplitTest, BasicSplit) {
  auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  auto parts = Split("a,,c,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitTest, EmptyInputGivesOneEmptyField) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(JoinTest, RoundTripsWithSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, "|"), '|'), parts);
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(TrimTest, RemovesWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%05.1f", 3.14), "003.1");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, LongOutput) {
  std::string long_str(1000, 'a');
  EXPECT_EQ(StrFormat("%s", long_str.c_str()).size(), 1000u);
}

TEST(ParseIntTest, ValidAndInvalid) {
  EXPECT_EQ(ParseInt("42").value_or(0), 42);
  EXPECT_EQ(ParseInt("-17").value_or(0), -17);
  EXPECT_EQ(ParseInt("  99  ").value_or(0), 99);  // trimmed
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
  EXPECT_FALSE(ParseInt("x12").ok());
  EXPECT_FALSE(ParseInt("1.5").ok());
}

TEST(ParseUintTest, RejectsNegative) {
  EXPECT_EQ(ParseUint("18446744073709551615").value_or(0),
            18446744073709551615ull);
  EXPECT_FALSE(ParseUint("-1").ok());
  EXPECT_FALSE(ParseUint("").ok());
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value_or(0), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value_or(0), -1000.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5junk").ok());
}

// What the three number parsers accept, and the value they return, for the
// edge cases a hand-rolled parser most easily gets wrong. The table pins
// strtoll/strtoull/strtod semantics after Trim: a leading '+' is fine, a
// subnormal or out-of-range double is an error, and hex floats, "nan" and
// "inf" are doubles.
TEST(NumberParseTableTest, PinsAcceptanceAndValues) {
  struct Row {
    const char* text;
    bool int_ok;
    int64_t int_value;
    bool uint_ok;
    uint64_t uint_value;
    bool double_ok;
    double double_value;  // ignored for nan rows
  };
  const double kNan = std::nan("");
  const Row kRows[] = {
      {"+1", true, 1, true, 1, true, 1.0},
      {" 7 ", true, 7, true, 7, true, 7.0},
      {"\t3\n", true, 3, true, 3, true, 3.0},
      {"00012", true, 12, true, 12, true, 12.0},
      {"1x", false, 0, false, 0, false, 0},
      {"", false, 0, false, 0, false, 0},
      {"+", false, 0, false, 0, false, 0},
      {"-", false, 0, false, 0, false, 0},
      {"+-1", false, 0, false, 0, false, 0},
      {"1 2", false, 0, false, 0, false, 0},
      {" -5", true, -5, false, 0, true, -5.0},
      {"-0", true, 0, false, 0, true, -0.0},
      {"9223372036854775807", true, INT64_MAX, true, 9223372036854775807ull,
       true, 9223372036854775807.0},
      {"9223372036854775808", false, 0, true, 9223372036854775808ull, true,
       9223372036854775808.0},
      {"-9223372036854775808", true, INT64_MIN, false, 0, true,
       -9223372036854775808.0},
      {"-9223372036854775809", false, 0, false, 0, true,
       -9223372036854775808.0},
      {"18446744073709551615", false, 0, true, UINT64_MAX, true,
       18446744073709551615.0},
      {"18446744073709551616", false, 0, false, 0, true,
       18446744073709551616.0},
      {"1e400", false, 0, false, 0, false, 0},
      {"-1e400", false, 0, false, 0, false, 0},
      {"1e-400", false, 0, false, 0, false, 0},
      {"4.9e-324", false, 0, false, 0, false, 0},
      {"1e-310", false, 0, false, 0, false, 0},
      {"2.2250738585072014e-308", false, 0, false, 0, true,
       2.2250738585072014e-308},
      {"1.", false, 0, false, 0, true, 1.0},
      {"   .5 ", false, 0, false, 0, true, 0.5},
      {"1e", false, 0, false, 0, false, 0},
      {"1e+", false, 0, false, 0, false, 0},
      {"inf", false, 0, false, 0, true, HUGE_VAL},
      {"-Infinity", false, 0, false, 0, true, -HUGE_VAL},
      {"nan", false, 0, false, 0, true, kNan},
      {"-nan", false, 0, false, 0, true, kNan},
      {"NaN", false, 0, false, 0, true, kNan},
      {"nan(123)", false, 0, false, 0, true, kNan},
      {"0x1p3", false, 0, false, 0, true, 8.0},
      {"0X1P3", false, 0, false, 0, true, 8.0},
      {"0x", false, 0, false, 0, false, 0},
      {"0x1p", false, 0, false, 0, false, 0},
  };
  for (const Row& row : kRows) {
    SCOPED_TRACE(std::string("input \"") + row.text + "\"");
    Result<int64_t> i = ParseInt(row.text);
    ASSERT_EQ(i.ok(), row.int_ok);
    if (i.ok()) {
      EXPECT_EQ(i.value(), row.int_value);
    }
    Result<uint64_t> u = ParseUint(row.text);
    ASSERT_EQ(u.ok(), row.uint_ok);
    if (u.ok()) {
      EXPECT_EQ(u.value(), row.uint_value);
    }
    Result<double> d = ParseDouble(row.text);
    ASSERT_EQ(d.ok(), row.double_ok);
    if (!d.ok()) continue;
    if (std::isnan(row.double_value)) {
      EXPECT_TRUE(std::isnan(d.value()));
    } else {
      EXPECT_EQ(d.value(), row.double_value);
      EXPECT_EQ(std::signbit(d.value()), std::signbit(row.double_value));
    }
  }
  // A NUL inside the text ends no number early: the whole view must parse.
  EXPECT_FALSE(ParseInt(std::string_view("12\0" "3", 4)).ok());
  EXPECT_FALSE(ParseUint(std::string_view("12\0" "3", 4)).ok());
  EXPECT_FALSE(ParseDouble(std::string_view("1.5\0" "3", 5)).ok());
}

TEST(WithThousandsSepTest, FormatsPaperStyle) {
  // The paper's Figure 3 renders counts like 9,142,858.
  EXPECT_EQ(WithThousandsSep(9142858), "9,142,858");
  EXPECT_EQ(WithThousandsSep(0), "0");
  EXPECT_EQ(WithThousandsSep(999), "999");
  EXPECT_EQ(WithThousandsSep(1000), "1,000");
  EXPECT_EQ(WithThousandsSep(1234567890123ull), "1,234,567,890,123");
}

TEST(AsciiLowerTest, LowersAsciiOnly) {
  EXPECT_EQ(AsciiLower("HeLLo-42"), "hello-42");
  EXPECT_EQ(AsciiLower(""), "");
}

}  // namespace
}  // namespace rased

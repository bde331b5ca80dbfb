#include "dashboard/json_writer.h"

#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace rased {
namespace {

TEST(JsonWriterTest, EmptyObject) {
  JsonWriter w;
  w.BeginObject();
  w.EndObject();
  EXPECT_EQ(std::move(w).Finish(), "{}");
}

TEST(JsonWriterTest, EmptyArray) {
  JsonWriter w;
  w.BeginArray();
  w.EndArray();
  EXPECT_EQ(std::move(w).Finish(), "[]");
}

TEST(JsonWriterTest, ScalarValues) {
  JsonWriter w;
  w.BeginArray();
  w.Value("text");
  w.Value(static_cast<int64_t>(-5));
  w.Value(static_cast<uint64_t>(18446744073709551615ull));
  w.Value(1.5);
  w.Value(true);
  w.Value(false);
  w.Null();
  w.EndArray();
  EXPECT_EQ(std::move(w).Finish(),
            "[\"text\",-5,18446744073709551615,1.5,true,false,null]");
}

TEST(JsonWriterTest, ObjectWithKeys) {
  JsonWriter w;
  w.BeginObject();
  w.KV("name", "RASED");
  w.KV("cubes", static_cast<uint64_t>(6887));
  w.EndObject();
  EXPECT_EQ(std::move(w).Finish(), "{\"name\":\"RASED\",\"cubes\":6887}");
}

TEST(JsonWriterTest, Nesting) {
  JsonWriter w;
  w.BeginObject();
  w.Key("rows");
  w.BeginArray();
  w.BeginObject();
  w.KV("a", 1);
  w.EndObject();
  w.BeginObject();
  w.KV("b", 2);
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(std::move(w).Finish(), "{\"rows\":[{\"a\":1},{\"b\":2}]}");
}

TEST(JsonWriterTest, StringEscaping) {
  JsonWriter w;
  w.BeginObject();
  w.KV("weird", "quote\" slash\\ newline\n tab\t");
  w.EndObject();
  EXPECT_EQ(std::move(w).Finish(),
            "{\"weird\":\"quote\\\" slash\\\\ newline\\n tab\\t\"}");
}

TEST(JsonWriterTest, ControlCharactersEscapedAsUnicode) {
  JsonWriter w;
  w.BeginArray();
  w.Value(std::string_view("\x01", 1));
  w.EndArray();
  EXPECT_EQ(std::move(w).Finish(), "[\"\\u0001\"]");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Value(std::numeric_limits<double>::infinity());
  w.Value(std::numeric_limits<double>::quiet_NaN());
  w.EndArray();
  EXPECT_EQ(std::move(w).Finish(), "[null,null]");
}

// Doubles are written as printf's "%.6g" writes them, byte for byte.
TEST(JsonWriterTest, DoublesMatchPrintfPercentSixG) {
  using limits = std::numeric_limits<double>;
  const double values[] = {
      0.0, -0.0, 1.0, -1.0, 7.0, 42.0, -93.0, 100000.0, 123456.0,
      1234567.0, -1234567.0, 1e6, 1e15, 1e16, 4294967296.0,
      999999.5, 999999.4, -999999.5, 9999995.0, 99999.95, 0.0001,
      0.00001, 0.000123456789, 0.0009999995, 1.5, 2.5, 0.1, 1.0 / 3.0,
      -2.0 / 3.0, 44.97123, -93.265149, 89.999999, -179.9999995, 180.0,
      -90.0, 1e300, -1e300, 1.23456789e300, 1e-300, -1e-300,
      2.5e-308, limits::min(), limits::denorm_min(), -limits::denorm_min(),
      limits::min() / 3.0, limits::max(), limits::lowest(),
      limits::epsilon()};
  for (double value : values) {
    JsonWriter w;
    w.Value(value);
    char want[64];
    std::snprintf(want, sizeof(want), "%.6g", value);
    EXPECT_EQ(std::move(w).Finish(), std::string(want)) << want;
  }
}

TEST(JsonWriterTest, TopLevelScalar) {
  JsonWriter w;
  w.Value(static_cast<int64_t>(7));
  EXPECT_EQ(std::move(w).Finish(), "7");
}

}  // namespace
}  // namespace rased

// The contracts the scenario layer leans on: exact round trips,
// deterministic member order, strict parsing, and the quoting / NaN / Inf
// edge cases of the shared emission helpers.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace htpb::json {
namespace {

TEST(JsonValue, TypedAccessorsAndEquality) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_EQ(Value(42).as_int(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).as_double(), 2.5);
  EXPECT_EQ(Value("hi").as_string(), "hi");
  EXPECT_EQ(Value(7).as_double(), 7.0);  // int promotes to double
  EXPECT_THROW((void)Value(7).as_string(), std::runtime_error);
  EXPECT_THROW((void)Value("x").as_int(), std::runtime_error);
  // Int and Double are distinct types even at equal magnitude: the
  // round-trip exactness contract depends on it.
  EXPECT_FALSE(Value(3) == Value(3.0));
  EXPECT_TRUE(Value(3.0) == Value(3.0));
}

TEST(JsonObject, PreservesInsertionOrder) {
  Object o;
  o["zebra"] = Value(1);
  o["alpha"] = Value(2);
  o["mid"] = Value(3);
  const std::string text = dump(Value(o), 0);
  EXPECT_EQ(text, R"({"zebra": 1, "alpha": 2, "mid": 3})");
}

TEST(JsonDump, StringQuotingEdgeCases) {
  EXPECT_EQ(quote("plain"), "\"plain\"");
  EXPECT_EQ(quote("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(quote("back\\slash"), "\"back\\\\slash\"");
  EXPECT_EQ(quote("tab\there"), "\"tab\\there\"");
  EXPECT_EQ(quote("line\nbreak"), "\"line\\nbreak\"");
  EXPECT_EQ(quote(std::string("nul\x01") + "x"), "\"nul\\u0001x\"");
  // Escaped strings survive a round trip byte for byte.
  const std::string nasty = "q\"b\\c\nd\te\x02\x1f utf8: \xC3\xA9";
  const Value parsed = parse(dump(Value(nasty), 0));
  EXPECT_EQ(parsed.as_string(), nasty);
}

TEST(JsonDump, NanAndInfinityBecomeNull) {
  EXPECT_EQ(format_double(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity()), "null");
  Object o;
  o["latency"] = Value(std::nan(""));
  EXPECT_EQ(dump(Value(o), 0), R"({"latency": null})");
}

TEST(JsonDump, DoubleFormattingRoundTripsExactly) {
  const double cases[] = {0.0,   -0.0,  0.1,      1.0 / 3.0, 1e-300,
                          1e300, 123.456, 2.2250738585072014e-308,
                          3.0,   -17.0, 0.30000000000000004};
  for (const double d : cases) {
    const std::string text = format_double(d);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), d) << text;
  }
  // Integral doubles keep a ".0" marker so the type survives re-parse.
  EXPECT_EQ(format_double(3.0), "3.0");
  EXPECT_TRUE(parse("3.0").is_double());
  EXPECT_TRUE(parse("3").is_int());
}

TEST(JsonParse, IntegersStayExact) {
  EXPECT_EQ(parse("9007199254740993").as_int(), 9007199254740993LL);
  EXPECT_EQ(parse("-42").as_int(), -42);
  EXPECT_EQ(parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW((void)parse(""), std::runtime_error);
  EXPECT_THROW((void)parse("{"), std::runtime_error);
  EXPECT_THROW((void)parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)parse("{\"a\": 1,}"), std::runtime_error);
  EXPECT_THROW((void)parse("{\"a\": 1} x"), std::runtime_error);
  EXPECT_THROW((void)parse("truthy"), std::runtime_error);
  EXPECT_THROW((void)parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)parse("{\"a\":1,\"a\":2}"), std::runtime_error);
  EXPECT_THROW((void)parse("nan"), std::runtime_error);
}

TEST(JsonParse, RejectsNonRfc8259Numbers) {
  // strtod would happily read all of these; the strict grammar must not.
  EXPECT_THROW((void)parse("+5"), std::runtime_error);
  EXPECT_THROW((void)parse(".5"), std::runtime_error);
  EXPECT_THROW((void)parse("5."), std::runtime_error);
  EXPECT_THROW((void)parse("01"), std::runtime_error);
  EXPECT_THROW((void)parse("-"), std::runtime_error);
  EXPECT_THROW((void)parse("1e"), std::runtime_error);
  EXPECT_THROW((void)parse("1e+"), std::runtime_error);
  EXPECT_THROW((void)parse("0x10"), std::runtime_error);
  // ...while every legal shape still parses.
  EXPECT_EQ(parse("0").as_int(), 0);
  EXPECT_EQ(parse("-0").as_int(), 0);
  EXPECT_DOUBLE_EQ(parse("0.5").as_double(), 0.5);
  EXPECT_DOUBLE_EQ(parse("-1.25e-2").as_double(), -0.0125);
  EXPECT_DOUBLE_EQ(parse("2E+3").as_double(), 2000.0);
}

TEST(JsonParse, RoundTripIsExact) {
  const char* text = R"({
    "name": "fig3",
    "nested": {"flag": true, "none": null, "list": [1, 2.5, "three"]},
    "ratio": 0.1,
    "count": -7
  })";
  const Value v = parse(text);
  EXPECT_EQ(parse(dump(v, 2)), v);
  EXPECT_EQ(parse(dump(v, 0)), v);
  EXPECT_EQ(dump(parse(dump(v, 2)), 2), dump(v, 2));
}

TEST(JsonObjectReader, RejectsUnknownKeys) {
  const Value v = parse(R"({"known": 1, "mystery": 2})");
  ObjectReader reader(v.as_object(), "spec");
  EXPECT_EQ(reader.require("known").as_int(), 1);
  EXPECT_EQ(reader.optional("absent"), nullptr);
  try {
    reader.finish();
    FAIL() << "finish() should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("mystery"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("spec"), std::string::npos);
  }
}

// Type confusion at every typed accessor is a thrown runtime_error, never
// a coercion or a crash -- the spec mutation corpus
// (tests/scenario/spec_test.cpp) leans on this at each nesting level.
TEST(JsonObjectReader, TypeConfusionIsACleanError) {
  const Value v =
      parse(R"({"b": 1, "i": true, "d": "x", "s": 3, "o": [1]})");
  ObjectReader reader(v.as_object(), "t");
  EXPECT_THROW((void)reader.require("b").as_bool(), std::runtime_error);
  EXPECT_THROW((void)reader.require("i").as_int(), std::runtime_error);
  EXPECT_THROW((void)reader.require("d").as_double(), std::runtime_error);
  EXPECT_THROW((void)reader.require("s").as_string(), std::runtime_error);
  EXPECT_THROW((void)reader.require("o").as_object(), std::runtime_error);
}

TEST(JsonObject, AtNamesTheMissingKey) {
  const Value v = parse(R"({"present": 1})");
  EXPECT_EQ(v.as_object().at("present").as_int(), 1);
  try {
    (void)v.as_object().at("gone");
    FAIL() << "at() should have thrown";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("\"gone\""), std::string::npos);
  }
}

TEST(JsonParse, NestingDepthIsGuardedNotACrash) {
  // Reasonable depth round trips...
  std::string text;
  for (int i = 0; i < 64; ++i) text += '[';
  text += '1';
  for (int i = 0; i < 64; ++i) text += ']';
  const Value v = parse(text);
  EXPECT_EQ(parse(dump(v, 0)), v);

  // ...an unbalanced tower is an error, not an overrun...
  text.pop_back();
  EXPECT_THROW((void)parse(text), std::runtime_error);

  // ...and an absurd tower hits the recursion guard as a clean throw
  // instead of blowing the stack (a crafted spec file must not crash
  // htpb_run).
  EXPECT_THROW((void)parse(std::string(100000, '[')), std::runtime_error);
}

TEST(JsonObjectReader, RequireAndOptional) {
  const Value v = parse(R"({"a": 2, "s": "x", "b": true, "d": 1.5})");
  ObjectReader reader(v.as_object(), "t");
  EXPECT_EQ(reader.require("a").as_int(), 2);
  EXPECT_EQ(reader.optional("s")->as_string(), "x");
  EXPECT_EQ(reader.optional("absent"), nullptr);
  EXPECT_EQ(reader.optional("b")->as_bool(), true);
  EXPECT_DOUBLE_EQ(reader.optional("d")->as_double(), 1.5);
  EXPECT_THROW((void)reader.require("missing"), std::runtime_error);
  reader.finish();
}

}  // namespace
}  // namespace htpb::json

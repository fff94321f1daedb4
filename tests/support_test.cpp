// Unit tests for the support library: dynamic bitset, JSON, strings,
// numeric helpers, RNG determinism and the table printer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>

#include "cimflow/support/bitset.hpp"
#include "cimflow/support/json.hpp"
#include "cimflow/support/numeric.hpp"
#include "cimflow/support/rng.hpp"
#include "cimflow/support/status.hpp"
#include "cimflow/support/strings.hpp"
#include "cimflow/support/table.hpp"

namespace cimflow {
namespace {

// --- DynBitset ---------------------------------------------------------------

TEST(DynBitsetTest, SetTestReset) {
  DynBitset bits(130);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_TRUE(bits.none());
  bits.set(0).set(64).set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(1));
  EXPECT_EQ(bits.count(), 3u);
  bits.reset(64);
  EXPECT_FALSE(bits.test(64));
  EXPECT_EQ(bits.count(), 2u);
}

TEST(DynBitsetTest, ContainsAndIntersects) {
  DynBitset a(100), b(100);
  a.set(3).set(70).set(99);
  b.set(3).set(99);
  EXPECT_TRUE(a.contains(b));
  EXPECT_FALSE(b.contains(a));
  EXPECT_TRUE(a.intersects(b));
  DynBitset c(100);
  c.set(50);
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(a.contains(DynBitset(100)));  // empty set is a subset
}

TEST(DynBitsetTest, Difference) {
  DynBitset a(70), b(70);
  a.set(1).set(65).set(69);
  b.set(65);
  const DynBitset d = a.difference(b);
  EXPECT_TRUE(d.test(1));
  EXPECT_FALSE(d.test(65));
  EXPECT_TRUE(d.test(69));
  EXPECT_EQ(d.count(), 2u);
}

TEST(DynBitsetTest, BitwiseOperators) {
  DynBitset a(10), b(10);
  a.set(1).set(2);
  b.set(2).set(3);
  EXPECT_EQ((a | b).count(), 3u);
  EXPECT_EQ((a & b).count(), 1u);
  EXPECT_EQ((a ^ b).count(), 2u);
}

TEST(DynBitsetTest, FindFirstNext) {
  DynBitset bits(200);
  EXPECT_EQ(bits.find_first(), 200u);
  bits.set(5).set(64).set(150);
  EXPECT_EQ(bits.find_first(), 5u);
  EXPECT_EQ(bits.find_next(5), 64u);
  EXPECT_EQ(bits.find_next(64), 150u);
  EXPECT_EQ(bits.find_next(150), 200u);
}

TEST(DynBitsetTest, ForEachAscending) {
  DynBitset bits(128);
  bits.set(127).set(0).set(63).set(64);
  std::vector<std::size_t> seen;
  bits.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 63, 64, 127}));
  EXPECT_EQ(bits.to_indices(), seen);
}

TEST(DynBitsetTest, HashDistinguishes) {
  DynBitset a(64), b(64);
  a.set(1);
  b.set(2);
  EXPECT_NE(a.hash(), b.hash());
  DynBitset c(64);
  c.set(1);
  EXPECT_EQ(a.hash(), c.hash());
  EXPECT_EQ(a, c);
}

TEST(DynBitsetTest, ToString) {
  DynBitset bits(10);
  bits.set(1).set(7);
  EXPECT_EQ(bits.to_string(), "{1,7}");
}

// --- JSON ---------------------------------------------------------------------

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("-42").as_int(), -42);
  EXPECT_DOUBLE_EQ(Json::parse("2.5").as_double(), 2.5);
  EXPECT_EQ(Json::parse("\"hi\\n\"").as_string(), "hi\n");
}

TEST(JsonTest, ParsesNested) {
  const Json doc = Json::parse(R"({"a": [1, 2, {"b": false}], "c": {"d": 3}})");
  EXPECT_EQ(doc.at("a").as_array().size(), 3u);
  EXPECT_EQ(doc.at("a").as_array()[2].at("b").as_bool(), false);
  EXPECT_EQ(doc.at("c").at("d").as_int(), 3);
}

TEST(JsonTest, SupportsComments) {
  const Json doc = Json::parse("{\n  // core count\n  \"cores\": 64\n}");
  EXPECT_EQ(doc.at("cores").as_int(), 64);
}

TEST(JsonTest, GetOrDefaults) {
  const Json doc = Json::parse(R"({"x": 5})");
  EXPECT_EQ(doc.get_or("x", std::int64_t{1}), 5);
  EXPECT_EQ(doc.get_or("y", std::int64_t{1}), 1);
  EXPECT_EQ(doc.get_or("z", std::string("d")), "d");
  EXPECT_EQ(doc.get_or("w", true), true);
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("[1,]"), Error);
  EXPECT_THROW(Json::parse("12abc"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
  EXPECT_THROW(Json::parse("{} extra"), Error);
}

TEST(JsonTest, TypeErrors) {
  const Json doc = Json::parse(R"({"x": 1.5})");
  EXPECT_THROW(doc.at("x").as_string(), Error);
  EXPECT_THROW(doc.at("x").as_int(), Error);  // non-integral number
  EXPECT_THROW(doc.at("missing"), Error);
  // Integral but outside int64: an error, never an undefined cast.
  EXPECT_THROW(Json::parse("1e30").as_int(), Error);
  EXPECT_THROW(Json::parse("-1e19").as_int(), Error);
  EXPECT_EQ(Json::parse("-9007199254740992").as_int(), -9007199254740992);
}

TEST(JsonTest, DumpRoundTrip) {
  const Json doc = Json::parse(R"({"b": [1, 2], "a": "x"})");
  const Json again = Json::parse(doc.dump());
  EXPECT_EQ(again.at("a").as_string(), "x");
  EXPECT_EQ(again.at("b").as_array()[1].as_int(), 2);
}

TEST(JsonTest, DumpRoundTripsNumbersExactly) {
  // dump() must be lossless: every double survives a dump/parse cycle
  // bit-exactly, including values %g's default precision would mangle.
  const double values[] = {0.0,       -0.0,     1.0 / 3.0,  2.5e-9,   1e300,
                           -1e-300,   3.141592653589793,    0.1,      -42.0,
                           9007199254740992.0,  -9007199254740993.0,  6.02e23};
  for (double v : values) {
    const Json round = Json::parse(Json(v).dump());
    EXPECT_EQ(round.as_double(), v) << Json(v).dump();
  }
  SplitMix64 rng(99);
  for (int i = 0; i < 200; ++i) {
    const double v = static_cast<double>(static_cast<std::int64_t>(rng.next())) * 1e-7;
    EXPECT_EQ(Json::parse(Json(v).dump()).as_double(), v);
  }
}

TEST(JsonTest, DumpIntegersWithoutExponent) {
  EXPECT_EQ(Json(12.0).dump(), "12");
  EXPECT_EQ(Json(-3.0).dump(), "-3");
  EXPECT_EQ(Json(std::int64_t{1} << 40).dump(), "1099511627776");
  EXPECT_EQ(Json::number_to_string(0.0), "0");
}

TEST(JsonTest, DumpEscapesStrings) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t bell\x07 cr\r";
  const std::string dumped = Json(nasty).dump();
  EXPECT_EQ(dumped.find('\n'), std::string::npos);  // control chars escaped
  EXPECT_NE(dumped.find("\\n"), std::string::npos);
  EXPECT_NE(dumped.find("\\u0007"), std::string::npos);
  EXPECT_EQ(Json::parse(dumped).as_string(), nasty);
}

TEST(JsonTest, DumpNonFiniteAsNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
  EXPECT_EQ(Json(INFINITY).dump(), "null");
}

TEST(JsonTest, DumpIsDeterministic) {
  const char* text = R"({"z": [1.5, {"k": true}], "a": "v", "m": null})";
  EXPECT_EQ(Json::parse(text).dump(), Json::parse(Json::parse(text).dump()).dump());
}

// --- strings -------------------------------------------------------------------

TEST(StringsTest, Split) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,b,,c", ',', true), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_TRUE(split("", ',').empty());
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
}

TEST(StringsTest, JoinAndLower) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("cimflow", "cim"));
  EXPECT_FALSE(starts_with("cim", "cimflow"));
}

TEST(StringsTest, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
}

TEST(StringsTest, CsvField) {
  EXPECT_EQ(csv_field("plain"), "plain");
  EXPECT_EQ(csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_field("line\nbreak"), "\"line\nbreak\"");
  EXPECT_EQ(csv_field(""), "");
}

/// The Error's message, for asserting that parse failures quote their input.
std::string error_message(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "<no error thrown>";
}

TEST(StringsTest, ParseI64AcceptsStrictIntegersOnly) {
  EXPECT_EQ(parse_i64("0"), 0);
  EXPECT_EQ(parse_i64("42"), 42);
  EXPECT_EQ(parse_i64("+5"), 5);  // std::from_chars alone rejects the plus
  EXPECT_EQ(parse_i64("-17"), -17);
  EXPECT_EQ(parse_i64("9223372036854775807"), INT64_MAX);

  // Everything std::stol would silently half-accept must throw.
  EXPECT_THROW(parse_i64("4x"), Error);
  EXPECT_THROW(parse_i64("12 "), Error);
  EXPECT_THROW(parse_i64(" 12"), Error);
  EXPECT_THROW(parse_i64(""), Error);
  EXPECT_THROW(parse_i64("+"), Error);
  EXPECT_THROW(parse_i64("0x10"), Error);
  EXPECT_THROW(parse_i64("9223372036854775808"), Error);  // INT64_MAX + 1
  // The offending text is quoted so a wrapped "--batch: ..." names both the
  // flag and the value.
  EXPECT_NE(error_message([] { parse_i64("4x"); }).find("'4x'"), std::string::npos);
}

TEST(StringsTest, ParseF64AcceptsStrictNumbersOnly) {
  EXPECT_DOUBLE_EQ(parse_f64("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(parse_f64("+0.25"), 0.25);
  EXPECT_DOUBLE_EQ(parse_f64("-3"), -3.0);
  EXPECT_DOUBLE_EQ(parse_f64("1e-3"), 1e-3);

  EXPECT_THROW(parse_f64("0.05x"), Error);
  EXPECT_THROW(parse_f64(""), Error);
  EXPECT_THROW(parse_f64("1.0 "), Error);
  EXPECT_NE(error_message([] { parse_f64("0.05x"); }).find("'0.05x'"),
            std::string::npos);
}

TEST(StringsTest, ParseI64ListRejectsEmptyElements) {
  EXPECT_EQ(parse_i64_list("4,8,12"), (std::vector<std::int64_t>{4, 8, 12}));
  EXPECT_EQ(parse_i64_list("16"), (std::vector<std::int64_t>{16}));

  // A stray comma is always a typo — silently dropping the empty piece would
  // run a sweep over the wrong grid.
  EXPECT_THROW(parse_i64_list("2,,8"), Error);
  EXPECT_THROW(parse_i64_list("2,8,"), Error);
  EXPECT_THROW(parse_i64_list(",2"), Error);
  EXPECT_THROW(parse_i64_list(""), Error);
  EXPECT_THROW(parse_i64_list("2,x"), Error);
  EXPECT_NE(error_message([] { parse_i64_list("2,,8"); }).find("'2,,8'"),
            std::string::npos);
}

// --- numeric -------------------------------------------------------------------

TEST(NumericTest, CeilDivAndAlign) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(0, 3), 0);
  EXPECT_EQ(align_up(13, 8), 16);
  EXPECT_EQ(align_up(16, 8), 16);
}

TEST(NumericTest, SaturateInt8) {
  EXPECT_EQ(saturate_int8(127), 127);
  EXPECT_EQ(saturate_int8(128), 127);
  EXPECT_EQ(saturate_int8(-128), -128);
  EXPECT_EQ(saturate_int8(-129), -128);
  EXPECT_EQ(saturate_int8(0), 0);
}

TEST(NumericTest, RoundingShiftMatchesReference) {
  // Property: rounding_shift_right rounds to nearest, ties away from zero.
  SplitMix64 rng(123);
  for (int i = 0; i < 2000; ++i) {
    // Accumulator-range values (the helper's documented domain is INT32
    // accumulations).
    const auto value = static_cast<std::int64_t>(static_cast<std::int32_t>(rng.next()));
    const int shift = static_cast<int>(rng.next_below(15)) + 1;
    const double expected = std::round(static_cast<double>(value) /
                                       static_cast<double>(std::int64_t{1} << shift));
    // std::round ties away from zero — same convention.
    EXPECT_EQ(rounding_shift_right(value, shift), static_cast<std::int32_t>(expected))
        << "value=" << value << " shift=" << shift;
  }
}

TEST(NumericTest, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(12));
}

// --- RNG --------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, RangesRespected) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

// --- TextTable ----------------------------------------------------------------------

TEST(TextTableTest, RendersAligned) {
  TextTable table({"a", "long"});
  table.add_row({"xx", "y"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| a  | long |"), std::string::npos);
  EXPECT_NE(out.find("| xx | y    |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 1u);
}

}  // namespace
}  // namespace cimflow

// Tests for CSV writing, RNG, and string helpers.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/wire.hpp"

namespace adaptviz {
namespace {

TEST(Csv, WritesHeaderAndRows) {
  CsvTable t({"wall", "value", "label"});
  t.add_row({1.5, 42L, std::string("ok")});
  t.add_row({2.5, 43L, std::string("fine")});
  EXPECT_EQ(t.str(), "wall,value,label\n1.5,42,ok\n2.5,43,fine\n");
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Csv, QuotesSpecialCharacters) {
  CsvTable t({"a"});
  t.add_row({std::string("has,comma")});
  t.add_row({std::string("has \"quote\"")});
  EXPECT_EQ(t.str(), "a\n\"has,comma\"\n\"has \"\"quote\"\"\"\n");
}

TEST(Csv, RejectsWidthMismatch) {
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), std::invalid_argument);
  EXPECT_THROW(CsvTable({}), std::invalid_argument);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(124);
  EXPECT_NE(Rng(123).next_u64(), c.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(99);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng r(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, BoundedNoModuloBias) {
  Rng r(11);
  int counts[7] = {0};
  const int n = 70000;
  for (int i = 0; i < n; ++i) counts[r.bounded(7)]++;
  for (int c : counts) EXPECT_NEAR(c, n / 7, n / 7 * 0.1);
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t a b \n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtil, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtil, StartsWithAndJoin) {
  EXPECT_TRUE(starts_with("adaptviz", "adapt"));
  EXPECT_FALSE(starts_with("ad", "adapt"));
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtil, Format) {
  EXPECT_EQ(format("%d procs, %.1f min", 48, 2.5), "48 procs, 2.5 min");
}

TEST(StringUtil, StrictNumberLists) {
  EXPECT_EQ(split_list(" a, ,b ,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(parse_double_list("k", "1.5, 0x1p-1"),
            (std::vector<double>{1.5, 0.5}));
  EXPECT_EQ(parse_int_list("k", "7, -2"),
            (std::vector<std::int64_t>{7, -2}));
  for (const char* bad : {"2GB", "nan", "inf", "1e999", "1,x"}) {
    EXPECT_THROW(parse_double_list("k", bad), std::runtime_error) << bad;
  }
  for (const char* bad : {"7x", "1e3", "1.0", "99999999999999999999"}) {
    EXPECT_THROW(parse_int_list("k", bad), std::runtime_error) << bad;
  }
}

// ---- util/wire ----

TEST(Wire, PercentEncodingUsesTheUnreservedAlphabetAndRoundTrips) {
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  const std::string enc = wire::percent_encode(all);
  for (const char c : enc) {
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                c == '.' || c == '_' || c == '~' || c == '%')
        << c;
  }
  EXPECT_EQ(wire::percent_decode(enc), all);
  EXPECT_EQ(wire::percent_encode("a/b:c"), "a%2Fb%3Ac");
  // Older writers left ':' and '/' plain; those still decode.
  EXPECT_EQ(wire::percent_decode("runs/a:b%20c"), "runs/a:b c");
  EXPECT_THROW(wire::percent_decode("x%2"), wire::WireError);
  EXPECT_THROW(wire::percent_decode("x%zz"), wire::WireError);
}

TEST(Wire, HexfloatRoundTripIsExact) {
  for (const double v : {0.1, -1.0 / 3.0, 4.9406564584124654e-324, 1e308}) {
    EXPECT_EQ(wire::decode_double(wire::encode_double(v)), v);
  }
  EXPECT_THROW(wire::decode_double(""), wire::WireError);
  EXPECT_THROW(wire::decode_double("0x1p+0 "), wire::WireError);
}

TEST(Wire, ControlCharactersQuoteToValidJson) {
  std::string s = "quote\" back\\slash";
  for (int c = 1; c < 0x20; ++c) s += static_cast<char>(c);
  const std::string quoted = wire::json_quote(s);
  for (const char c : quoted) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20);  // no raw control bytes
  }
  const wire::JsonValue v = wire::parse_json(quoted);
  ASSERT_EQ(v.kind, wire::JsonValue::Kind::kString);
  EXPECT_EQ(v.string, s);
}

TEST(Wire, JsonReaderRejectsDuplicateKeysAndDeepNesting) {
  const wire::JsonValue ok = wire::parse_json(R"({"a": [1, "x"], "b": null})");
  ASSERT_NE(ok.find("a"), nullptr);
  EXPECT_EQ(ok.find("a")->array.size(), 2u);
  EXPECT_THROW(wire::parse_json(R"({"a": 1, "a": 2})"), wire::WireError);
  EXPECT_THROW(wire::parse_json("[1] x"), wire::WireError);

  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(wire::parse_json(nested(wire::kMaxJsonDepth)));
  EXPECT_THROW(wire::parse_json(nested(wire::kMaxJsonDepth + 1)),
               wire::WireError);
  EXPECT_THROW(wire::parse_json(std::string(1 << 20, '[')), wire::WireError);
}

}  // namespace
}  // namespace adaptviz

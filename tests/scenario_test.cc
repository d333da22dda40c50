// Scenario engine: strict JSON parser corpus, path-qualified Spec errors,
// registry round-trips for every built-in simulation, and the Runner's
// byte-identical-bundle determinism contract across thread counts.
#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/thread_pool.h"
#include "gtest/gtest.h"
#include "oracles/json_reference.h"
#include "report/json.h"
#include "scenario/runner.h"

namespace sustainai {
namespace {

using report::JsonParseError;
using report::JsonValue;
using report::canonical_json;
using report::parse_json;
using report::shortest_double;
using scenario::Bundle;
using scenario::ParamDoc;
using scenario::Params;
using scenario::Registry;
using scenario::RunContext;
using scenario::Runner;
using scenario::Spec;
using scenario::SpecError;

// --- JSON parser: accept corpus ------------------------------------------

TEST(JsonParse, AcceptsScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_TRUE(parse_json("true").as_bool());
  EXPECT_FALSE(parse_json("false").as_bool());
  EXPECT_DOUBLE_EQ(parse_json("0").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(parse_json("-0.5").as_number(), -0.5);
  EXPECT_DOUBLE_EQ(parse_json("1e3").as_number(), 1000.0);
  EXPECT_DOUBLE_EQ(parse_json("2.5E-2").as_number(), 0.025);
  EXPECT_DOUBLE_EQ(parse_json("1.7976931348623157e308").as_number(),
                   1.7976931348623157e308);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, AcceptsEscapesAndUnicode) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\/d\n\t\r\b\f")").as_string(),
            "a\"b\\c/d\n\t\r\b\f");
  EXPECT_EQ(parse_json(R"("A")").as_string(), "A");
  EXPECT_EQ(parse_json(R"("é")").as_string(), "\xc3\xa9");       // é
  EXPECT_EQ(parse_json(R"("€")").as_string(), "\xe2\x82\xac");   // €
  // Surrogate pair: U+1F600.
  EXPECT_EQ(parse_json(R"("😀")").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParse, AcceptsContainers) {
  const JsonValue v = parse_json(R"({"a": [1, 2, {"b": null}], "c": ""})");
  ASSERT_TRUE(v.is_object());
  ASSERT_NE(v.find("a"), nullptr);
  EXPECT_EQ(v.find("a")->items().size(), 3u);
  EXPECT_TRUE(v.find("a")->items()[2].find("b")->is_null());
  EXPECT_EQ(v.find("c")->as_string(), "");
  EXPECT_EQ(parse_json("[]").items().size(), 0u);
  EXPECT_EQ(parse_json("{}").members().size(), 0u);
  EXPECT_TRUE(parse_json("  [ ]  ").is_array());
}

TEST(JsonParse, AcceptsNestingUpToDepthLimit) {
  std::string deep;
  for (int i = 0; i < 64; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 64; ++i) deep += ']';
  EXPECT_NO_THROW((void)parse_json(deep));
}

// --- JSON parser: reject corpus ------------------------------------------

void expect_reject(const std::string& text) {
  EXPECT_THROW((void)parse_json(text), JsonParseError) << "input: " << text;
}

TEST(JsonParse, RejectsTrailingCommas) {
  expect_reject("[1, 2,]");
  expect_reject(R"({"a": 1,})");
  expect_reject("[,]");
  expect_reject("{,}");
}

TEST(JsonParse, RejectsBadEscapes) {
  expect_reject(R"("\x41")");
  expect_reject(R"("\u12")");       // truncated
  expect_reject(R"("\u123g")");     // non-hex digit
  expect_reject(R"("\ud83d")");     // unpaired high surrogate
  expect_reject(R"("\ude00")");     // lone low surrogate
  expect_reject(R"("\ud83dA")");  // high surrogate + non-low
  expect_reject("\"unterminated");
  expect_reject("\"raw\ncontrol\"");  // unescaped control char
}

TEST(JsonParse, RejectsLooseNumbers) {
  expect_reject("01");      // leading zero
  expect_reject("-01");
  expect_reject("+1");
  expect_reject(".5");
  expect_reject("1.");
  expect_reject("1e");
  expect_reject("1e+");
  expect_reject("NaN");
  expect_reject("Infinity");
  expect_reject("1e999");   // overflow
  expect_reject("0x10");
}

TEST(JsonParse, RejectsStructuralErrors) {
  expect_reject("");
  expect_reject("   ");
  expect_reject("[1 2]");
  expect_reject("{\"a\" 1}");
  expect_reject("{\"a\": 1 \"b\": 2}");
  expect_reject("{a: 1}");          // unquoted key
  expect_reject("[1, 2");           // unterminated
  expect_reject("1 2");             // trailing content
  expect_reject("{} []");
  expect_reject("'single'");
  expect_reject(R"({"a": 1, "a": 2})");  // duplicate key
  expect_reject("// comment\n1");
}

TEST(JsonParse, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 65; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < 65; ++i) deep += ']';
  expect_reject(deep);
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    (void)parse_json("{\n  \"a\": 1,\n  \"b\": tru\n}");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.column(), 11);  // just past "tru"
  }
}

// The position is the 1-based line and byte column just past the last
// consumed byte, on any line and at the end of the input.
TEST(JsonParse, ErrorPositionsAreExactOnLaterLinesAndAtEnd) {
  const auto message = [](const std::string& text) {
    try {
      (void)parse_json(text);
    } catch (const JsonParseError& e) {
      return std::to_string(e.line()) + ":" + std::to_string(e.column()) +
             " " + e.what();
    }
    return std::string("accepted");
  };
  std::string line40 = "[\n";
  for (int i = 1; i <= 38; ++i) {
    line40 += "  " + std::to_string(i) + ",\n";
  }
  line40 += "  {\"k\": 1, \"k\": 2}\n]";
  EXPECT_EQ(message(line40),
            "40:17 JSON parse error at line 40, column 17: duplicate object "
            "key \"k\"");
  EXPECT_EQ(message("[1, 2"),
            "1:6 JSON parse error at line 1, column 6: expected ']' to close "
            "the array but reached end of input");
  EXPECT_EQ(message("{\"a\": [1,\n  2,\n"),
            "3:1 JSON parse error at line 3, column 1: unexpected end of "
            "input (expected a value)");
  EXPECT_EQ(message("\"abc"),
            "1:5 JSON parse error at line 1, column 5: unterminated string");
}

// Numbers read through std::from_chars must be the doubles strtod reads,
// bit for bit, including where from_chars reports an error and the parser
// falls back to strtod (underflow to zero).
TEST(JsonParse, NumbersMatchStrtod) {
  const auto same_bits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  const auto expect_strtod = [&](const std::string& token) {
    const double want = std::strtod(token.c_str(), nullptr);
    ASSERT_TRUE(std::isfinite(want)) << token;
    const double got = parse_json(token).as_number();
    EXPECT_TRUE(same_bits(got, want))
        << token << " read " << shortest_double(got) << ", strtod "
        << shortest_double(want);
  };

  std::mt19937_64 rng(20220405);
  std::uniform_real_distribution<double> mantissa(-10.0, 10.0);
  std::uniform_int_distribution<int> exponent(-30, 30);
  for (int i = 0; i < 200000; ++i) {
    double v = 0.0;
    if (i % 2 == 0) {
      v = std::bit_cast<double>(rng());
      if (!std::isfinite(v)) {
        continue;
      }
    } else {
      v = mantissa(rng) * std::pow(10.0, exponent(rng));
    }
    char token[40];
    std::snprintf(token, sizeof(token), "%.*g", 1 + i % 17, v);
    if (std::isfinite(std::strtod(token, nullptr))) {
      expect_strtod(token);
    } else {  // e.g. "%.1g" of 1.7e308 is "2e+308"
      EXPECT_THROW((void)parse_json(token), JsonParseError) << token;
    }
  }

  expect_strtod("1e-400");
  EXPECT_EQ(parse_json("1e-400").as_number(), 0.0);
  EXPECT_FALSE(std::signbit(parse_json("1e-400").as_number()));
  EXPECT_TRUE(std::signbit(parse_json("-1e-400").as_number()));
  expect_strtod("4.9e-324");
  EXPECT_EQ(parse_json("4.9e-324").as_number(), 5e-324);
  expect_strtod("2.4703282292062327e-324");  // half the least subnormal
  expect_strtod("2.4703282292062328e-324");
  expect_strtod("2.2250738585072011e-308");
  expect_strtod("1.7976931348623157e308");
  EXPECT_TRUE(std::signbit(parse_json("-0").as_number()));
  EXPECT_TRUE(std::signbit(parse_json("-0.0e5").as_number()));

  std::string long_fraction = "0.";
  std::string long_integer = "1";
  for (int i = 0; i < 800; ++i) {
    long_fraction += static_cast<char>('0' + (i * 7 + 3) % 10);
    long_integer += static_cast<char>('0' + (i * 3 + 1) % 10);
  }
  expect_strtod(long_fraction);
  expect_strtod(long_integer + "e-790");
  expect_strtod("-" + long_integer + "e-600");

  try {
    (void)parse_json("1e999");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_STREQ(e.what(),
                 "JSON parse error at line 1, column 6: number '1e999' "
                 "overflows a double");
  }
  try {
    (void)parse_json("[\n  1,\n  -1e999\n]");
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_STREQ(e.what(),
                 "JSON parse error at line 3, column 9: number '-1e999' "
                 "overflows a double");
  }
}

// --- Canonical serialization ---------------------------------------------

TEST(CanonicalJson, SortsKeysAndRoundTrips) {
  const JsonValue v = parse_json(R"({"b": 1, "a": {"z": [1, 2], "y": true}})");
  const std::string canon = canonical_json(v);
  EXPECT_LT(canon.find("\"a\""), canon.find("\"b\""));
  EXPECT_EQ(canon.back(), '\n');
  // Canonicalization is a fixed point: parse(canon) re-emits canon.
  EXPECT_EQ(canonical_json(parse_json(canon)), canon);
}

TEST(CanonicalJson, ShortestDoubleRoundTrips) {
  for (double v : {0.0, -0.0, 1.0, -1.5, 0.1, 1.0 / 3.0, 6.35,
                   1.7976931348623157e308, 5e-324, 9007199254740992.0,
                   22400.0 * 4 * 3600}) {
    const std::string s = shortest_double(v);
    // strtod, not std::stod: stod throws out_of_range on subnormals.
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(shortest_double(42.0), "42");
  EXPECT_EQ(shortest_double(0.5), "0.5");
}

// shortest_double formats with std::to_chars and checks candidates with
// std::from_chars; the snprintf/strtod oracle is the text it must equal,
// byte for byte, since every golden and config digest is built from it.
TEST(CanonicalJson, ShortestDoubleMatchesPrintfOracle) {
  const auto mismatch = [](double v) -> std::string {
    const std::string want = oracles::reference_shortest_double(v);
    const std::string got = shortest_double(v);
    if (got == want) {
      return "";
    }
    std::ostringstream os;
    os << "bits " << std::hex << std::bit_cast<std::uint64_t>(v) << ": "
       << got << " != oracle " << want;
    return os.str();
  };
  long failures = 0;
  const auto expect_oracle = [&](double v) {
    const std::string diff = mismatch(v);
    if (!diff.empty() && ++failures <= 10) {
      ADD_FAILURE() << diff;
    }
  };

  // Random bit patterns: every exponent, sign and mantissa shape. The
  // oracle's snprintf takes microseconds on large exponents, so four
  // seeded streams run on their own threads.
  constexpr int kStreams = 4;
  constexpr long kPerStream = 1'050'000;
  std::vector<long> finite(kStreams, 0);
  std::vector<std::string> first_diff(kStreams);
  std::vector<std::thread> streams;
  for (int t = 0; t < kStreams; ++t) {
    streams.emplace_back([&, t] {
      std::mt19937_64 rng(53 + t);
      for (long i = 0; i < kPerStream && first_diff[t].empty(); ++i) {
        const double v = std::bit_cast<double>(rng());
        if (std::isfinite(v)) {
          ++finite[t];
          first_diff[t] = mismatch(v);
        }
      }
    });
  }
  for (std::thread& stream : streams) {
    stream.join();
  }
  long random_checked = 0;
  for (int t = 0; t < kStreams; ++t) {
    EXPECT_EQ(first_diff[t], "") << "stream " << t;
    random_checked += finite[t];
  }
  EXPECT_GE(random_checked, 4'000'000);

  // Every power of two and its neighbours, both signs.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double v : {std::nextafter(p, 0.0), p,
                           std::nextafter(p, HUGE_VAL)}) {
      expect_oracle(v);
      expect_oracle(-v);
    }
  }
  // Dyadic sixteenths: every k/16 up to 4096, then a stride to 1e7.
  for (long k = 0; k < 16 * 4096; ++k) {
    expect_oracle(static_cast<double>(k) / 16.0);
  }
  for (long k = 16 * 4096; k <= 16 * 10'000'000L; k += 101) {
    expect_oracle(static_cast<double>(k) / 16.0);
  }
  // Integers around 2^53, where the integral path ends.
  for (long n = (1L << 53) - 2048; n <= (1L << 53) + 4096; ++n) {
    expect_oracle(static_cast<double>(n));  // above 2^53, even n only
    expect_oracle(-static_cast<double>(n));
  }
  for (const double v : {0.0, -0.0, 5e-324, -5e-324, DBL_MIN, DBL_MAX,
                         -DBL_MAX, 0.1, 1.0 / 3.0}) {
    expect_oracle(v);
  }
  EXPECT_EQ(shortest_double(-0.0), "-0");
  EXPECT_EQ(shortest_double(5e-324), "4.94065645841247e-324");
  EXPECT_EQ(shortest_double(DBL_MAX), "1.7976931348623157e+308");

  // The integer path ends at |v| < 2^53; the %g search takes over there.
  for (const double v :
       {9007199254740991.0, 9007199254740992.0, 9007199254740994.0,
        4503599627370495.5, 4503599627370496.0, 1e15, 1e16, 1e17, 1e22,
        123456789012345.0, 999999999999999.0, 0.5, 1.0, 0.0}) {
    expect_oracle(v);
    expect_oracle(-v);
  }
  EXPECT_EQ(shortest_double(9007199254740991.0), "9007199254740991");
  EXPECT_EQ(shortest_double(-9007199254740991.0), "-9007199254740991");
  EXPECT_EQ(shortest_double(9007199254740992.0), "9007199254740992");
  EXPECT_EQ(shortest_double(-9007199254740994.0), "-9007199254740994");
  // Two steps either side of every power of two, where the round-trip
  // interval is lopsided.
  for (int e = -1074; e <= 1023; e += 7) {
    const double p = std::ldexp(1.0, e);
    for (const double v :
         {std::nextafter(std::nextafter(p, 0.0), 0.0),
          std::nextafter(std::nextafter(p, HUGE_VAL), HUGE_VAL)}) {
      expect_oracle(v);
      expect_oracle(-v);
    }
  }
  // Values whose shortest round-trip form has exactly 15, 16 and 17
  // significant digits: the search starts at that count, and only 15 and
  // 16 are read back. Random k-digit decimals land in all three buckets.
  std::vector<long> by_digits(18, 0);
  std::mt19937_64 rng(1517);
  for (int k = 15; k <= 17; ++k) {
    for (int i = 0; i < 40'000; ++i) {
      std::string text(1, static_cast<char>('1' + rng() % 9));
      text += '.';
      for (int d = 1; d < k; ++d) {
        text += static_cast<char>('0' + rng() % 10);
      }
      text += 'e' + std::to_string(static_cast<int>(rng() % 600) - 300);
      const double v = std::strtod(text.c_str(), nullptr);
      char buf[32];
      const char* end = std::to_chars(buf, buf + sizeof(buf), v,
                                      std::chars_format::scientific)
                            .ptr;
      int digits = 0;
      for (const char* c = buf; c != end && *c != 'e'; ++c) {
        digits += (*c >= '0' && *c <= '9') ? 1 : 0;
      }
      ++by_digits[static_cast<std::size_t>(digits)];
      expect_oracle(v);
      expect_oracle(-v);
    }
  }
  EXPECT_GE(by_digits[15], 30'000);
  EXPECT_GE(by_digits[16], 30'000);
  EXPECT_GE(by_digits[17], 10'000);

  // Random subnormals, which keep the read-back search, and random decimals
  // of 1 to 17 digits laid out from their shortest digits: half with
  // three-digit exponents, half with exponents around %g's switch between
  // the fixed and the scientific form.
  for (int i = 0; i < 100'000; ++i) {
    const double v = std::bit_cast<double>(rng() & ((1ULL << 52) - 1));
    expect_oracle(v);
    expect_oracle(-v);
  }
  long three_digit_exponents = 0;
  for (int i = 0; i < 200'000; ++i) {
    const int k = 1 + static_cast<int>(rng() % 17);
    std::string text(1, static_cast<char>('1' + rng() % 9));
    text += '.';
    for (int d = 1; d < k; ++d) {
      text += static_cast<char>('0' + rng() % 10);
    }
    const int exponent =
        i % 2 == 0 ? static_cast<int>(100 + rng() % 208) * (rng() % 2 == 0 ? 1 : -1)
                   : static_cast<int>(rng() % 24) - 6;
    text += 'e' + std::to_string(exponent);
    const double v = std::strtod(text.c_str(), nullptr);
    const std::string got = shortest_double(v);
    three_digit_exponents += got.size() > 5 && got[got.size() - 5] == 'e' ? 1 : 0;
    expect_oracle(v);
    expect_oracle(-v);
  }
  EXPECT_EQ(three_digit_exponents, 100'000);
  EXPECT_EQ(failures, 0);
}

// --- CanonicalWriter -----------------------------------------------------

TEST(CanonicalWriter, StreamedTextEqualsCanonicalJsonOfTheDom) {
  report::CanonicalWriter w;
  w.begin_object()
      .key("B").number(-0.0)
      .key("a").begin_array()
          .number(1)
          .string("x\"y\n")
          .null()
          .boolean(false)
          .begin_object().end_object()
          .begin_array().end_array()
          .begin_object().key("k").number(0.1).end_object()
      .end_array()
      .key("ab").number(9007199254740993.0)
      .end_object();
  const JsonValue dom = parse_json(
      R"({"ab": 9007199254740993, "a": [1, "x\"y\n", null, false, {}, [],)"
      R"( {"k": 0.1}], "B": -0})");
  const std::string text = std::move(w).finish();
  EXPECT_EQ(text, canonical_json(dom));
  EXPECT_EQ(canonical_json(parse_json(text)), text);

  report::CanonicalWriter scalar;
  scalar.number(2.5);
  EXPECT_EQ(std::move(scalar).finish(), "2.5\n");
}

TEST(CanonicalWriter, RejectsKeysOutOfOrderAndBrokenStructure) {
  using Steps = std::function<void(report::CanonicalWriter&)>;
  const auto error = [](const Steps& f) {
    report::CanonicalWriter w;
    try {
      f(w);
      (void)std::move(w).finish();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(error([](auto& w) {
              w.begin_object().key("b").number(1).key("a").number(2);
            }),
            "CanonicalWriter: key \"a\" after \"b\" is not in ascending "
            "byte order");
  EXPECT_EQ(error([](auto& w) {
              w.begin_object().key("a").number(1).key("a").number(2);
            }),
            "CanonicalWriter: key \"a\" after \"a\" is not in ascending "
            "byte order");
  // Byte order: "B" (0x42) sorts before "a" (0x61), "a" before "ab".
  EXPECT_NE(error([](auto& w) {
              w.begin_object().key("a").null().key("B").null();
            }),
            "accepted");
  EXPECT_EQ(error([](auto& w) {
              w.begin_object().key("B").null().key("a").null().key("ab").null();
              w.end_object();
            }),
            "accepted");
  // Order is per object: a nested object starts afresh.
  EXPECT_EQ(error([](auto& w) {
              w.begin_object().key("m").begin_object().key("z").null();
              w.end_object().key("n").begin_object().key("a").null();
              w.end_object().end_object();
            }),
            "accepted");
  EXPECT_EQ(error([](auto& w) { w.begin_object().number(1); }),
            "CanonicalWriter: object value without a key");
  EXPECT_EQ(error([](auto& w) { w.begin_array().key("a"); }),
            "CanonicalWriter: key outside an object");
  EXPECT_EQ(error([](auto& w) { w.key("a"); }),
            "CanonicalWriter: key outside an object");
  EXPECT_EQ(error([](auto& w) { w.begin_object().key("a").key("b"); }),
            "CanonicalWriter: key outside an object");
  EXPECT_EQ(error([](auto& w) { w.begin_object().key("a").end_object(); }),
            "CanonicalWriter: unbalanced end of a container");
  EXPECT_EQ(error([](auto& w) { w.begin_array().end_object(); }),
            "CanonicalWriter: unbalanced end of a container");
  EXPECT_EQ(error([](auto& w) { w.end_array(); }),
            "CanonicalWriter: unbalanced end of a container");
  EXPECT_EQ(error([](auto& w) { w.number(1).number(2); }),
            "CanonicalWriter: a second root value");
  EXPECT_EQ(error([](auto& w) { w.begin_array(); }),
            "CanonicalWriter: document is not complete");
  EXPECT_EQ(error([](auto&) {}), "CanonicalWriter: document is not complete");
  EXPECT_EQ(error([](auto& w) { w.number(HUGE_VAL); }),
            "shortest_double: value must be finite");
}

// --- Spec: typed extraction with path-qualified errors --------------------

void expect_spec_error(const std::string& text,
                       const std::string& needle) {
  try {
    (void)Runner().run(Spec::parse(text));
    FAIL() << "expected SpecError for: " << text;
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message: " << e.what() << "\nexpected to contain: " << needle;
  }
}

TEST(Spec, RootMustBeObject) {
  EXPECT_THROW(Spec::parse("[1]"), SpecError);
  EXPECT_THROW(Spec::parse("42"), SpecError);
}

TEST(Spec, ExtractorsTypeCheckWithPaths) {
  const Spec spec = Spec::parse(
      R"({"a": 1.5, "b": "s", "c": {"d": [1, "x"]}, "e": 3, "f": true})");
  EXPECT_DOUBLE_EQ(spec.optional_double("a", 0.0), 1.5);
  EXPECT_EQ(spec.optional_int("e", 0), 3);
  EXPECT_EQ(spec.require_string("b"), "s");
  EXPECT_TRUE(spec.optional_bool("f", false));
  EXPECT_DOUBLE_EQ(spec.optional_double("missing", 7.0), 7.0);

  try {
    (void)spec.optional_double("b", 0.0);
    FAIL();
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), "$.b: expected a number, got string");
  }
  try {
    (void)spec.optional_int("a", 0);  // 1.5 is not an integer
    FAIL();
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("$.a: expected an integer"),
              std::string::npos);
  }
  try {
    (void)spec.child("c").optional_number_list("d", {});
    FAIL();
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), "$.c.d[1]: expected a number, got string");
  }
  try {
    (void)spec.optional_double_in("a", 2.5, 2.0, 3.0);
    FAIL();
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(), "$.a: 1.5 is outside [2, 3]");
  }
}

TEST(Spec, AllowOnlyNamesUnknownKeyAndValidSet) {
  const Spec spec = Spec::parse(R"({"sloar_share": 0.5})");
  try {
    spec.allow_only({"solar_share", "wind_share"});
    FAIL();
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(),
                 "$.sloar_share: unknown key; valid keys: solar_share, "
                 "wind_share");
  }
}

TEST(Spec, RunnerErrorsCarryFullJsonPath) {
  expect_spec_error(R"({"scenario": "fleet",
                        "params": {"grid": {"solar_share": "lots"}}})",
                    "$.params.grid.solar_share: expected a number, got string");
  expect_spec_error(R"({"scenario": "fleet", "params": {"pue": 0.5}})",
                    "$.params.pue: 0.5 is outside [1, 3]");
  expect_spec_error(R"({"scenario": "fleet", "params": {"dayz": 7}})",
                    "$.params.dayz: unknown key");
  expect_spec_error(R"({"scenario": "fleet",
                        "params": {"grid": {"name": "mars-fusion"}}})",
                    "unknown grid 'mars-fusion'; available: ");
  expect_spec_error(R"({"scenario": "cross_region_schedule", "params": {}})",
                    "$.params.regions: need at least one region grid");
  expect_spec_error(R"({"scenario": "fleet", "unknown_top": 1})",
                    "$.unknown_top: unknown key");
}

TEST(Spec, UnknownScenarioListsAvailable) {
  try {
    (void)Runner().run(Spec::parse(R"({"scenario": "warp_drive"})"));
    FAIL();
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown scenario 'warp_drive'"), std::string::npos);
    EXPECT_NE(msg.find("fleet"), std::string::npos);
    EXPECT_NE(msg.find("scaling_sweep"), std::string::npos);
  }
}

// --- Characterization: every schema error text, pinned in full ------------

// The SpecError message a spec fails with ("" when it runs).
std::string spec_error(const std::string& text) {
  try {
    (void)Runner().run_text(text);
  } catch (const SpecError& e) {
    return e.what();
  }
  return "";
}

// For each adapter and each declared sub-object, the full unknown-key
// message and one out-of-range message, plus type and catalog-lookup texts.
// A refactor of how params are declared must leave every one of these
// byte-identical; "valid keys" lists follow the param table's declaration
// order.
struct PinnedError {
  const char* scenario;
  const char* params;
  const char* message;
};

TEST(SpecErrors, ScenarioErrorTextsArePinned) {
  const PinnedError cases[] = {
      {"fleet", R"({"dayz": 7})",
       "$.params.dayz: unknown key; valid keys: days, step_min, chunk_steps,"
       " autoscaler, opportunistic, opportunistic_utilization,"
       " checkpoint_segments, pue, cfe, web_servers, train_servers,"
       " train_utilization, web_load, grid, faults"},
      {"fleet", R"({"days": 0})",
       "$.params.days: 0 is outside [0.01, 3650]"},
      {"planet", R"({"yearz": 1})",
       "$.params.yearz: unknown key; valid keys: years, step_min,"
       " chunk_steps, pue, cfe, autoscaler, opportunistic,"
       " opportunistic_utilization, checkpoint_segments, regions"},
      {"planet", R"({"years": 200, "regions": [{}]})",
       "$.params.years: 200 is outside [0.001, 100]"},
      {"queue_schedule", R"({"jobz": 1})",
       "$.params.jobz: unknown key; valid keys: jobs, power_kw, duration_h,"
       " slack_h, arrival_spread_h, machines, step_min, pue,"
       " green_threshold_g_per_kwh, max_horizon_days, policies,"
       " checkpoint_segments, grid, faults"},
      {"queue_schedule", R"({"machines": 0})",
       "$.params.machines: 0 is outside [1, 1000000]"},
      {"cross_region_schedule", R"({"polcy": "fifo"})",
       "$.params.polcy: unknown key; valid keys: jobs, power_kw, duration_h,"
       " slack_h, arrival_spread_h, policy, threshold_g_per_kwh,"
       " probe_step_min, pue, regions, faults"},
      {"cross_region_schedule", R"({"probe_step_min": 0, "regions": [{}]})",
       "$.params.probe_step_min: 0 is outside [0.1, 1440]"},
      {"fl_rounds", R"({"clients": 5})",
       "$.params.clients: unknown key; valid keys: name, clients_per_round,"
       " rounds_per_day, days, model_mb, compute_min, seed, grid,"
       " device_power_w, router_power_w, include_baselines, population,"
       " faults"},
      {"fl_rounds", R"({"rounds_per_day": 0})",
       "$.params.rounds_per_day: 0 is outside [0.001, 100000]"},
      {"lifecycle_estimate", R"({"modle": "LM"})",
       "$.params.modle: unknown key; valid keys: model, device, grid, pue,"
       " cfe, utilization, fleet_utilization, window_days, custom, faults"},
      {"lifecycle_estimate", R"({"window_days": 0.5})",
       "$.params.window_days: 0.5 is outside [1, 36500]"},
      {"scaling_sweep", R"({"laws": {}})",
       "$.params.laws: unknown key; valid keys: data_factors, model_factors,"
       " law, faults"},
      {"scaling_sweep", R"({"law": {"model_energy_exponent": 4}})",
       "$.params.law.model_energy_exponent: 4 is outside [0, 3]"},
      {"fleet", R"({"grid": {"sloar_share": 0.5}})",
       "$.params.grid.sloar_share: unknown key; valid keys: name,"
       " solar_share, wind_share, firm_share, sunrise_hour, sunset_hour, seed"},
      {"fleet", R"({"grid": {"solar_share": 2}})",
       "$.params.grid.solar_share: 2 is outside [0, 1]"},
      {"fleet", R"({"faults": {"host_crash": 1}})",
       "$.params.faults.host_crash: unknown key; valid keys:"
       " host_crash_per_day,"
       " preemption_per_day, sdc_per_day, grid_gap_per_day, crash_rewarm_min,"
       " gap_duration_min, max_retries, backoff_min, backoff_multiplier,"
       " checkpoint_interval_min, checkpoint_cost_s, sdc_detection_coverage,"
       " seed"},
      {"fleet", R"({"faults": {"backoff_multiplier": 0.5}})",
       "$.params.faults.backoff_multiplier: 0.5 is outside [1, 100]"},
      {"fleet", R"({"web_load": {"trof": 0.1}})",
       "$.params.web_load.trof: unknown key; valid keys: trough, peak,"
       " peak_hour"},
      {"fleet", R"({"web_load": {"peak": 2}})",
       "$.params.web_load.peak: 2 is outside [0, 1]"},
      {"planet", R"({"regions": [{"nmae": "x"}]})",
       "$.params.regions[0].nmae: unknown key; valid keys: name,"
       " utc_offset_h, pue, cfe, web_servers, train_servers,"
       " train_utilization, web_load, grid, faults"},
      {"planet", R"({"regions": [{"utc_offset_h": 25}]})",
       "$.params.regions[0].utc_offset_h: 25 is outside [0, 24]"},
      {"planet", R"({"regions": [{"grid": {"wind": 1}}]})",
       "$.params.regions[0].grid.wind: unknown key; valid keys: name,"
       " solar_share, wind_share, firm_share, sunrise_hour, sunset_hour, seed"},
      {"planet", R"({"regions": [{"faults": {"sdc_detection_coverage": 1}}]})",
       "$.params.regions[0].faults.sdc_detection_coverage: 1 is outside [0,"
       " 0.999]"},
      {"cross_region_schedule", R"({"regions": [{"nmae": "x"}]})",
       "$.params.regions[0].nmae: unknown key; valid keys: name, solar_share,"
       " wind_share, firm_share, sunrise_hour, sunset_hour, seed"},
      {"cross_region_schedule", R"({"regions": [{"sunset_hour": 25}]})",
       "$.params.regions[0].sunset_hour: 25 is outside [0, 24]"},
      {"fl_rounds", R"({"population": {"clients": 5}})",
       "$.params.population.clients: unknown key; valid keys: num_clients,"
       " speed_sigma, median_download_mbps, median_upload_mbps,"
       " bandwidth_sigma, dropout_probability, seed"},
      {"fl_rounds", R"({"population": {"dropout_probability": 2}})",
       "$.params.population.dropout_probability: 2 is outside [0, 1]"},
      {"scaling_sweep", R"({"law": {"floor": 1}})",
       "$.params.law.floor: unknown key; valid keys: ne_floor, data_coeff,"
       " data_exp, model_coeff, model_exp, model_energy_exponent"},
      {"scaling_sweep", R"({"law": {"ne_floor": 11}})",
       "$.params.law.ne_floor: 11 is outside [0, 10]"},
      {"lifecycle_estimate",
       R"({"model": "custom", "custom": {"dataa_gpu_days": 1}})",
       "$.params.custom.dataa_gpu_days: unknown key; valid keys: name,"
       " data_gpu_days, experimentation_gpu_days, offline_training_gpu_days,"
       " online_training_gpu_days, inference_gpu_days"},
      {"lifecycle_estimate",
       R"({"model": "custom", "custom": {"data_gpu_days": -1}})",
       "$.params.custom.data_gpu_days: -1 is outside [0, 1000000000]"},
      {"fleet", R"({"checkpoint_segments": 99})",
       "$.params.checkpoint_segments: 99 is outside [1, 2]"},
      {"planet", R"({"regions": []})",
       "$.params.regions: need 1 to 10000 regions, got 0"},
      {"fleet", R"({"grid": {"seed": 1.5}})",
       "$.params.grid.seed: expected an integer, got 1.5"},
      {"fleet", R"({"autoscaler": 1})",
       "$.params.autoscaler: expected a bool, got number"},
      {"queue_schedule", R"({"policies": ["lifo"]})",
       "$.params.policies: unknown policy 'lifo'; available: fifo,"
       " greedy_green"},
      {"cross_region_schedule", R"({"policy": "lifo", "regions": [{}]})",
       "$.params.policy: unknown policy 'lifo'; available: fifo, threshold,"
       " forecast"},
      {"lifecycle_estimate", R"({"device": "tpu9"})",
       "$.params.device: unknown device 'tpu9'; available: nvidia-p100,"
       " nvidia-v100, nvidia-a100, tpu-like, cpu-server-28c"},
      {"lifecycle_estimate", R"({"model": "GPT-9"})",
       "$.params.model: unknown model 'GPT-9'; available: LM, RM1, RM2, RM3,"
       " RM4, RM5, custom"},
      {"fl_rounds", R"({"grid": "mars"})",
       "$.params.grid: unknown grid 'mars'; available: us-average,"
       " us-midwest-coal, us-west-solar, nordic-hydro, asia-pacific,"
       " hydro-quebec"},
      {"scaling_sweep", R"({"data_factors": [1, "x"]})",
       "$.params.data_factors[1]: expected a number, got string"},
      {"scaling_sweep", R"({"model_factors": [0]})",
       "$.params.model_factors: factors must be positive"},
      {"queue_schedule", R"({"policies": "fifo"})",
       "$.params.policies: expected an array, got string"},
      {"fleet", R"({"grid": {"name": "mars-fusion"}})",
       "$.params.grid.name: unknown grid 'mars-fusion'; available: us-average,"
       " us-midwest-coal, us-west-solar, nordic-hydro, asia-pacific,"
       " hydro-quebec"},
  };
  for (const PinnedError& c : cases) {
    const std::string text = std::string(R"({"scenario": ")") + c.scenario +
                             R"(", "params": )" + c.params + "}";
    EXPECT_EQ(spec_error(text), c.message) << text;
  }
}

TEST(SpecErrors, RunnerErrorTextsArePinned) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"scenario": "fleet", "artifacts": {"traces": true}})",
       "$.artifacts.traces: unknown key; valid keys: trace, metrics"},
      {R"({"scenario": "fleet", "unknown_top": 1})",
       "$.unknown_top: unknown key; valid keys: scenario, seed, params,"
       " artifacts, checkpoint_segments"},
      {R"({"scenario": "fleet", "seed": -1})",
       "$.seed: -1 is outside [0, 4611686018427387904]"},
      {R"({"scenario": "fleet", "checkpoint_segments": 0})",
       "$.checkpoint_segments: 0 is outside [1, 1000000]"},
  };
  for (const auto& [text, message] : cases) {
    EXPECT_EQ(spec_error(text), message) << text;
  }
}

// The whole declared tree is checked, whichever branch the adapter reads.
TEST(SpecErrors, CustomBlockIsCheckedForCatalogModels) {
  EXPECT_EQ(spec_error(R"({"scenario": "lifecycle_estimate",
                          "params": {"model": "LM",
                                     "custom": {"dataa_gpu_days": 1}}})"),
            "$.params.custom.dataa_gpu_days: unknown key; valid keys: name,"
            " data_gpu_days, experimentation_gpu_days,"
            " offline_training_gpu_days, online_training_gpu_days,"
            " inference_gpu_days");
}

TEST(SpecErrors, ThresholdIsRangeCheckedForEveryPolicy) {
  EXPECT_EQ(spec_error(R"({"scenario": "cross_region_schedule",
                          "params": {"policy": "forecast",
                                     "threshold_g_per_kwh": 6000,
                                     "regions": [{}]}})"),
            "$.params.threshold_g_per_kwh: 6000 is outside [0, 5000]");
}

// --- Registry round-trip for every built-in simulation --------------------

const char* minimal_spec(const std::string& name) {
  if (name == "cross_region_schedule") {
    return R"({"scenario": "cross_region_schedule",
               "params": {"regions": [{"name": "us-west-solar"},
                                      {"name": "nordic-hydro"}]}})";
  }
  if (name == "fleet") {
    return R"({"scenario": "fleet", "params": {"days": 2}})";
  }
  if (name == "queue_schedule") {
    return R"({"scenario": "queue_schedule", "params": {"jobs": 12}})";
  }
  if (name == "fl_rounds") {
    return R"({"scenario": "fl_rounds",
               "params": {"days": 3, "population": {"num_clients": 500}}})";
  }
  if (name == "lifecycle_estimate") {
    return R"({"scenario": "lifecycle_estimate", "params": {"model": "LM"}})";
  }
  if (name == "scaling_sweep") {
    return R"({"scenario": "scaling_sweep",
               "params": {"data_factors": [1, 2, 4],
                          "model_factors": [1, 2, 4]}})";
  }
  if (name == "planet") {
    return R"({"scenario": "planet",
               "params": {"years": 0.02, "chunk_steps": 16,
                          "regions": [{"grid": {"name": "us-west-solar"}},
                                      {"grid": {"name": "nordic-hydro"},
                                       "utc_offset_h": 8}]}})";
  }
  ADD_FAILURE() << "no minimal spec for " << name;
  return "{}";
}

TEST(Registry, HasExactlyTheSevenBuiltins) {
  const std::vector<std::string> expected = {
      "cross_region_schedule", "fl_rounds",      "fleet",
      "lifecycle_estimate",    "planet",         "queue_schedule",
      "scaling_sweep"};
  std::vector<std::string> actual;
  for (const scenario::Simulation* sim : Registry::global().simulations()) {
    actual.push_back(sim->name());
  }
  EXPECT_EQ(actual, expected);
}

TEST(Registry, EverySimulationRunsFromJsonAndRoundTrips) {
  const Runner runner;
  for (const scenario::Simulation* sim : Registry::global().simulations()) {
    SCOPED_TRACE(sim->name());
    EXPECT_FALSE(sim->description().empty());
    EXPECT_FALSE(sim->params().empty());

    const std::string text = minimal_spec(sim->name());
    const Bundle bundle = runner.run_text(text);
    EXPECT_EQ(bundle.result.scenario, sim->name());
    EXPECT_FALSE(bundle.result.summary_rows.empty());

    // result.json parses back and is canonical.
    const scenario::Artifact* result = bundle.find("result.json");
    ASSERT_NE(result, nullptr);
    const JsonValue parsed = parse_json(result->content);
    EXPECT_EQ(parsed.find("scenario")->as_string(), sim->name());
    EXPECT_EQ(canonical_json(parsed), result->content);

    // spec.json is the canonical re-emission: parsing it and re-running
    // reproduces the identical bundle (spec -> run -> spec fixed point).
    const scenario::Artifact* spec_out = bundle.find("spec.json");
    ASSERT_NE(spec_out, nullptr);
    EXPECT_EQ(canonical_json(parse_json(spec_out->content)),
              spec_out->content);
    const Bundle again = runner.run_text(spec_out->content);
    ASSERT_EQ(again.files.size(), bundle.files.size());
    for (std::size_t i = 0; i < bundle.files.size(); ++i) {
      EXPECT_EQ(again.files[i].filename, bundle.files[i].filename);
      EXPECT_EQ(again.files[i].content, bundle.files[i].content);
    }
  }
}

// --- Param tables: one declaration per parameter --------------------------

// Sets the dotted `path` in `node` to `value` unless it is already set,
// creating sub-objects on the way; "key[i]" sets it in every item of an
// existing list at `key`.
void set_missing(JsonValue& node, const std::string& path,
                 const JsonValue& value) {
  const std::size_t cut = path.find_first_of(".[");
  const std::string key = path.substr(0, cut);
  if (cut == std::string::npos) {
    if (node.find(key) == nullptr) {
      node.set(key, value);
    }
    return;
  }
  if (path[cut] == '[') {
    if (node.find(key) == nullptr) {
      return;
    }
    JsonValue items = JsonValue::array();
    for (JsonValue item : node.find(key)->items()) {
      set_missing(item, path.substr(cut + 4), value);
      items.append(std::move(item));
    }
    node.set(key, std::move(items));
    return;
  }
  if (node.find(key) == nullptr) {
    node.set(key, JsonValue::object());
  }
  set_missing(*node.find(key), path.substr(cut + 1), value);
}

std::vector<std::string> prefixed(const std::string& prefix,
                                  const std::vector<std::string>& keys) {
  std::vector<std::string> out;
  for (const std::string& k : keys) {
    out.push_back(prefix + k);
  }
  return out;
}

std::vector<std::string> joined(
    std::initializer_list<std::vector<std::string>> parts) {
  std::vector<std::string> out;
  for (const std::vector<std::string>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

// Every param each built-in documents, in listing order: the set documented
// before the param tables, plus lifecycle_estimate's custom.name, which the
// adapter always read.
TEST(ParamTable, DocumentedParamsArePinned) {
  const std::vector<std::string> grid = {"name",         "solar_share",
                                         "wind_share",   "firm_share",
                                         "sunrise_hour", "sunset_hour",
                                         "seed"};
  const std::vector<std::string> faults = prefixed(
      "faults.",
      {"host_crash_per_day", "preemption_per_day", "sdc_per_day",
       "grid_gap_per_day", "crash_rewarm_min", "gap_duration_min",
       "max_retries", "backoff_min", "backoff_multiplier",
       "checkpoint_interval_min", "checkpoint_cost_s",
       "sdc_detection_coverage", "seed"});
  const auto region = [&](const std::string& p) {
    return joined({prefixed(p, {"pue", "cfe", "web_servers", "train_servers",
                                "train_utilization", "web_load.trough",
                                "web_load.peak", "web_load.peak_hour"}),
                   prefixed(p + "grid.", grid), prefixed(p, faults)});
  };
  const std::vector<std::string> fleet_run = {
      "autoscaler", "opportunistic", "opportunistic_utilization",
      "checkpoint_segments"};
  const std::vector<std::string> jobs = {"jobs", "power_kw", "duration_h",
                                         "slack_h", "arrival_spread_h"};
  const std::map<std::string, std::vector<std::string>> expected = {
      {"fleet",
       joined({{"days", "step_min", "chunk_steps"}, fleet_run, region("")})},
      {"planet",
       joined({{"years", "step_min", "chunk_steps", "pue", "cfe"},
               fleet_run,
               {"regions", "regions[i].name", "regions[i].utc_offset_h"},
               region("regions[i].")})},
      {"queue_schedule",
       joined({jobs,
               {"machines", "step_min", "pue", "green_threshold_g_per_kwh",
                "max_horizon_days", "policies", "checkpoint_segments"},
               prefixed("grid.", grid), faults})},
      {"cross_region_schedule",
       joined({jobs,
               {"policy", "threshold_g_per_kwh", "probe_step_min", "pue",
                "regions"},
               prefixed("regions[i].", grid), faults})},
      {"fl_rounds",
       joined({{"name", "clients_per_round", "rounds_per_day", "days",
                "model_mb", "compute_min", "seed", "grid", "device_power_w",
                "router_power_w", "include_baselines"},
               prefixed("population.",
                        {"num_clients", "speed_sigma", "median_download_mbps",
                         "median_upload_mbps", "bandwidth_sigma",
                         "dropout_probability", "seed"}),
               faults})},
      {"lifecycle_estimate",
       joined({{"model", "device", "grid", "pue", "cfe", "utilization",
                "fleet_utilization", "window_days"},
               prefixed("custom.",
                        {"name", "data_gpu_days", "experimentation_gpu_days",
                         "offline_training_gpu_days",
                         "online_training_gpu_days", "inference_gpu_days"}),
               faults})},
      {"scaling_sweep",
       joined({{"data_factors", "model_factors"},
               prefixed("law.", {"ne_floor", "data_coeff", "data_exp",
                                 "model_coeff", "model_exp",
                                 "model_energy_exponent"}),
               faults})},
  };
  for (const scenario::Simulation* sim : Registry::global().simulations()) {
    std::vector<std::string> names;
    for (const ParamDoc& doc : sim->params()) {
      names.push_back(doc.name);
    }
    EXPECT_EQ(names, expected.at(sim->name())) << sim->name();
  }
}

// Accepted equals documented: a spec setting any one documented param
// passes the table check, and an undocumented key next to any documented
// one fails it by name.
TEST(ParamTable, AcceptsExactlyTheDocumentedPaths) {
  for (const scenario::Simulation* sim : Registry::global().simulations()) {
    for (const ParamDoc& doc : sim->params()) {
      SCOPED_TRACE(sim->name() + " " + doc.name);
      JsonValue value = JsonValue::number(doc.min);
      switch (doc.kind) {
        case ParamDoc::Kind::kBool:
          value = JsonValue::boolean(false);
          break;
        case ParamDoc::Kind::kString:
          value = JsonValue::string("x");
          break;
        case ParamDoc::Kind::kNumberList:
          value = JsonValue::array().append(JsonValue::number(1));
          break;
        case ParamDoc::Kind::kStringList:
          value = JsonValue::array().append(JsonValue::string("x"));
          break;
        case ParamDoc::Kind::kObjectList:
          value = JsonValue::array();
          break;
        default:
          break;
      }
      const auto with = [&](const std::string& path, const JsonValue& v) {
        JsonValue params = JsonValue::object();
        if (const std::size_t i = path.find("[i]"); i != std::string::npos) {
          params.set(path.substr(0, i),
                     JsonValue::array().append(JsonValue::object()));
        }
        set_missing(params, path, v);
        return Spec::from_value(std::move(params));
      };
      EXPECT_NO_THROW(Params(with(doc.name, value), sim->params()));
      const std::string sibling =
          doc.name.substr(0, doc.name.find_last_of('.') + 1) + "not_a_param";
      try {
        (void)Params(with(sibling, JsonValue::number(1)), sim->params());
        ADD_FAILURE() << sibling << " was accepted";
      } catch (const SpecError& e) {
        EXPECT_NE(std::string(e.what()).find("not_a_param: unknown key"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

// A read must match its row: the key declared, the kind, and a fallback or
// bound passed only where the row documents one computed at the read.
TEST(ParamTable, ReadsOtherThanDeclaredAreProgramErrors) {
  std::vector<ParamDoc> table = {
      ParamDoc::number("x", 1, 0, 2, "static default"),
      ParamDoc::integer("n", 1, 1, 9, "static bound"),
  };
  table.push_back({.name = "seed", .kind = ParamDoc::Kind::kInt, .max = 9,
                   .default_doc = "the run seed"});
  const Params p(Spec::parse(R"({"x": 2})"), table);
  EXPECT_EQ(p.number("x"), 2.0);
  EXPECT_EQ(p.integer("seed", 7), 7);
  EXPECT_THROW((void)p.number("y"), std::logic_error);
  EXPECT_THROW((void)p.integer("x"), std::logic_error);
  EXPECT_THROW((void)p.number("x", 1.5), std::logic_error);
  EXPECT_THROW((void)p.integer("seed"), std::logic_error);
  EXPECT_THROW((void)p.integer("n", {}, 5), std::logic_error);
}

// Every default as documented, written out, reproduces the minimal spec's
// result: the listing states the very values the reads use.
TEST(ParamTable, DocumentedDefaultsReproduceTheMinimalSpec) {
  const Runner runner;
  for (const scenario::Simulation* sim : Registry::global().simulations()) {
    SCOPED_TRACE(sim->name());
    const std::string minimal = minimal_spec(sim->name());
    JsonValue spec = parse_json(minimal);
    JsonValue params = *spec.find("params");
    for (const ParamDoc& doc : sim->params()) {
      if (doc.fallback.is_null() || !doc.default_doc.empty()) {
        continue;  // required, or computed by the run
      }
      set_missing(params, doc.name,
                  doc.kind == ParamDoc::Kind::kString
                      ? JsonValue::string(doc.default_text())
                      : parse_json(doc.default_text()));
    }
    spec.set("params", std::move(params));
    EXPECT_EQ(runner.run(Spec::from_value(std::move(spec)))
                  .find("result.json")
                  ->content,
              runner.run_text(minimal).find("result.json")->content);
  }
}

// --- Determinism: byte-identical bundle at any thread count ---------------

TEST(Runner, FleetBundleByteIdenticalAcrossThreadCounts) {
  const char* spec_text = R"({
    "scenario": "fleet",
    "seed": 42,
    "params": {"days": 3, "chunk_steps": 16},
    "artifacts": {"trace": true, "metrics": true}
  })";
  const Runner runner;

  exec::ThreadPool one(1);
  const Bundle base = runner.run_text(spec_text, &one);
  ASSERT_NE(base.find("result.json"), nullptr);
  ASSERT_NE(base.find("trace.json"), nullptr);
  ASSERT_NE(base.find("metrics.prom"), nullptr);

  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    exec::ThreadPool pool(threads);
    const Bundle other = runner.run_text(spec_text, &pool);
    ASSERT_EQ(other.files.size(), base.files.size());
    for (std::size_t i = 0; i < base.files.size(); ++i) {
      EXPECT_EQ(other.files[i].filename, base.files[i].filename);
      EXPECT_EQ(other.files[i].content, base.files[i].content)
          << base.files[i].filename;
    }
  }
}

TEST(Runner, SeedChangesTheResult) {
  const Runner runner;
  const Bundle a = runner.run_text(
      R"({"scenario": "fleet", "seed": 1, "params": {"days": 2}})");
  const Bundle b = runner.run_text(
      R"({"scenario": "fleet", "seed": 2, "params": {"days": 2}})");
  EXPECT_NE(a.find("result.json")->content, b.find("result.json")->content);
}

TEST(Runner, WriteCreatesEveryArtifact) {
  const Bundle bundle = Runner().run_text(
      R"({"scenario": "scaling_sweep", "params": {}})");
  const std::string dir =
      ::testing::TempDir() + "/sustainai_scenario_write_test";
  std::string error;
  ASSERT_TRUE(Runner::write(bundle, dir, &error)) << error;
  for (const scenario::Artifact& f : bundle.files) {
    std::ifstream in(dir + "/" + f.filename, std::ios::binary);
    std::ostringstream read_back;
    read_back << in.rdbuf();
    EXPECT_EQ(read_back.str(), f.content) << f.filename;
  }
}

}  // namespace
}  // namespace sustainai

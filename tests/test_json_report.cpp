// Tests for the JSON emitter and the run-report serialisation.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "common/error.h"
#include "common/json.h"
#include "core/parallel_methodology.h"
#include "sim/report.h"
#include "sim/simulator.h"
#include "vehicle/drive_cycle.h"
#include "vehicle/powertrain.h"

namespace otem {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Json().dump(0), "null");
  EXPECT_EQ(Json(true).dump(0), "true");
  EXPECT_EQ(Json(false).dump(0), "false");
  EXPECT_EQ(Json(3.5).dump(0), "3.5");
  EXPECT_EQ(Json(42).dump(0), "42");
  EXPECT_EQ(Json("hi").dump(0), "\"hi\"");
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(Json(std::nan("")).dump(0), "null");
  EXPECT_EQ(Json(1.0 / 0.0).dump(0), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json("a\"b\\c\nd").dump(0), "\"a\\\"b\\\\c\\nd\"");
  EXPECT_EQ(Json(std::string(1, '\x01')).dump(0), "\"\\u0001\"");
}

TEST(Json, CompactObjectAndArray) {
  Json obj = Json::object();
  obj.set("a", 1).set("b", Json::array().push(1).push("x"));
  EXPECT_EQ(obj.dump(0), "{\"a\":1,\"b\":[1,\"x\"]}");
  EXPECT_EQ(obj.size(), 2u);
}

TEST(Json, SetOverwritesExistingKey) {
  Json obj = Json::object();
  obj.set("k", 1);
  obj.set("k", 2);
  EXPECT_EQ(obj.dump(0), "{\"k\":2}");
}

TEST(Json, PrettyPrintIndents) {
  Json obj = Json::object();
  obj.set("a", 1);
  EXPECT_EQ(obj.dump(2), "{\n  \"a\": 1\n}");
}

TEST(Json, TypeMisuseThrows) {
  Json num(1.0);
  EXPECT_THROW(num.set("k", 2), SimError);
  EXPECT_THROW(num.push(2), SimError);
}

TEST(Json, NumbersHelper) {
  EXPECT_EQ(Json::numbers({1.0, 2.5}).dump(0), "[1,2.5]");
}

// --- number formatting ------------------------------------------------------
// Every JSON document the repository writes prints its numbers exactly as
// printf's "%.12g" does: reports, replies and summaries are compared as
// bytes, so the spelling is part of their format.

std::string printf_12g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void expect_printf_12g(double v) {
  EXPECT_EQ(Json(v).dump(0), printf_12g(v))
      << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
}

TEST(JsonNumbers, ExtremesAndSignedZero) {
  using lim = std::numeric_limits<double>;
  for (double v : {0.0, -0.0, lim::denorm_min(), DBL_MIN, DBL_MAX,
                   std::nextafter(DBL_MIN, 0.0), lim::epsilon()}) {
    expect_printf_12g(v);
    expect_printf_12g(-v);
  }
  EXPECT_EQ(Json(-0.0).dump(0), "-0");
}

TEST(JsonNumbers, FixedExponentBoundaries) {
  // %g switches between fixed and exponent notation at a decimal
  // exponent of -5 and at the precision (12); 1e15/1e16 bracket the
  // magnitudes where doubles stop holding every integer digit. Probe
  // each boundary a few ulps either side, and at the 12-digit values
  // that round onto or just below it.
  for (double b : {1e-5, 1e-4, 1e11, 1e12, 1e15, 1e16}) {
    for (double v : {b, b * (1.0 - 5e-13), b * (1.0 - 4.9e-13),
                     b * (1.0 - 5.1e-13), b * (1.0 - 1e-12),
                     b * (1.0 + 5e-12)}) {
      double up = v;
      double down = v;
      for (int ulp = 0; ulp < 8; ++ulp) {
        for (double w : {up, down}) {
          expect_printf_12g(w);
          expect_printf_12g(-w);
        }
        up = std::nextafter(up, DBL_MAX);
        down = std::nextafter(down, 0.0);
      }
    }
  }
}

TEST(JsonNumbers, TwelveDigitHalfwayCases) {
  // Exactly representable 13-digit values ending in 5: ties at the
  // twelfth digit, which printf rounds half to even on the exact
  // binary value.
  for (double v : {1234567890.125, 1234567890.375, 0.5, 2.5, 1.25e-1,
                   1234567890125.0, 1234567890135.0, 9999999999995.0,
                   9999999999985.0, 4503599627370.5, 0.0009765625}) {
    expect_printf_12g(v);
    expect_printf_12g(-v);
  }
  // Decimal ties that are not exact in binary fall either side.
  for (double v : {0.1234567890125, 1.0000000000005, 299.9999999995,
                   2.0000000000015e-7, 7.7777777777775e200}) {
    expect_printf_12g(v);
    expect_printf_12g(std::nextafter(v, 0.0));
    expect_printf_12g(std::nextafter(v, DBL_MAX));
  }
}

TEST(JsonNumbers, IntegersUpToTwoToThe53) {
  for (int e = 0; e <= 53; ++e) {
    const double p = std::ldexp(1.0, e);
    expect_printf_12g(p);
    expect_printf_12g(p - 1.0);
    expect_printf_12g(-(p + 1.0));
  }
  double ten = 1.0;
  for (int e = 0; e <= 16; ++e, ten *= 10.0) {
    expect_printf_12g(ten);
    expect_printf_12g(ten - 1.0);
    expect_printf_12g(ten + 1.0);
  }
  for (long long v : {7LL, 98LL, 617LL, 20000LL, 999999999999LL,
                      1000000000001LL, 123456789012345LL})
    expect_printf_12g(static_cast<double>(v));
}

TEST(JsonNumbers, SeededDoublesAcrossTheExponentRange) {
  // 100 000 uniformly random bit patterns (every binary exponent is
  // equally likely, subnormals included) and 100 000 values built from
  // 13 random decimal digits, which sit on or next to a twelfth-digit
  // tie far more often than random bits do.
  std::mt19937_64 rng(20161);
  for (int i = 0; i < 100000; ++i) {
    const auto v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) expect_printf_12g(v);
  }
  std::uniform_int_distribution<long long> digits(1000000000000LL,
                                                  9999999999999LL);
  std::uniform_int_distribution<int> exponent(-320, 295);
  for (int i = 0; i < 100000; ++i) {
    char text[40];
    std::snprintf(text, sizeof(text), "%llde%d", digits(rng), exponent(rng));
    expect_printf_12g(std::strtod(text, nullptr));
  }
}

// append_g17 is the one 17-digit writer (campaign ids and fingerprints,
// fabric and serve override strings): its bytes must be printf's
// "%.17g", which the spellings persisted before it were.

std::string printf_format(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

std::string g17(double v) {
  std::string out;
  append_g17(out, v);
  return out;
}

void expect_printf_17g(double v) {
  EXPECT_EQ(g17(v), printf_format("%.17g", v))
      << "bits 0x" << std::hex << std::bit_cast<std::uint64_t>(v);
}

TEST(JsonNumbers, G17MatchesPrintfAtBoundariesAndExtremes) {
  using lim = std::numeric_limits<double>;
  for (double v : {0.0, lim::denorm_min(), DBL_MIN, DBL_MAX, lim::epsilon(),
                   std::nextafter(DBL_MIN, 0.0), lim::infinity(), 0.1, 0.3,
                   1.0 / 3.0, 2.0 / 3.0, 298.15, 273.15 + 25.0}) {
    expect_printf_17g(v);
    expect_printf_17g(-v);
  }
  for (double b : {1e-5, 1e-4, 1e15, 1e16, 1e17, 1e18}) {
    double up = b;
    double down = b;
    for (int ulp = 0; ulp < 16; ++ulp) {
      for (double w : {up, down}) {
        expect_printf_17g(w);
        expect_printf_17g(-w);
      }
      up = std::nextafter(up, DBL_MAX);
      down = std::nextafter(down, 0.0);
    }
  }
  EXPECT_EQ(g17(-0.0), "-0");
  EXPECT_EQ(g17(lim::quiet_NaN()), printf_format("%.17g", lim::quiet_NaN()));
  EXPECT_EQ(g17(-lim::quiet_NaN()),
            printf_format("%.17g", -lim::quiet_NaN()));
}

TEST(JsonNumbers, G17MatchesPrintfOnSeededDoubles) {
  // 200 000 uniformly random bit patterns (every binary exponent
  // equally likely, subnormals included) and 100 000 values built from
  // 18 random decimal digits, which sit on or next to a 17th-digit tie
  // far more often than random bits do.
  std::mt19937_64 rng(17171);
  for (int i = 0; i < 200000; ++i) {
    const auto v = std::bit_cast<double>(rng());
    if (std::isfinite(v)) expect_printf_17g(v);
  }
  std::uniform_int_distribution<long long> digits(100000000000000000LL,
                                                  999999999999999999LL);
  std::uniform_int_distribution<int> exponent(-325, 290);
  for (int i = 0; i < 100000; ++i) {
    char text[48];
    std::snprintf(text, sizeof(text), "%llde%d", digits(rng), exponent(rng));
    expect_printf_17g(std::strtod(text, nullptr));
  }
}

TEST(JsonNumbers, G17SpellsIntegralValuesLikePrintf0f) {
  // Serve overrides used to print an integral value below 1e15 with
  // "%.0f" and everything else with "%.17g"; one writer now does both,
  // so below 1e15 the two spellings must agree. 200 000 seeded integers
  // spread over every magnitude, plus each power of ten and two.
  std::mt19937_64 rng(15);
  std::uniform_int_distribution<int> magnitude(0, 49);
  for (int i = 0; i < 200000; ++i) {
    const auto bound = static_cast<std::uint64_t>(std::ldexp(1.0, magnitude(rng)));
    const double v = static_cast<double>(rng() % (bound + 1));
    for (double w : {v, -v}) {
      EXPECT_EQ(g17(w), printf_format("%.0f", w)) << w;
    }
  }
  double ten = 1.0;
  for (int e = 0; e < 15; ++e, ten *= 10.0)
    for (double w : {ten, ten - 1.0, ten + 1.0, -ten})
      EXPECT_EQ(g17(w), printf_format("%.0f", w)) << w;
  for (int e = 0; e < 50; ++e) {
    const double p = std::ldexp(1.0, e);
    EXPECT_EQ(g17(p), printf_format("%.0f", p)) << p;
  }
  EXPECT_EQ(g17(-0.0), printf_format("%.0f", -0.0));
}

TEST(JsonReport, RunReportRoundtripsToFile) {
  const core::SystemSpec spec = core::SystemSpec::from_config(Config());
  const TimeSeries power =
      vehicle::Powertrain(spec.vehicle)
          .power_trace(vehicle::generate(vehicle::CycleName::kNycc));
  core::ParallelMethodology m(spec);
  const sim::RunResult r = sim::Simulator(spec).run(m, power);

  const std::string path = ::testing::TempDir() + "otem_report.json";
  sim::write_run_report(path, spec, "parallel", r, true);

  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  // Spot checks: keys and trace arrays present, syntax sane.
  EXPECT_NE(text.find("\"methodology\": \"parallel\""), std::string::npos);
  EXPECT_NE(text.find("\"qloss_percent\""), std::string::npos);
  EXPECT_NE(text.find("\"t_battery_k\""), std::string::npos);
  EXPECT_EQ(text.front(), '{');
  std::remove(path.c_str());
}

TEST(JsonReport, SummaryMatchesResult) {
  sim::RunResult r;
  r.duration_s = 10.0;
  r.qloss_percent = 0.5;
  r.average_power_w = 1234.0;
  const Json j = sim::run_result_to_json(r);
  const std::string text = j.dump(0);
  EXPECT_NE(text.find("\"qloss_percent\":0.5"), std::string::npos);
  EXPECT_NE(text.find("\"average_power_w\":1234"), std::string::npos);
}

TEST(JsonReport, SpecProvenance) {
  const core::SystemSpec spec = core::SystemSpec::from_config(Config());
  const std::string text = sim::system_spec_to_json(spec).dump(0);
  EXPECT_NE(text.find("\"series\":96"), std::string::npos);
  EXPECT_NE(text.find("\"capacitance_f\":25000"), std::string::npos);
}

// --- writer hardening -------------------------------------------------------

TEST(Json, WriterUsesShortEscapesForNamedControls) {
  EXPECT_EQ(Json("\b\f\n\r\t").dump(0), "\"\\b\\f\\n\\r\\t\"");
}

TEST(Json, WriterEscapesEveryControlCharacter) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string text = Json(std::string(1, static_cast<char>(c))).dump(0);
    // Whatever the spelling (\uXXXX or a short form), no raw control
    // byte may survive into the emitted document.
    for (char byte : text)
      EXPECT_GE(static_cast<unsigned char>(byte), 0x20u)
          << "control 0x" << std::hex << c << " leaked into " << text;
  }
}

// --- parser -----------------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse(" false ").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_DOUBLE_EQ(Json::parse("0").as_number(), 0.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, ObjectAndArrayStructure) {
  const Json doc = Json::parse(R"({"a":[1,2,{"b":null}],"c":"x"})");
  ASSERT_TRUE(doc.is_object());
  const Json* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->size(), 3u);
  EXPECT_DOUBLE_EQ(a->at(1).as_number(), 2.0);
  ASSERT_NE(a->at(2).find("b"), nullptr);
  EXPECT_TRUE(a->at(2).find("b")->is_null());
  EXPECT_EQ(doc.find("c")->as_string(), "x");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, RoundTripsEveryControlCharacter) {
  std::string raw;
  for (int c = 1; c < 0x20; ++c) raw.push_back(static_cast<char>(c));
  raw += "\"\\plain";
  EXPECT_EQ(Json::parse(Json(raw).dump(0)).as_string(), raw);
}

TEST(JsonParse, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
  EXPECT_EQ(Json::parse("\"\\u20ac\"").as_string(), "\xe2\x82\xac");
  // Surrogate pair for U+1F600.
  EXPECT_EQ(Json::parse("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");
}

TEST(JsonParse, DumpThenParseRoundTripsDocuments) {
  Json doc = Json::object();
  doc.set("name", "serve").set("n", 3).set("flag", true).set("none", Json());
  doc.set("xs", Json::numbers({1.0, 2.5, -0.125}));
  const std::string compact = doc.dump(0);
  EXPECT_EQ(Json::parse(compact).dump(0), compact);
  // Pretty output parses back to the same document too.
  EXPECT_EQ(Json::parse(doc.dump(2)).dump(0), compact);
}

TEST(JsonParse, RejectsMalformedDocuments) {
  EXPECT_THROW(Json::parse(""), SimError);
  EXPECT_THROW(Json::parse("{\"a\":}"), SimError);
  EXPECT_THROW(Json::parse("[1,]"), SimError);
  EXPECT_THROW(Json::parse("{\"a\":1,}"), SimError);
  EXPECT_THROW(Json::parse("\"unterminated"), SimError);
  EXPECT_THROW(Json::parse("nul"), SimError);
  EXPECT_THROW(Json::parse("1 2"), SimError);    // trailing garbage
  EXPECT_THROW(Json::parse("[1] x"), SimError);  // trailing garbage
  EXPECT_THROW(Json::parse("\"\\ud83d\""), SimError);  // lone surrogate
  EXPECT_THROW(Json::parse("\"\\x\""), SimError);      // unknown escape
}

TEST(JsonParse, RefusesNumbersThatOverflowADouble) {
  // A literal cannot spell infinity, so one that reads as infinite
  // overflowed; no parsed document carries a non-finite number.
  EXPECT_THROW(Json::parse("1e400"), SimError);
  EXPECT_THROW(Json::parse("-1e400"), SimError);
  EXPECT_THROW(Json::parse("{\"p_request_w\":1e309}"), SimError);
  // The largest double still parses, and so does underflow to zero.
  EXPECT_EQ(Json::parse("1.7976931348623157e308").as_number(),
            std::numeric_limits<double>::max());
  EXPECT_EQ(Json::parse("1e-400").as_number(), 0.0);
}

TEST(JsonParse, DepthGuardStopsHostileNesting) {
  const size_t over = static_cast<size_t>(Json::kMaxParseDepth) + 8;
  EXPECT_THROW(Json::parse(std::string(over, '[') + std::string(over, ']')),
               SimError);
  // Reasonable nesting is untouched by the guard.
  EXPECT_TRUE(
      Json::parse(std::string(10, '[') + std::string(10, ']')).is_array());
}

TEST(JsonParse, TypedReadersThrowOnMismatch) {
  EXPECT_THROW(Json::parse("1").as_string(), SimError);
  EXPECT_THROW(Json::parse("\"s\"").as_number(), SimError);
  EXPECT_THROW(Json::parse("[1]").at(1), SimError);
}

}  // namespace
}  // namespace otem

// Tests for the common utility layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/config.h"
#include "common/csv.h"
#include "common/error.h"
#include "common/interp.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/timeseries.h"
#include "common/units.h"

namespace otem {
namespace {

// --- strings ---------------------------------------------------------------

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(strings::trim("  hello \t\n"), "hello");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim("   "), "");
  EXPECT_EQ(strings::trim("a b"), "a b");
}

TEST(Strings, SplitKeepsEmptyPieces) {
  const auto parts = strings::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitTrimsPieces) {
  const auto parts = strings::split(" x ; y ", ';');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "x");
  EXPECT_EQ(parts[1], "y");
}

TEST(Strings, ParseDoubleAcceptsScientific) {
  EXPECT_DOUBLE_EQ(strings::parse_double("2.5e3"), 2500.0);
  EXPECT_DOUBLE_EQ(strings::parse_double(" -0.125 "), -0.125);
}

TEST(Strings, ParseDoubleRejectsGarbage) {
  EXPECT_THROW(strings::parse_double("12abc"), SimError);
  EXPECT_THROW(strings::parse_double(""), SimError);
}

TEST(Strings, ParseLongRejectsFloats) {
  EXPECT_EQ(strings::parse_long("42"), 42);
  EXPECT_THROW(strings::parse_long("4.2"), SimError);
}

TEST(Strings, ToLowerAndStartsWith) {
  EXPECT_EQ(strings::to_lower("US06"), "us06");
  EXPECT_TRUE(strings::starts_with("battery.cell.v1", "battery."));
  EXPECT_FALSE(strings::starts_with("bat", "battery"));
}

// --- units ------------------------------------------------------------------

TEST(Units, TemperatureRoundtrip) {
  EXPECT_DOUBLE_EQ(units::celsius_to_kelvin(25.0), 298.15);
  EXPECT_DOUBLE_EQ(units::kelvin_to_celsius(units::celsius_to_kelvin(-7.0)),
                   -7.0);
}

TEST(Units, EnergyConversions) {
  EXPECT_DOUBLE_EQ(units::kwh_to_joule(1.0), 3.6e6);
  EXPECT_DOUBLE_EQ(units::joule_to_wh(3600.0), 1.0);
  EXPECT_DOUBLE_EQ(units::ah_to_coulomb(2.0), 7200.0);
}

TEST(Units, SpeedConversions) {
  EXPECT_NEAR(units::mph_to_mps(60.0), 26.82, 0.01);
  EXPECT_NEAR(units::kmh_to_mps(36.0), 10.0, 1e-12);
}

// --- config ------------------------------------------------------------------

TEST(Config, SetPairAndTypedGetters) {
  Config cfg;
  cfg.set_pair("battery.series = 96");
  cfg.set_pair("otem.w2=2.5e9");
  cfg.set_pair("flag=true");
  EXPECT_EQ(cfg.get_long("battery.series", 0), 96);
  EXPECT_DOUBLE_EQ(cfg.get_double("otem.w2", 0.0), 2.5e9);
  EXPECT_TRUE(cfg.get_bool("flag", false));
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 7.0), 7.0);
}

TEST(Config, MalformedPairThrows) {
  Config cfg;
  EXPECT_THROW(cfg.set_pair("no-equals-sign"), SimError);
  EXPECT_THROW(cfg.set_pair("=value"), SimError);
}

TEST(Config, BadBoolThrows) {
  Config cfg;
  cfg.set_pair("flag=maybe");
  EXPECT_THROW(cfg.get_bool("flag", false), SimError);
}

TEST(Config, NonFiniteDoubleThrowsNamingTheKey) {
  for (const char* value : {"nan", "-nan", "inf", "-inf", "1e400"}) {
    Config cfg;
    cfg.set("ambient_k", value);
    try {
      cfg.get_double("ambient_k", 298.15);
      ADD_FAILURE() << value << " was accepted";
    } catch (const SimError& e) {
      EXPECT_NE(std::string(e.what()).find("'ambient_k'"), std::string::npos)
          << e.what();
    }
  }
  Config cfg;
  cfg.set("ambient_k", "1e300");  // finite: the key's domain decides
  EXPECT_EQ(cfg.get_double("ambient_k", 0.0), 1e300);
}

TEST(Config, FromArgsIgnoresNonPairs) {
  const char* argv[] = {"prog", "--verbose", "a=1", "b=two"};
  const Config cfg = Config::from_args(4, argv);
  EXPECT_EQ(cfg.get_long("a", 0), 1);
  EXPECT_EQ(cfg.get_string("b", ""), "two");
  EXPECT_FALSE(cfg.has("--verbose"));
}

TEST(Config, FromFileParsesComments) {
  const std::string path = ::testing::TempDir() + "otem_cfg_test.txt";
  {
    std::ofstream f(path);
    f << "# a comment\n"
      << "x = 3.5   # trailing comment\n"
      << "\n"
      << "name=hello\n";
  }
  const Config cfg = Config::from_file(path);
  EXPECT_DOUBLE_EQ(cfg.get_double("x", 0.0), 3.5);
  EXPECT_EQ(cfg.get_string("name", ""), "hello");
  std::remove(path.c_str());
}

// --- rng ------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, NormalHasRoughlyUnitMoments) {
  Rng rng(99);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, BelowIsBounded) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

// --- interp ------------------------------------------------------------------

TEST(Interp1D, LinearInterpolationAndClamping) {
  const Interp1D f({0.0, 1.0, 3.0}, {0.0, 10.0, 30.0});
  EXPECT_DOUBLE_EQ(f(0.5), 5.0);
  EXPECT_DOUBLE_EQ(f(2.0), 20.0);
  EXPECT_DOUBLE_EQ(f(-5.0), 0.0);   // clamp left
  EXPECT_DOUBLE_EQ(f(99.0), 30.0);  // clamp right
}

TEST(Interp1D, DerivativePerSegment) {
  const Interp1D f({0.0, 1.0, 3.0}, {0.0, 10.0, 14.0});
  EXPECT_DOUBLE_EQ(f.derivative(0.5), 10.0);
  EXPECT_DOUBLE_EQ(f.derivative(2.0), 2.0);
  EXPECT_DOUBLE_EQ(f.derivative(10.0), 0.0);
}

TEST(Interp1D, RejectsNonIncreasingKnots) {
  EXPECT_THROW(Interp1D({0.0, 0.0}, {1.0, 2.0}), SimError);
  EXPECT_THROW(Interp1D({1.0}, {2.0}), SimError);
}

TEST(Interp2D, BilinearCorners) {
  const Interp2D f({0.0, 1.0}, {0.0, 1.0}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(f(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(f(0.0, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(f(1.0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(f(1.0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(f(0.5, 0.5), 2.5);
}

TEST(Interp2D, ClampsOutsideDomain) {
  const Interp2D f({0.0, 1.0}, {0.0, 1.0}, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(f(-1.0, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(f(2.0, 2.0), 4.0);
}

// --- timeseries ----------------------------------------------------------------

TEST(TimeSeries, BasicStats) {
  const TimeSeries ts(1.0, {1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(ts.mean(), 2.5);
  EXPECT_DOUBLE_EQ(ts.min(), 1.0);
  EXPECT_DOUBLE_EQ(ts.max(), 4.0);
  EXPECT_DOUBLE_EQ(ts.duration(), 3.0);
  EXPECT_DOUBLE_EQ(ts.integral(), 10.0);
  EXPECT_NEAR(ts.rms(), std::sqrt(30.0 / 4.0), 1e-12);
}

TEST(TimeSeries, MeanPositiveIgnoresRegen) {
  const TimeSeries ts(1.0, {10.0, -5.0, 20.0, -1.0});
  EXPECT_DOUBLE_EQ(ts.mean_positive(), 15.0);
}

TEST(TimeSeries, AtTimeInterpolatesAndClamps) {
  const TimeSeries ts(2.0, {0.0, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(ts.at_time(1.0), 5.0);
  EXPECT_DOUBLE_EQ(ts.at_time(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(ts.at_time(100.0), 20.0);
}

TEST(TimeSeries, RepeatedConcatenates) {
  const TimeSeries ts(1.0, {1.0, 2.0});
  const TimeSeries r = ts.repeated(3);
  ASSERT_EQ(r.size(), 6u);
  EXPECT_DOUBLE_EQ(r[4], 1.0);
}

TEST(TimeSeries, ResamplePreservesEndpointValues) {
  const TimeSeries ts(1.0, {0.0, 1.0, 2.0, 3.0});
  const TimeSeries r = ts.resampled(0.5);
  EXPECT_DOUBLE_EQ(r[0], 0.0);
  EXPECT_DOUBLE_EQ(r[1], 0.5);
  EXPECT_DOUBLE_EQ(r[r.size() - 1], 3.0);
}

TEST(TimeSeries, MappedAppliesFunction) {
  const TimeSeries ts(1.0, {1.0, -2.0});
  const TimeSeries m = ts.mapped([](double v) { return v * v; });
  EXPECT_DOUBLE_EQ(m[0], 1.0);
  EXPECT_DOUBLE_EQ(m[1], 4.0);
}

TEST(TimeSeries, RejectsNonPositiveDt) {
  EXPECT_THROW(TimeSeries(0.0, {1.0}), SimError);
}

// --- csv ------------------------------------------------------------------

TEST(Csv, WritesHeaderAndRows) {
  CsvTable t({"a", "b"});
  t.add_row({"1", "x,y"});
  t.add_numeric_row({2.5, 3.0}, 1);
  std::ostringstream os;
  t.write(os);
  EXPECT_EQ(os.str(), "a,b\n1,\"x,y\"\n2.5,3.0\n");
}

TEST(Csv, QuotesEmbeddedQuotes) {
  CsvTable t({"v"});
  t.add_row({"say \"hi\""});
  std::ostringstream os;
  t.write(os);
  EXPECT_EQ(os.str(), "v\n\"say \"\"hi\"\"\"\n");
}

TEST(Csv, RowWidthMismatchThrows) {
  CsvTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), SimError);
}

TEST(CsvRead, RoundtripThroughWriter) {
  CsvTable t({"name", "value"});
  t.add_row({"plain", "1.5"});
  t.add_row({"with,comma", "2.5"});
  t.add_row({"with \"quote\"", "3.5"});
  std::ostringstream os;
  t.write(os);
  std::istringstream is(os.str());
  const CsvData d = read_csv(is);
  ASSERT_EQ(d.header.size(), 2u);
  ASSERT_EQ(d.rows.size(), 3u);
  EXPECT_EQ(d.rows[1][0], "with,comma");
  EXPECT_EQ(d.rows[2][0], "with \"quote\"");
  const auto values = d.numeric_column(1);
  EXPECT_DOUBLE_EQ(values[0], 1.5);
  EXPECT_DOUBLE_EQ(values[2], 3.5);
}

TEST(CsvRead, ColumnLookupCaseInsensitive) {
  std::istringstream is("Time, Speed\n0,1\n1,2\n");
  const CsvData d = read_csv(is);
  EXPECT_EQ(d.column("time"), 0u);
  EXPECT_EQ(d.column("SPEED"), 1u);
  EXPECT_THROW(d.column("missing"), SimError);
}

TEST(CsvRead, SkipsBlankLinesAndRejectsEmpty) {
  std::istringstream is("a\n\n1\n\n2\n");
  const CsvData d = read_csv(is);
  EXPECT_EQ(d.rows.size(), 2u);
  std::istringstream empty("");
  EXPECT_THROW(read_csv(empty), SimError);
}

TEST(CsvRead, NumericColumnRejectsText) {
  std::istringstream is("a,b\n1,x\n");
  const CsvData d = read_csv(is);
  EXPECT_THROW(d.numeric_column(1), SimError);
}

// --- logging -----------------------------------------------------------

TEST(Logging, LevelFilterRoundtrip) {
  const log::Level before = log::level();
  log::set_level(log::Level::kError);
  EXPECT_EQ(log::level(), log::Level::kError);
  // Filtered calls must be no-ops (nothing observable to assert beyond
  // not crashing; primarily exercises the template plumbing).
  log::debug("dropped ", 1);
  log::info("dropped ", 2.5);
  log::warn("dropped ", "three");
  log::set_level(log::Level::kOff);
  log::error("dropped even at error level");
  log::set_level(before);
}

// --- config duplicate-key detection -----------------------------------------

/// Run `fn` with otem::log captured to a temp file; returns the lines
/// it emitted. Restores the previous fd/level whatever happens.
std::string capture_log(const std::function<void()>& fn) {
  std::FILE* tmp = std::tmpfile();
  EXPECT_NE(tmp, nullptr);
  const int old_fd = log::fd();
  const log::Level old_level = log::level();
  log::set_fd(fileno(tmp));
  log::set_level(log::Level::kWarn);
  fn();
  log::set_fd(old_fd);
  log::set_level(old_level);
  std::rewind(tmp);
  std::string captured;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), tmp)) > 0)
    captured.append(buf, n);
  std::fclose(tmp);
  return captured;
}

TEST(Config, DuplicateKeyWarnsAndLastValueWins) {
  Config cfg;
  const std::string captured = capture_log([&] {
    cfg.set_pair("ambient_k=300");
    cfg.set_pair("ambient_k=310");
  });
  EXPECT_DOUBLE_EQ(cfg.get_double("ambient_k", 0.0), 310.0);
  EXPECT_NE(captured.find("duplicate config key 'ambient_k'"),
            std::string::npos)
      << captured;
  EXPECT_NE(captured.find("'300'"), std::string::npos) << captured;
  EXPECT_NE(captured.find("'310'"), std::string::npos) << captured;
}

TEST(Config, DuplicateKeyWarnsInReversedOrderToo) {
  Config cfg;
  const std::string captured = capture_log([&] {
    cfg.set_pair("ambient_k=310");
    cfg.set_pair("ambient_k=300");
  });
  // Last one wins regardless of which value came first ...
  EXPECT_DOUBLE_EQ(cfg.get_double("ambient_k", 0.0), 300.0);
  // ... and the warning names the value that was overridden.
  EXPECT_NE(captured.find("duplicate config key 'ambient_k'"),
            std::string::npos)
      << captured;
  EXPECT_NE(captured.find("value '310' overridden by '300'"),
            std::string::npos)
      << captured;
}

TEST(Config, RepeatedIdenticalValueIsSilent) {
  Config cfg;
  const std::string captured = capture_log([&] {
    cfg.set_pair("repeats=3");
    cfg.set_pair("repeats=3");
  });
  EXPECT_EQ(cfg.get_long("repeats", 0), 3);
  EXPECT_EQ(captured.find("duplicate"), std::string::npos) << captured;
}

// --- config consumption tracking -------------------------------------------

TEST(Config, UnusedKeysReportsUntouchedOverrides) {
  Config cfg;
  cfg.set_pair("battery.cells=96");
  cfg.set_pair("otem.horzion=40");  // deliberate typo: never read
  cfg.set_pair("ambient_k=303.15");
  EXPECT_EQ(cfg.get_long("battery.cells", 0), 96);
  EXPECT_DOUBLE_EQ(cfg.get_double("ambient_k", 0.0), 303.15);
  const std::vector<std::string> unused = cfg.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "otem.horzion");
}

TEST(Config, HasMarksKeyConsumed) {
  Config cfg;
  cfg.set_pair("trace_csv=/tmp/x.csv");
  EXPECT_TRUE(cfg.has("trace_csv"));
  EXPECT_TRUE(cfg.unused_keys().empty());
}

TEST(Config, CopiesShareConsumptionState) {
  // Subsystems receive the Config by value; reads through any copy must
  // count, or every forwarded key would be reported as a typo.
  Config cfg;
  cfg.set_pair("otem.horizon=12");
  const Config copy = cfg;
  EXPECT_EQ(copy.get_long("otem.horizon", 0), 12);
  EXPECT_TRUE(cfg.unused_keys().empty());
}

TEST(Config, FallbackReadStillCountsAsConsumption) {
  Config cfg;
  cfg.set_pair("repeats=3");
  // Reading a key that is absent is fine and marks nothing extra.
  EXPECT_EQ(cfg.get_long("missing", 7), 7);
  ASSERT_EQ(cfg.unused_keys().size(), 1u);
  EXPECT_EQ(cfg.unused_keys()[0], "repeats");
  EXPECT_EQ(cfg.get_long("repeats", 0), 3);
  EXPECT_TRUE(cfg.unused_keys().empty());
}

// --- error macros ----------------------------------------------------------

TEST(Error, RequireThrowsWithContext) {
  try {
    OTEM_REQUIRE(false, "the message");
    FAIL() << "should have thrown";
  } catch (const SimError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("precondition"), std::string::npos);
  }
}

}  // namespace
}  // namespace otem

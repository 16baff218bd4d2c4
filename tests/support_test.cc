/**
 * @file
 * Unit tests for the support utilities (rng, strings, timer, logging).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>

#include "support/logging.h"
#include "support/rng.h"
#include "support/strings.h"
#include "support/timer.h"

namespace qb {
namespace {

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom"), FatalError);
    try {
        fatal("message text");
    } catch (const FatalError &e) {
        EXPECT_STREQ("message text", e.what());
    }
}

TEST(Logging, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(qbAssert(true, "fine"));
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.nextBelow(bound), bound);
    }
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Rng rng(11);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 200; ++i)
        seen.insert(rng.nextBelow(5));
    EXPECT_EQ(5u, seen.size());
}

TEST(Rng, NextInRangeInclusive)
{
    Rng rng(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 300; ++i) {
        const std::int64_t v = rng.nextInRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(5u, seen.size());
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, NextBoolRoughlyFair)
{
    Rng rng(13);
    int trues = 0;
    for (int i = 0; i < 10000; ++i)
        trues += rng.nextBool();
    EXPECT_GT(trues, 4500);
    EXPECT_LT(trues, 5500);
}

TEST(Strings, FormatBasics)
{
    EXPECT_EQ("x=3 y=hi", format("x=%d y=%s", 3, "hi"));
    EXPECT_EQ("", format("%s", ""));
    EXPECT_EQ("3.50", format("%.2f", 3.5));
}

TEST(Strings, FormatLongOutput)
{
    const std::string big(500, 'a');
    EXPECT_EQ(big, format("%s", big.c_str()));
}

TEST(Strings, FormatFixed)
{
    // Locale-independent by construction: '.' regardless of
    // LC_NUMERIC (the JSON emitter depends on this).
    EXPECT_EQ("0.500000", formatFixed(0.5, 6));
    EXPECT_EQ("1.5", formatFixed(1.5, 1));
    EXPECT_EQ("-2.250", formatFixed(-2.25, 3));
    EXPECT_EQ("0.000000", formatFixed(0.0, 6));
    EXPECT_EQ("123456789.0", formatFixed(123456789.0, 1));
}

TEST(Strings, Join)
{
    EXPECT_EQ("a,b,c", join({"a", "b", "c"}, ","));
    EXPECT_EQ("a", join({"a"}, ","));
    EXPECT_EQ("", join({}, ","));
}

TEST(Strings, ParseIntAcceptsWholeInRangeIntegers)
{
    EXPECT_EQ(std::optional<std::int64_t>(0), parseInt("0", 0, 10));
    EXPECT_EQ(std::optional<std::int64_t>(-1), parseInt("-1", -1, 5));
    EXPECT_EQ(std::optional<std::int64_t>(10), parseInt("10", 0, 10));
    EXPECT_EQ(std::optional<std::int64_t>(INT64_MAX),
              parseInt("9223372036854775807", 0, INT64_MAX));
}

TEST(Strings, ParseIntRejectsMalformedAndOutOfRange)
{
    for (const char *bad :
         {"", "abc", "2x", "3z", " 4", "4 ", "+4", "--4", "0x10", "1.5",
          "1e3", "9223372036854775808", "-"})
        EXPECT_FALSE(parseInt(bad, INT64_MIN, INT64_MAX).has_value())
            << "accepted '" << bad << "'";
    EXPECT_FALSE(parseInt("0", 1, 10).has_value()) << "below min";
    EXPECT_FALSE(parseInt("11", 1, 10).has_value()) << "above max";
    EXPECT_FALSE(parseInt("-2", -1, 10).has_value()) << "below -1";
}

TEST(Strings, ParseDoubleAcceptsWholeFiniteInRangeNumbers)
{
    EXPECT_EQ(std::optional<double>(4.2), parseDouble("4.2", 0.0, 10.0));
    EXPECT_EQ(std::optional<double>(0.0), parseDouble("0", 0.0, 1.0));
    EXPECT_EQ(std::optional<double>(1.0), parseDouble("1", 0.0, 1.0));
    EXPECT_EQ(std::optional<double>(-0.5), parseDouble("-.5", -1.0, 1.0));
    EXPECT_EQ(std::optional<double>(1000.0),
              parseDouble("1e3", 0.0, 1000.0));
    EXPECT_EQ(std::optional<double>(0.45),
              parseDouble("0.45", 0.0, 1.0));
}

TEST(Strings, ParseDoubleRejectsMalformedNonFiniteAndOutOfRange)
{
    for (const char *bad :
         {"", "abc", "4x", "0.5.", " 1", "1 ", "+1", "--1", "1,5", ".",
          "e3", "inf", "-inf", "nan", "infinity", "1e400", "-"})
        EXPECT_FALSE(parseDouble(bad, -1e308, 1e308).has_value())
            << "accepted '" << bad << "'";
    EXPECT_FALSE(parseDouble("1.5", 0.0, 1.0).has_value()) << "above max";
    EXPECT_FALSE(parseDouble("-0.1", 0.0, 1.0).has_value()) << "below min";
}

TEST(Timer, MeasuresNonNegativeMonotonicTime)
{
    Timer t;
    const double t1 = t.seconds();
    const double t2 = t.seconds();
    EXPECT_GE(t1, 0.0);
    EXPECT_GE(t2, t1);
    EXPECT_EQ(t.milliseconds() >= 0.0, true);
}

TEST(Timer, ResetRestarts)
{
    Timer t;
    double sink = 0;
    for (int i = 0; i < 100000; ++i)
        sink += i;
    (void)sink;
    t.reset();
    EXPECT_LT(t.seconds(), 1.0);
}

} // namespace
} // namespace qb

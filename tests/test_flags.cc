/** @file parseNumber: a numeric flag value parses only when all of
 *  it is a number that fits the field it sets. */

#include <gtest/gtest.h>

#include <cstdint>

#include "util/flags.hh"

namespace gpm
{
namespace
{

TEST(ParseNumber, AcceptsWholeValuesThatFit)
{
    EXPECT_EQ(parseNumber<std::uint16_t>("0"), 0);
    EXPECT_EQ(parseNumber<std::uint16_t>("65535"), 65535);
    EXPECT_EQ(parseNumber<std::uint16_t>("+7421"), 7421);
    EXPECT_EQ(parseNumber<long>("-5"), -5L);
    EXPECT_EQ(parseNumber<int>("2147483647"), 2147483647);
    EXPECT_EQ(parseNumber<unsigned long long>("18446744073709551615"),
              18446744073709551615ull);
    EXPECT_EQ(parseNumber<double>("0.85"), 0.85);
    EXPECT_EQ(parseNumber<double>("1e3"), 1000.0);
    EXPECT_EQ(parseNumber<double>("-1"), -1.0);
}

TEST(ParseNumber, RejectsPartialEmptyAndOutOfRangeValues)
{
    EXPECT_FALSE(parseNumber<std::uint16_t>("70000"));
    EXPECT_FALSE(parseNumber<std::uint16_t>("-1"));
    EXPECT_FALSE(parseNumber<std::uint16_t>("abc"));
    EXPECT_FALSE(parseNumber<std::uint16_t>(""));
    EXPECT_FALSE(parseNumber<std::size_t>("2x"));
    EXPECT_FALSE(parseNumber<std::size_t>("-1"));
    EXPECT_FALSE(parseNumber<int>("2147483648"));
    EXPECT_FALSE(parseNumber<long>("1.5"));
    EXPECT_FALSE(parseNumber<long>("99999999999999999999"));
    EXPECT_FALSE(parseNumber<double>("0.8x"));
    EXPECT_FALSE(parseNumber<double>(""));
    EXPECT_FALSE(parseNumber<double>("1e999"));
}

} // namespace
} // namespace gpm

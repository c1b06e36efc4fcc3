/**
 * @file
 * Tests for the checked number and enum-name parsers every user
 * input goes through (util/parse.hh), and for the pool-size parse
 * behind CACHETIME_THREADS.  The rows run the non-fatal core; one
 * death test per call-site family shows the fatal path.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "sim/system_config.hh"
#include "util/parallel.hh"
#include "util/parse.hh"

namespace cachetime
{
namespace
{

/** Text every number type rejects at its full range. */
const std::vector<std::string> kRejectedByAll = {
    "", " 4", "4 ", "4x", "abc", "0x10", "nan", "inf", "1e400",
};

template <typename T>
void
expectAccepts(const std::string &text, T expected,
              T lo = std::numeric_limits<T>::lowest(),
              T hi = std::numeric_limits<T>::max())
{
    T value{};
    EXPECT_EQ(checkNumber(text, value, lo, hi), "") << "'" << text << "'";
    EXPECT_EQ(value, expected) << "'" << text << "'";
}

template <typename T>
void
expectRejects(const std::string &text,
              T lo = std::numeric_limits<T>::lowest(),
              T hi = std::numeric_limits<T>::max())
{
    T value{7};
    const std::string error = checkNumber(text, value, lo, hi);
    // The reason quotes the text, and a rejected parse stores nothing.
    EXPECT_NE(error.find("'" + text + "'"), std::string::npos)
        << "'" << text << "' gave: " << error;
    EXPECT_EQ(value, T{7}) << "'" << text << "'";
}

template <typename T>
void
expectIntegerRows(const std::string &max_text,
                  const std::string &max_plus_one)
{
    expectAccepts<T>("0", 0);
    expectAccepts<T>("42", 42);
    expectAccepts<T>("007", 7);
    expectAccepts<T>(max_text, std::numeric_limits<T>::max());
    for (const std::string &text : kRejectedByAll)
        expectRejects<T>(text);
    for (const char *text : {"-1", "+1", "1e3", "2.5", "-0"})
        expectRejects<T>(text);
    expectRejects<T>(max_plus_one);
    // The bounds are inclusive.
    expectRejects<T>("0", 1);
    expectRejects<T>("9", 0, 8);
    expectAccepts<T>("8", 8, 0, 8);
    expectAccepts<T>("1", 1, 1, 8);
}

TEST(ParseNumber, UnsignedRows)
{
    expectIntegerRows<unsigned>("4294967295", "4294967296");
}

TEST(ParseNumber, Uint64Rows)
{
    expectIntegerRows<std::uint64_t>("18446744073709551615",
                                     "18446744073709551616");
}

TEST(ParseNumber, DoubleRows)
{
    expectAccepts<double>("0", 0.0);
    expectAccepts<double>("42", 42.0);
    expectAccepts<double>("2.5", 2.5);
    expectAccepts<double>("1e3", 1000.0);
    expectAccepts<double>("0.02", 0.02);
    expectAccepts<double>("-1", -1.0);
    expectAccepts<double>("1.7976931348623157e308",
                          std::numeric_limits<double>::max());
    for (const std::string &text : kRejectedByAll)
        expectRejects<double>(text);
    for (const char *text : {"+1", "-inf", "infinity", "1.8e308",
                             "0.02x", "1e", "."})
        expectRejects<double>(text);
    expectRejects<double>("-1", 0.0);
    expectRejects<double>("0", std::numeric_limits<double>::min());
    expectRejects<double>("1.5", 0.0, 1.0);
}

TEST(ParseNumber, ReasonNamesTheFault)
{
    unsigned value = 0;
    EXPECT_EQ(checkNumber<unsigned>("99999999999", value),
              "'99999999999' is out of range [0, 4294967295]");
    EXPECT_EQ(checkNumber<unsigned>("1e3", value),
              "'1e3' is not a decimal integer");
    double real = 0;
    EXPECT_EQ(checkNumber<double>("nan", real), "'nan' is not finite");
    EXPECT_EQ(checkNumber<double>("abc", real),
              "'abc' is not a decimal number");
}

TEST(ParseNumber, ParseReturnsTheValue)
{
    EXPECT_EQ(parseNumber<unsigned>("12", "test"), 12u);
    EXPECT_DOUBLE_EQ(parseNumber<double>("0.25", "test", 0.0, 1.0),
                     0.25);
}

enum class Color : std::uint8_t
{
    Red,
    Green,
};

constexpr EnumName<Color> kColorNames[] = {
    {Color::Red, "red"},
    {Color::Green, "green"},
    {Color::Red, "r"},
};

TEST(EnumNames, FirstSpellingIsTheNameAndAliasesParse)
{
    EXPECT_STREQ(enumName<Color>(kColorNames, Color::Red), "red");
    EXPECT_STREQ(enumName<Color>(kColorNames, Color::Green), "green");
    EXPECT_EQ(parseEnum<Color>(kColorNames, "r", "test"), Color::Red);
    EXPECT_EQ(parseEnum<Color>(kColorNames, "green", "test"),
              Color::Green);
}

TEST(EnumNames, EveryConfigEnumNameParsesBack)
{
    for (auto policy : {WritePolicy::WriteBack, WritePolicy::WriteThrough})
        EXPECT_EQ(parseEnum(enumNames(policy), writePolicyName(policy),
                            "test"),
                  policy);
    for (auto mode : {AddressMode::Virtual, AddressMode::Physical})
        EXPECT_EQ(parseEnum(enumNames(mode), addressModeName(mode),
                            "test"),
                  mode);
    for (auto protocol :
         {CoherenceProtocol::None, CoherenceProtocol::VI,
          CoherenceProtocol::MSI, CoherenceProtocol::MESI})
        EXPECT_EQ(parseCoherenceProtocol(
                      coherenceProtocolName(protocol)),
                  protocol);
    for (auto policy : {CoreMapPolicy::Modulo, CoreMapPolicy::Direct})
        EXPECT_EQ(parseCoreMapPolicy(coreMapPolicyName(policy)), policy);
}

TEST(ParseThreadCount, ParsesAndClampsWithoutAPool)
{
    EXPECT_EQ(parseThreadCount("0"), 0u);
    EXPECT_EQ(parseThreadCount("4"), 4u);
    EXPECT_EQ(parseThreadCount(std::to_string(maxParallelThreads)),
              maxParallelThreads);
    // Above the ceiling the count warns and clamps, however large.
    EXPECT_EQ(parseThreadCount(std::to_string(maxParallelThreads + 1)),
              maxParallelThreads);
    EXPECT_EQ(parseThreadCount("18446744073709551615"),
              maxParallelThreads);
}

TEST(ParseNumberDeathTest, FatalNamesWhatAndText)
{
    EXPECT_EXIT(parseNumber<std::uint64_t>("5x", "cachetime_verify: --fuzz"),
                ::testing::ExitedWithCode(1),
                "fatal: cachetime_verify: --fuzz: '5x' is not a decimal "
                "integer");
}

TEST(ParseNumberDeathTest, SpecKeyNamesKeyAndText)
{
    SystemConfig config = SystemConfig::paperDefault();
    EXPECT_EXIT(applyKeyValues(config, "dcache.assoc=99999999999\n"),
                ::testing::ExitedWithCode(1),
                "fatal: config: dcache.assoc: '99999999999' is out of "
                "range");
    EXPECT_EXIT(applyKeyValues(config, "dcache.write_policy=wx\n"),
                ::testing::ExitedWithCode(1),
                "fatal: config: dcache.write_policy: 'wx' is not one of "
                "write-back\\|write-through\\|wb\\|wt");
}

TEST(ParseNumberDeathTest, EnvironmentVariableNamesVariableAndText)
{
    EXPECT_EXIT(parseThreadCount("1e9"), ::testing::ExitedWithCode(1),
                "fatal: CACHETIME_THREADS: '1e9' is not a decimal "
                "integer");
    EXPECT_EXIT(parseThreadCount("99999999999999999999"),
                ::testing::ExitedWithCode(1),
                "fatal: CACHETIME_THREADS: '99999999999999999999' is out "
                "of range");
}

} // namespace
} // namespace cachetime

// Unit tests for the util module: strings, rng, table, args, env, logging,
// and the JSON value parser backing the service wire format.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <set>

#include "util/args.h"
#include "util/env.h"
#include "util/error.h"
#include "util/json.h"
#include "util/json_value.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table.h"

namespace lu = leqa::util;

// ---------------------------------------------------------------- strings --

TEST(Strings, TrimRemovesSurroundingWhitespace) {
    EXPECT_EQ(lu::trim("  hello  "), "hello");
    EXPECT_EQ(lu::trim("\t\nx\r "), "x");
    EXPECT_EQ(lu::trim(""), "");
    EXPECT_EQ(lu::trim("   "), "");
    EXPECT_EQ(lu::trim("no-trim"), "no-trim");
}

TEST(Strings, ToLower) {
    EXPECT_EQ(lu::to_lower("CNOT"), "cnot");
    EXPECT_EQ(lu::to_lower("MiXeD123"), "mixed123");
}

TEST(Strings, SplitKeepsEmptyFields) {
    const auto parts = lu::split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
}

TEST(Strings, StartsEndsWith) {
    EXPECT_TRUE(lu::starts_with("gf2^16mult", "gf2"));
    EXPECT_FALSE(lu::starts_with("gf", "gf2"));
    EXPECT_TRUE(lu::ends_with("bench.real", ".real"));
    EXPECT_FALSE(lu::ends_with("real", ".real"));
}

TEST(Strings, Join) {
    EXPECT_EQ(lu::join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(lu::join({}, ", "), "");
}

TEST(Strings, ParseIntStrict) {
    EXPECT_EQ(lu::parse_int("42").value(), 42);
    EXPECT_EQ(lu::parse_int(" -7 ").value(), -7);
    EXPECT_FALSE(lu::parse_int("4.2").has_value());
    EXPECT_FALSE(lu::parse_int("42x").has_value());
    EXPECT_FALSE(lu::parse_int("").has_value());
}

TEST(Strings, ParseDoubleStrict) {
    EXPECT_DOUBLE_EQ(lu::parse_double("2.5").value(), 2.5);
    EXPECT_DOUBLE_EQ(lu::parse_double("1e-3").value(), 1e-3);
    EXPECT_FALSE(lu::parse_double("abc").has_value());
    EXPECT_FALSE(lu::parse_double("1.0extra").has_value());
}

TEST(Strings, ToIntRejectsFractionsAndOverflow) {
    EXPECT_EQ(lu::to_int(60.0).value(), 60);
    EXPECT_EQ(lu::to_int(-2147483648.0).value(), std::numeric_limits<int>::min());
    EXPECT_EQ(lu::to_int(2147483647.0).value(), std::numeric_limits<int>::max());
    EXPECT_FALSE(lu::to_int(2147483648.0).has_value());
    EXPECT_FALSE(lu::to_int(4294967301.0).has_value());
    EXPECT_FALSE(lu::to_int(2.5).has_value());
    EXPECT_FALSE(lu::to_int(1e12).has_value());
    EXPECT_FALSE(lu::to_int(std::numeric_limits<double>::quiet_NaN()).has_value());
    EXPECT_FALSE(lu::to_int(std::numeric_limits<double>::infinity()).has_value());
}

TEST(Strings, FormatScientificMatchesPaperStyle) {
    EXPECT_EQ(lu::format_scientific(1.617, 3), "1.617E+00");
    EXPECT_EQ(lu::format_scientific(0.0493, 3), "4.930E-02");
}

TEST(Strings, IdentifierValidation) {
    EXPECT_TRUE(lu::is_identifier("gf2^16mult"));
    EXPECT_TRUE(lu::is_identifier("q0"));
    EXPECT_TRUE(lu::is_identifier("_anc"));
    EXPECT_FALSE(lu::is_identifier("0q"));
    EXPECT_FALSE(lu::is_identifier(""));
    EXPECT_FALSE(lu::is_identifier("a b"));
}

// -------------------------------------------------------------------- rng --

TEST(Rng, DeterministicFromSeed) {
    lu::Rng a(123);
    lu::Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiffer) {
    lu::Rng a(1);
    lu::Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next()) ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
    lu::Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniform_int(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
}

TEST(Rng, UniformIntSingleton) {
    lu::Rng rng(7);
    EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(Rng, UniformIntRejectsBadRange) {
    lu::Rng rng(7);
    EXPECT_THROW((void)rng.uniform_int(2, 1), lu::InputError);
}

TEST(Rng, UniformCoversUnitInterval) {
    lu::Rng rng(11);
    double lo = 1.0, hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

TEST(Rng, IndexBounds) {
    lu::Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_LT(rng.index(10), 10u);
    }
    EXPECT_THROW((void)rng.index(0), lu::InputError);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
    lu::Rng rng(5);
    const auto sample = rng.sample_without_replacement(50, 20);
    EXPECT_EQ(sample.size(), 20u);
    const std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 20u);
    for (const auto v : sample) EXPECT_LT(v, 50u);
}

TEST(Rng, ShuffleIsPermutation) {
    lu::Rng rng(9);
    std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
    auto shuffled = values;
    rng.shuffle(shuffled);
    std::sort(shuffled.begin(), shuffled.end());
    EXPECT_EQ(shuffled, values);
}

// ------------------------------------------------------------------ table --

TEST(Table, RendersAlignedColumns) {
    lu::Table t({"Benchmark", "Delay"});
    t.add_row({"8bitadder", "1.617"});
    t.add_row({"gf2^16mult", "4.460"});
    const std::string text = t.to_string();
    EXPECT_NE(text.find("Benchmark"), std::string::npos);
    EXPECT_NE(text.find("8bitadder"), std::string::npos);
    EXPECT_NE(text.find("gf2^16mult"), std::string::npos);
    // All lines equal width.
    std::size_t width = 0;
    std::size_t start = 0;
    while (start < text.size()) {
        auto end = text.find('\n', start);
        if (end == std::string::npos) end = text.size();
        if (width == 0) width = end - start;
        EXPECT_EQ(end - start, width);
        start = end + 1;
    }
}

TEST(Table, RowWidthMismatchThrows) {
    lu::Table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), lu::InputError);
}

TEST(Table, CsvEscaping) {
    EXPECT_EQ(lu::csv_escape("plain"), "plain");
    EXPECT_EQ(lu::csv_escape("a,b"), "\"a,b\"");
    EXPECT_EQ(lu::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Table, CsvOutput) {
    lu::Table t({"name", "value"});
    t.add_row({"x", "1"});
    t.add_separator(); // separators are skipped in CSV
    t.add_row({"y,z", "2"});
    EXPECT_EQ(t.to_csv(), "name,value\nx,1\n\"y,z\",2\n");
}

// ------------------------------------------------------------------- args --

TEST(Args, FlagsOptionsPositionals) {
    lu::ArgParser parser("test tool");
    parser.add_flag("verbose", "more output");
    parser.add_option("fabric", "fabric size", "60x60");
    parser.add_positional("netlist", "input file");
    const char* argv[] = {"tool", "--verbose", "--fabric", "80x80", "input.qasm"};
    ASSERT_TRUE(parser.parse(5, argv));
    EXPECT_TRUE(parser.flag("verbose"));
    EXPECT_EQ(parser.option("fabric"), "80x80");
    EXPECT_TRUE(parser.option_given("fabric"));
    EXPECT_EQ(parser.positional("netlist").value(), "input.qasm");
}

TEST(Args, EqualsSyntaxAndDefaults) {
    lu::ArgParser parser("test tool");
    parser.add_option("nc", "channel capacity", "5");
    const char* argv[] = {"tool", "--nc=9"};
    ASSERT_TRUE(parser.parse(2, argv));
    EXPECT_EQ(parser.option_int("nc"), 9);

    lu::ArgParser defaults("test tool");
    defaults.add_option("nc", "channel capacity", "5");
    const char* argv2[] = {"tool"};
    ASSERT_TRUE(defaults.parse(1, argv2));
    EXPECT_EQ(defaults.option_int("nc"), 5);
    EXPECT_FALSE(defaults.option_given("nc"));
}

TEST(Args, UnknownOptionThrows) {
    lu::ArgParser parser("test tool");
    const char* argv[] = {"tool", "--bogus"};
    EXPECT_THROW(parser.parse(2, argv), lu::InputError);
}

TEST(Args, MissingRequiredPositionalThrows) {
    lu::ArgParser parser("test tool");
    parser.add_positional("input", "file");
    const char* argv[] = {"tool"};
    EXPECT_THROW(parser.parse(1, argv), lu::InputError);
}

TEST(Args, MalformedIntegerOptionThrows) {
    lu::ArgParser parser("test tool");
    parser.add_option("nc", "capacity", "x");
    const char* argv[] = {"tool"};
    ASSERT_TRUE(parser.parse(1, argv));
    EXPECT_THROW((void)parser.option_int("nc"), lu::InputError);
}

TEST(Args, RestCollectsExtraPositionals) {
    lu::ArgParser parser("test tool");
    parser.add_positional("input", "first input");
    parser.add_rest("inputs", "more inputs");
    const char* argv[] = {"tool", "a.qasm", "b.qasm", "bench:ham3"};
    ASSERT_TRUE(parser.parse(4, argv));
    EXPECT_EQ(parser.positional("input").value(), "a.qasm");
    ASSERT_EQ(parser.rest().size(), 2u);
    EXPECT_EQ(parser.rest()[0], "b.qasm");
    EXPECT_EQ(parser.rest()[1], "bench:ham3");

    // Without add_rest, extras are still rejected.
    lu::ArgParser strict("test tool");
    strict.add_positional("input", "only input");
    const char* argv2[] = {"tool", "a", "b"};
    EXPECT_THROW(strict.parse(3, argv2), lu::InputError);
}

TEST(Args, OptionSizeRejectsNegatives) {
    lu::ArgParser parser("test tool");
    parser.add_option("threads", "worker threads", "0");
    const char* argv[] = {"tool", "--threads", "-1"};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_EQ(parser.option_int("threads"), -1); // the raw accessor still works
    EXPECT_THROW((void)parser.option_size("threads"), lu::InputError);

    const char* argv2[] = {"tool", "--threads", "8"};
    lu::ArgParser ok("test tool");
    ok.add_option("threads", "worker threads", "0");
    ASSERT_TRUE(ok.parse(3, argv2));
    EXPECT_EQ(ok.option_size("threads"), 8u);
}

// ------------------------------------------------------------- json value --

TEST(JsonValue, ParsesScalarsAndContainers) {
    const lu::JsonValue root = lu::json_parse(
        R"({"a":1,"b":-2.5e3,"s":"x\ny","t":true,"f":false,"n":null,)"
        R"("arr":[1,2,3],"nested":{"k":"v"}})");
    EXPECT_EQ(root.at("a").as_int(), 1);
    EXPECT_DOUBLE_EQ(root.at("b").as_number(), -2500.0);
    EXPECT_EQ(root.at("s").as_string(), "x\ny");
    EXPECT_TRUE(root.at("t").as_bool());
    EXPECT_FALSE(root.at("f").as_bool());
    EXPECT_TRUE(root.at("n").is_null());
    ASSERT_EQ(root.at("arr").items().size(), 3u);
    EXPECT_EQ(root.at("arr").items()[2].as_int(), 3);
    EXPECT_EQ(root.at("nested").at("k").as_string(), "v");
    EXPECT_EQ(root.find("missing"), nullptr);
}

TEST(JsonValue, UnicodeEscapesDecodeToUtf8) {
    const lu::JsonValue value = lu::json_parse(R"("Aé€")");
    EXPECT_EQ(value.as_string(), "A\xC3\xA9\xE2\x82\xAC");

    // \u escapes, including an RFC 8259 surrogate pair for U+1F600.
    const lu::JsonValue escaped =
        lu::json_parse(R"("\u0041\u00e9\u20AC\uD83D\uDE00")");
    EXPECT_EQ(escaped.as_string(), "A\xC3\xA9\xE2\x82\xAC\xF0\x9F\x98\x80");

    // Unpaired surrogates are malformed, not silently emitted as CESU-8.
    EXPECT_THROW((void)lu::json_parse(R"("\uD83D")"), lu::ParseError);
    EXPECT_THROW((void)lu::json_parse(R"("\uD83Dx")"), lu::ParseError);
    EXPECT_THROW((void)lu::json_parse(R"("\uD83DA")"), lu::ParseError);
    EXPECT_THROW((void)lu::json_parse(R"("\uDE00")"), lu::ParseError);
}

TEST(JsonValue, DeeplyNestedInputIsAParseErrorNotAStackOverflow) {
    // One container per nesting level recurses the parser; a hostile line
    // must come back as ParseError instead of exhausting the stack.
    const std::string deep(100000, '[');
    EXPECT_THROW((void)lu::json_parse(deep), lu::ParseError);
    EXPECT_THROW((void)lu::json_parse(std::string(100000, '[') +
                                      std::string(100000, ']')),
                 lu::ParseError);

    // Reasonable nesting still parses.
    const lu::JsonValue ok = lu::json_parse(
        std::string(64, '[') + "1" + std::string(64, ']'));
    EXPECT_TRUE(ok.is_array());
}

TEST(JsonValue, AsIntRejectsOutOfRangeIntegers) {
    // 1e19 is integral but exceeds LLONG_MAX: the cast would be UB.
    EXPECT_THROW((void)lu::json_parse("1e19").as_int(), lu::InputError);
    EXPECT_THROW((void)lu::json_parse("-1e19").as_int(), lu::InputError);
    EXPECT_EQ(lu::json_parse("-9e18").as_int(), -9000000000000000000LL);
}

TEST(JsonValue, MalformedInputThrowsParseError) {
    EXPECT_THROW((void)lu::json_parse("{"), lu::ParseError);
    EXPECT_THROW((void)lu::json_parse("{\"a\":}"), lu::ParseError);
    EXPECT_THROW((void)lu::json_parse("[1,2"), lu::ParseError);
    EXPECT_THROW((void)lu::json_parse("\"unterminated"), lu::ParseError);
    EXPECT_THROW((void)lu::json_parse("nul"), lu::ParseError);
    EXPECT_THROW((void)lu::json_parse("{} trailing"), lu::ParseError);
    EXPECT_THROW((void)lu::json_parse("1.2.3"), lu::ParseError);
}

TEST(JsonValue, TypeMismatchThrowsInputError) {
    const lu::JsonValue root = lu::json_parse(R"({"a":1.5})");
    EXPECT_THROW((void)root.at("a").as_string(), lu::InputError);
    EXPECT_THROW((void)root.at("a").as_int(), lu::InputError); // non-integral
    EXPECT_THROW((void)root.at("missing"), lu::InputError);
}

TEST(JsonValue, DumpIsAFixedPointOfParse) {
    // Writer-produced text (format_double numbers, escaped strings) must
    // survive parse -> dump unchanged: the wire's losslessness rests on it.
    lu::JsonWriter writer;
    writer.begin_object();
    writer.kv("name", "gf2^16mult \"quoted\"\n");
    writer.kv("latency", 1.23456789012e-4);
    writer.kv("count", static_cast<std::size_t>(12345));
    writer.kv("flag", true);
    writer.key("null_field").null();
    writer.key("series").begin_array();
    for (const double v : {0.5, 6.02214076e23, -17.0}) writer.value(v);
    writer.end_array();
    writer.end_object();
    const std::string text = writer.str();

    const std::string once = lu::json_parse(text).dump();
    EXPECT_EQ(once, text);
    EXPECT_EQ(lu::json_parse(once).dump(), once);
}

TEST(JsonValue, WriterRawValueEmbedsDocument) {
    lu::JsonWriter inner;
    inner.begin_object();
    inner.kv("x", static_cast<long long>(1));
    inner.end_object();

    lu::JsonWriter outer;
    outer.begin_object();
    outer.key("embedded").raw_value(inner.str());
    outer.end_object();
    EXPECT_EQ(outer.str(), R"({"embedded":{"x":1}})");
}

// -------------------------------------------------------------------- env --

TEST(Env, FlagAndIntParsing) {
    ::setenv("LEQA_TEST_FLAG", "1", 1);
    EXPECT_TRUE(lu::env_flag("LEQA_TEST_FLAG"));
    ::setenv("LEQA_TEST_FLAG", "off", 1);
    EXPECT_FALSE(lu::env_flag("LEQA_TEST_FLAG"));
    ::unsetenv("LEQA_TEST_FLAG");
    EXPECT_FALSE(lu::env_flag("LEQA_TEST_FLAG"));

    ::setenv("LEQA_TEST_INT", "42", 1);
    EXPECT_EQ(lu::env_int("LEQA_TEST_INT", 7), 42);
    ::setenv("LEQA_TEST_INT", "not-a-number", 1);
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(lu::env_int("LEQA_TEST_INT", 7), 7);
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "ignoring malformed integer in $LEQA_TEST_INT='not-a-number'"),
              std::string::npos);
    ::unsetenv("LEQA_TEST_INT");
    EXPECT_EQ(lu::env_int("LEQA_TEST_INT", 7), 7);
}

// --------------------------------------------------------------- stopwatch --

TEST(Stopwatch, MeasuresElapsedTime) {
    lu::Stopwatch sw;
    const double t0 = sw.seconds();
    EXPECT_GE(t0, 0.0);
    // A tight loop must consume some measurable time ordering.
    volatile double sink = 0.0;
    for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
    EXPECT_GE(sw.seconds(), t0);
    sw.reset();
    EXPECT_LT(sw.seconds(), 1.0);
}

// ------------------------------------------------------------------ error --

TEST(Error, RequireMacrosThrowProperTypes) {
    EXPECT_THROW(LEQA_REQUIRE(false, "bad input"), lu::InputError);
    EXPECT_THROW(LEQA_CHECK(false, "bug"), lu::InternalError);
    EXPECT_NO_THROW(LEQA_REQUIRE(true, "ok"));
    EXPECT_EQ(lu::prefixed("ctx", "detail"), "ctx: detail");
    EXPECT_EQ(lu::prefixed("", "detail"), "detail");
}

/** @file The service JSON layer: strict parsing, malformed-input
 *  rejection, bit-exact double round trips, and canonical-form
 *  (hashing) invariance. */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "service/json.hh"
#include "trace/workload.hh"
#include "util/thread_pool.hh"

namespace gpm::json
{
namespace
{

Value
parseOk(const std::string &text)
{
    auto r = parse(text);
    EXPECT_TRUE(r.ok()) << text << " -> "
                        << (r.ok() ? "" : r.error().message);
    return r.ok() ? r.value() : Value();
}

std::string
parseErr(const std::string &text)
{
    auto r = parse(text);
    EXPECT_FALSE(r.ok()) << text << " unexpectedly parsed";
    return r.ok() ? "" : r.error().message;
}

TEST(Json, ParsesScalars)
{
    EXPECT_TRUE(parseOk("null").isNull());
    EXPECT_TRUE(parseOk("true").asBool());
    EXPECT_FALSE(parseOk("false").asBool());
    EXPECT_EQ(parseOk("42").asNumber(), 42.0);
    EXPECT_EQ(parseOk("-0.5e2").asNumber(), -50.0);
    EXPECT_EQ(parseOk("\"hi\"").asString(), "hi");
    EXPECT_EQ(parseOk("  17 ").asNumber(), 17.0);
}

TEST(Json, ParsesNestedStructures)
{
    Value v = parseOk(
        R"({"a": [1, 2, {"b": null}], "c": {"d": "e"}})");
    ASSERT_TRUE(v.isObject());
    const Value *a = v.find("a");
    ASSERT_TRUE(a && a->isArray());
    ASSERT_EQ(a->asArray().size(), 3u);
    EXPECT_EQ(a->asArray()[1].asNumber(), 2.0);
    EXPECT_TRUE(a->asArray()[2].find("b")->isNull());
    EXPECT_EQ(v.find("c")->find("d")->asString(), "e");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput)
{
    for (const char *bad :
         {"", "  ", "{", "[", "\"", "{\"a\":}", "[1,]", "{,}",
          "[1 2]", "{\"a\" 1}", "tru", "nul", "TRUE", "'x'",
          "{\"a\":1,}", "1 2", "[1]]", "{\"a\":1}x", "\x01"})
        parseErr(bad);
}

TEST(Json, RejectsMalformedNumbers)
{
    for (const char *bad : {"01", "1.", ".5", "+1", "1e", "1e+",
                            "--1", "nan", "Infinity", "0x10", "- 1"})
        parseErr(bad);
}

TEST(Json, RejectsDuplicateKeys)
{
    EXPECT_NE(parseErr(R"({"a":1,"a":2})").find("duplicate"),
              std::string::npos);
}

/** One request line of distinct keys, just under gpmd's 1 MiB line
 *  limit, must not stall the reactor that parses it. */
TEST(Json, ManyDistinctKeysParseQuickly)
{
    constexpr int n = 95'000;
    std::string text = "{";
    for (int i = 0; i < n; i++)
        text += "\"k" + std::to_string(i) + "\":0,";
    std::string dupAt = text + "\"k";
    text.back() = '}';
    ASSERT_LT(text.size(), 1u << 20);

    auto t0 = std::chrono::steady_clock::now();
    auto r = parse(text);
    double s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_EQ(r.value().asObject().size(), std::size_t(n));
    EXPECT_NE(r.value().find("k94999"), nullptr);
    EXPECT_LT(s, 1.0);

    // The duplicate is the last member: reported at its own offset.
    std::string dup = text;
    dup.back() = ',';
    dup += "\"k7\":0}";
    auto d = parse(dup);
    ASSERT_FALSE(d.ok());
    EXPECT_EQ(d.error().message, "duplicate key 'k7'");
    EXPECT_EQ(d.error().offset, dupAt.size() - 2);
}

TEST(Json, StringEscapes)
{
    EXPECT_EQ(parseOk(R"("a\nb\tc\"d\\e\/f")").asString(),
              "a\nb\tc\"d\\e/f");
    EXPECT_EQ(parseOk(R"("Aé")").asString(),
              "A\xc3\xa9");
    // Astral plane via surrogate pair (U+1F600).
    EXPECT_EQ(parseOk(R"("😀")").asString(),
              "\xf0\x9f\x98\x80");
    parseErr(R"("\ud83d")");       // unpaired high surrogate
    parseErr(R"("\ude00")");       // lone low surrogate
    parseErr(R"("\ud83dA")"); // invalid low surrogate
    parseErr(R"("\q")");           // unknown escape
    parseErr("\"a\nb\"");          // raw control character
}

TEST(Json, SerializerEscapesControlCharacters)
{
    Value v(std::string("a\"b\\c\n\x01"));
    EXPECT_EQ(v.dump(), "\"a\\\"b\\\\c\\n\\u0001\"");
    // And it parses back to the identical string.
    EXPECT_EQ(parseOk(v.dump()).asString(), v.asString());
}

/** The string writer as it was: one append per character. */
std::string
referenceEscaped(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
    return out;
}

TEST(Json, StringWriterMatchesPerCharacterLoop)
{
    std::vector<std::string> inputs = {""};
    std::string all;
    for (int b = 0; b < 256; b++) {
        const char c = static_cast<char>(b);
        all += c;
        // Alone, inside a run, and at either end of one.
        inputs.push_back(std::string(1, c));
        inputs.push_back("ab" + std::string(1, c) + "cd");
        inputs.push_back(std::string(2, c) + "xyz");
        inputs.push_back("xyz" + std::string(2, c));
    }
    inputs.push_back(all);
    inputs.push_back(std::string(all.rbegin(), all.rend()));
    for (const auto &w : spec2000Suite())
        inputs.push_back(w.name);
    for (const auto &[key, combo] : benchmarkCombinations()) {
        inputs.push_back(key);
        for (const auto &name : combo)
            inputs.push_back(name);
    }
    for (const auto &in : inputs) {
        const std::string want = referenceEscaped(in);
        EXPECT_EQ(Value(in).dump(), want);
        // Object keys go through the same writer.
        Value obj = Value::object();
        obj.set(in, Value(1.0));
        EXPECT_EQ(obj.dump(), "{" + want + ":1}");
    }
}

TEST(Json, DepthLimit)
{
    std::string deep40(40, '['), close40(40, ']');
    parseOk(deep40 + "1" + close40);
    std::string deep100(100, '['), close100(100, ']');
    parseErr(deep100 + "1" + close100);
}

/** formatDouble() into a new string. */
std::string
format(double d)
{
    std::string s;
    formatDouble(s, d);
    return s;
}

/** formatDouble as it was before the search started at the
 *  shortest digit count: every precision from 1 up. */
std::string
referenceFormatDouble(double d)
{
    if (!std::isfinite(d))
        return "null";
    char buf[32];
    for (int prec = 1; prec <= 17; prec++) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, d);
        if (std::strtod(buf, nullptr) == d)
            break;
    }
    return buf;
}

TEST(Json, DoublesRoundTripBitExactly)
{
    const double cases[] = {0.0,
                            -0.0,
                            1.0,
                            0.1,
                            1.0 / 3.0,
                            2.0 / 3.0,
                            1e-9,
                            6.02214076e23,
                            123456789.123456789,
                            5e-324,
                            1.7976931348623157e308,
                            0.625,
                            0.925};
    for (double d : cases) {
        std::string s = format(d);
        double back = parseOk(s).asNumber();
        EXPECT_EQ(std::memcmp(&back, &d, sizeof(double)), 0)
            << d << " -> " << s << " -> " << back;
    }
    EXPECT_EQ(format(0.5), "0.5"); // shortest form wins
    EXPECT_EQ(format(5.0), "5");

    // Byte-identical to the reference search, and bit-exact through
    // strtod, over every power of two with its two neighbours (both
    // signs, subnormals included; the shortest correctly rounded
    // string misses some of them) and seeded random bit patterns.
    std::vector<double> inputs;
    for (int e = -1074; e <= 1023; e++) {
        for (double sign : {1.0, -1.0}) {
            double p = std::ldexp(sign, e);
            inputs.push_back(std::nextafter(p, 0.0));
            inputs.push_back(p);
            inputs.push_back(std::nextafter(p, sign * HUGE_VAL));
        }
    }
    std::mt19937_64 rng(20061209);
    for (int i = 0; i < 1'000'000; i++) {
        std::uint64_t bits = rng();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        inputs.push_back(d);
    }
    // Random bit patterns rarely land where payload values live, so
    // add seeded values from there: uniform in [0, 1), [0, 1000)
    // and the budget fractions' [0.5, 0.95).
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 100'000; i++) {
        inputs.push_back(unit(rng));
        inputs.push_back(1000.0 * unit(rng));
        inputs.push_back(0.5 + 0.45 * unit(rng));
    }
    // The reference costs ~10 us per full-precision double, so the
    // inputs are checked in chunks across the thread pool.
    constexpr std::size_t chunk = 1 << 14;
    std::vector<std::vector<std::string>> bad(
        (inputs.size() + chunk - 1) / chunk);
    parallelFor(0, bad.size(), [&](std::size_t c) {
        std::size_t end = std::min(inputs.size(), (c + 1) * chunk);
        for (std::size_t i = c * chunk; i < end; i++) {
            double d = inputs[i];
            std::string got = format(d);
            std::string want = referenceFormatDouble(d);
            double back = std::strtod(got.c_str(), nullptr);
            if (got != want || (std::isfinite(d) &&
                                std::memcmp(&back, &d, sizeof d))) {
                std::ostringstream os;
                os << std::hexfloat << d << ": " << got
                   << " vs reference " << want;
                bad[c].push_back(os.str());
            }
        }
    });
    std::size_t mismatches = 0;
    for (const auto &chunk_bad : bad)
        for (const auto &msg : chunk_bad)
            if (mismatches++ < 10)
                ADD_FAILURE() << msg;
    EXPECT_EQ(mismatches, 0u) << "of " << inputs.size();
}

TEST(Json, DumpPreservesInsertionOrderCanonicalSorts)
{
    Value v = Value::object();
    v.set("zeta", 1);
    v.set("alpha", Value::array());
    EXPECT_EQ(v.dump(), R"({"zeta":1,"alpha":[]})");
    EXPECT_EQ(v.canonical(), R"({"alpha":[],"zeta":1})");
}

TEST(Json, CanonicalHashIgnoresKeyOrder)
{
    Value a = parseOk(R"({"x": 1, "y": [true, {"k": 2}]})");
    Value b = parseOk(R"({"y": [true, {"k": 2}], "x": 1})");
    EXPECT_EQ(a.canonical(), b.canonical());
    EXPECT_EQ(fnv1a(a.canonical()), fnv1a(b.canonical()));

    Value c = parseOk(R"({"x": 1, "y": [true, {"k": 3}]})");
    EXPECT_NE(fnv1a(a.canonical()), fnv1a(c.canonical()));
}

TEST(Json, SetReplacesExistingKey)
{
    Value v = Value::object();
    v.set("a", 1);
    v.set("a", 2);
    ASSERT_EQ(v.asObject().size(), 1u);
    EXPECT_EQ(v.find("a")->asNumber(), 2.0);
}

TEST(Json, ParseDumpRoundTrip)
{
    std::string text =
        R"({"s":"é","n":-1.25e-3,"b":false,"a":[null,1],"o":{}})";
    Value v = parseOk(text);
    EXPECT_EQ(parseOk(v.dump()).canonical(), v.canonical());
}

} // namespace
} // namespace gpm::json

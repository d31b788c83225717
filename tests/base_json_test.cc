// Tests for the shared JSON writer (src/base/json.h): every appender must
// produce the bytes of the printf conversion or the escaper it replaced, so
// the sweep and fleet exports stay byte-identical.
#include "src/base/json.h"

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace artemis {
namespace {

constexpr int kDigits[] = {1, 2, 3, 6, 9};

std::string Printf(double v, int digits) {
  const int n = std::snprintf(nullptr, 0, "%.*f", digits, v);
  std::string out(static_cast<std::size_t>(n) + 1, '\0');
  std::snprintf(out.data(), out.size(), "%.*f", digits, v);
  out.resize(static_cast<std::size_t>(n));
  return out;
}

std::string Fixed(double v, int digits) {
  std::string out;
  AppendFixed(out, v, digits);
  return out;
}

// The escaper the appenders replaced, kept verbatim as the oracle.
std::string ReferenceEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonAppendFixedTest, MatchesPrintfOnSpecialValues) {
  const double kSpecial[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(),
                             -std::numeric_limits<double>::quiet_NaN(),
                             DBL_MAX,
                             -DBL_MAX,
                             DBL_MIN,
                             -DBL_MIN,
                             std::numeric_limits<double>::denorm_min(),
                             0.5,
                             1.5,
                             2.5,
                             -2.5,
                             0.125,
                             0.0005,
                             0.05,
                             1.0 / 3.0,
                             9.9999995,
                             999999.9999999,
                             19'500.0,
                             32'267.976,
                             1e15,
                             1e16,
                             1e22,
                             1e23,
                             9007199254740993.0,
                             18446744073709551615.0};
  for (const int digits : kDigits) {
    for (const double v : kSpecial) {
      EXPECT_EQ(Fixed(v, digits), Printf(v, digits)) << "digits " << digits << " value " << v;
    }
  }
}

TEST(JsonAppendFixedTest, MatchesPrintfOnSeededRandomCorpus) {
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> typical(-1e6, 1e6);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> corpus;
  for (int i = 0; i < 4000; ++i) {
    // Any finite bit pattern, from subnormals to DBL_MAX.
    double bits_value = 0.0;
    do {
      const std::uint64_t bits = rng();
      std::memcpy(&bits_value, &bits, sizeof(bits_value));
    } while (!std::isfinite(bits_value));
    corpus.push_back(bits_value);
    corpus.push_back(typical(rng));
    corpus.push_back(unit(rng));
    // Halfway cases at every tested precision.
    const double scale = std::pow(10.0, kDigits[i % 5]);
    corpus.push_back((std::floor(typical(rng) * scale) + 0.5) / scale);
  }
  for (const int digits : kDigits) {
    for (const double v : corpus) {
      ASSERT_EQ(Fixed(v, digits), Printf(v, digits)) << "digits " << digits << " value " << v;
    }
  }
}

TEST(JsonAppendFixedTest, AppendsAfterExistingText) {
  std::string out = "x=";
  AppendFixed(out, 1.25, 1);
  AppendFixed(out, DBL_MAX, 9);
  EXPECT_EQ(out, "x=1.2" + Printf(DBL_MAX, 9));
}

TEST(JsonAppendIntegerTest, MatchesPrintf) {
  std::vector<std::uint64_t> unsigned_values = {0, 1, 9, 10, 99, 100, 4294967295ull,
                                                std::numeric_limits<std::uint64_t>::max()};
  std::vector<std::int64_t> signed_values = {0, 1, -1, 9, -10, std::numeric_limits<std::int64_t>::max(),
                                             std::numeric_limits<std::int64_t>::min()};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t r = rng() >> (i % 64);
    unsigned_values.push_back(r);
    signed_values.push_back(static_cast<std::int64_t>(rng()) >> (i % 64));
  }
  char buf[32];
  for (const std::uint64_t v : unsigned_values) {
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    std::string out = "[";
    AppendUint(out, v);
    EXPECT_EQ(out, std::string("[") + buf);
  }
  for (const std::int64_t v : signed_values) {
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    std::string out = "[";
    AppendInt(out, v);
    EXPECT_EQ(out, std::string("[") + buf);
  }
}

TEST(JsonStringTest, EveryByteMatchesTheReferenceEscaper) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    all += one;
    EXPECT_EQ(JsonEscape(one), ReferenceEscape(one)) << "byte " << b;
    std::string quoted = "{";
    AppendJsonString(quoted, one);
    EXPECT_EQ(quoted, "{\"" + ReferenceEscape(one) + "\"") << "byte " << b;
  }
  EXPECT_EQ(JsonEscape(all), ReferenceEscape(all));
  // Escapes after a clean prefix (the fast path's hand-over point).
  const std::string mixed = "plain text then \"quotes\"\t\x01 and \\ end";
  std::string quoted;
  AppendJsonString(quoted, mixed);
  EXPECT_EQ(quoted, "\"" + ReferenceEscape(mixed) + "\"");
}

TEST(JsonStringTest, CleanTextIsQuotedVerbatim) {
  std::string out = "a";
  AppendJsonString(out, "health");
  AppendJsonString(out, "");
  EXPECT_EQ(out, "a\"health\"\"\"");
}

}  // namespace
}  // namespace artemis

#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "util/table_printer.h"

namespace xmark {
namespace {

TEST(ParseDoubleTest, ParsesPlainNumbers) {
  EXPECT_DOUBLE_EQ(*ParseDouble("42"), 42.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("40.5"), 40.5);
  EXPECT_DOUBLE_EQ(*ParseDouble("-3.25"), -3.25);
  EXPECT_DOUBLE_EQ(*ParseDouble("  17.50  "), 17.5);
}

TEST(ParseDoubleTest, RejectsNonNumeric) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("12x").has_value());
  EXPECT_FALSE(ParseDouble("1.2.3").has_value());
}

TEST(ParseIntTest, Basics) {
  EXPECT_EQ(*ParseInt("123"), 123);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_FALSE(ParseInt("1.5").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
}

// TrimWhitespace trims exactly what std::isspace accepts in the C locale
// (the test never calls setlocale), at either end and never inside.
TEST(TrimTest, TrimsExactlyTheCLocaleSpaces) {
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const bool space = std::isspace(b) != 0;
    const std::string alone(1, c);
    const std::string padded = alone + "x" + alone + "y" + alone;
    EXPECT_EQ(TrimWhitespace(alone).empty(), space) << "byte " << b;
    EXPECT_EQ(TrimWhitespace(padded),
              space ? padded.substr(1, padded.size() - 2) : padded)
        << "byte " << b;
  }
}

TEST(TrimTest, TrimsBothEnds) {
  EXPECT_EQ(TrimWhitespace("  a b \n"), "a b");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace(" \t\n "), "");
}

TEST(ContainsTest, SubstringSemantics) {
  EXPECT_TRUE(Contains("pure gold ring", "gold"));
  EXPECT_TRUE(Contains("golden", "gold"));
  EXPECT_FALSE(Contains("silver", "gold"));
  EXPECT_TRUE(Contains("anything", ""));
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("person0", "person"));
  EXPECT_FALSE(StartsWith("person", "person0"));
  EXPECT_TRUE(EndsWith("auction.xml", ".xml"));
  EXPECT_FALSE(EndsWith("xml", "auction.xml"));
}

TEST(SplitJoinTest, RoundTrip) {
  auto pieces = SplitString("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, "-"), "a-b-c");
  EXPECT_EQ(JoinStrings({}, "-"), "");
}

TEST(FormatDoubleTest, IntegersHaveNoPoint) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(-12.0), "-12");
  EXPECT_EQ(FormatDouble(2.5), "2.5");
}

// FormatDouble prints with std::to_chars; its bytes must stay those of
// printf's "%lld" (integral values below 1e15) and "%.12g" (the rest).
std::string PrintfFormat(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "INF" : "-INF";
  char buf[64];
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.12g", v);
  }
  return buf;
}

TEST(FormatDoubleTest, MatchesPrintfByteForByte) {
  std::vector<double> values = {
      0.0, -0.0, 1e15 - 1, -(1e15 - 1), 1e15, -1e15, 0.1, 1.0 / 3, -1.0 / 3,
      1e-7, 1e21, -1e21, 123456789012.5, 0.000123456789012345, 1e300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3,
      std::numeric_limits<double>::max(), std::nan(""),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  for (int k = -40; k <= 40; ++k) {
    values.push_back(2.20371 * k);  // Q18's currency conversion
    values.push_back(2.20371 * k * 1234.5);
  }
  for (double v : values) {
    EXPECT_EQ(FormatDouble(v), PrintfFormat(v)) << "value " << v;
  }
  EXPECT_EQ(FormatDouble(-0.0), "0");
  EXPECT_EQ(FormatDouble(1e15), "1e+15");
  EXPECT_EQ(FormatDouble(1.0 / 3), "0.333333333333");
}

TEST(XmlEscapeTest, EscapesSpecials) {
  std::string out;
  AppendXmlEscaped(out, "a<b>&\"c\"");
  EXPECT_EQ(out, "a&lt;b&gt;&amp;&quot;c&quot;");
}

// Per-character reference for the table-driven scan.
std::string ReferenceEscape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

// Every byte value, alone and at the start, middle and end of a run of
// plain bytes, appended after existing output. Bytes >= 0x80 (UTF-8) catch
// a table indexed by signed char.
TEST(XmlEscapeTest, EveryByteMatchesPerCharacterReference) {
  for (int b = 0; b < 256; ++b) {
    const std::string byte(1, static_cast<char>(b));
    for (const std::string& input :
         {byte, byte + "run", "run" + byte + "run", "run" + byte,
          byte + byte + "\xc3\xa9" + byte}) {
      std::string out = "prefix<";
      AppendXmlEscaped(out, input);
      EXPECT_EQ(out, "prefix<" + ReferenceEscape(input)) << "byte " << b;
    }
  }
  std::string all;
  for (int b = 0; b < 256; ++b) all.push_back(static_cast<char>(b));
  std::string out;
  AppendXmlEscaped(out, all);
  EXPECT_EQ(out, ReferenceEscape(all));
  EXPECT_EQ(out.size(), 256u + 4 + 3 + 3 + 5);
}

TEST(StringPrintfTest, Formats) {
  EXPECT_EQ(StringPrintf("%d-%s", 4, "x"), "4-x");
  EXPECT_EQ(StringPrintf("%.2f", 1.005), "1.00");
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"System", "Size"});
  t.AddRow({"A", "241 MB"});
  t.AddRow({"Longname", "1 MB"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("System   | Size"), std::string::npos);
  EXPECT_NE(out.find("A        | 241 MB"), std::string::npos);
}

TEST(TablePrinterTest, PadsMissingCells) {
  TablePrinter t({"a", "b", "c"});
  t.AddRow({"1"});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("1"), std::string::npos);
}

}  // namespace
}  // namespace xmark

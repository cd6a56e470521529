#include "util/string_util.h"

#include <gtest/gtest.h>

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

TEST(XmlEscapeTest, EscapesSpecials) {
  std::string out;
  AppendXmlEscaped(out, "a<b>&\"c\"");
  EXPECT_EQ(out, "a&lt;b&gt;&amp;&quot;c&quot;");
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

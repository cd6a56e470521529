#include "xml/dom.h"

#include <gtest/gtest.h>

#include "xml/serializer.h"

namespace xmark::xml {
namespace {

Document MustParse(std::string_view text, bool keep_ws = false) {
  auto result = Document::Parse(text, keep_ws);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

TEST(DomTest, RootAndStructure) {
  Document doc = MustParse("<a><b/><c>t</c></a>");
  const NodeId root = doc.root();
  ASSERT_NE(root, kInvalidNode);
  EXPECT_EQ(doc.tag(root), "a");
  const NodeId b = doc.first_child(root);
  EXPECT_EQ(doc.tag(b), "b");
  const NodeId c = doc.next_sibling(b);
  EXPECT_EQ(doc.tag(c), "c");
  EXPECT_EQ(doc.next_sibling(c), kInvalidNode);
  const NodeId t = doc.first_child(c);
  EXPECT_EQ(doc.kind(t), NodeKind::kText);
  EXPECT_EQ(doc.text(t), "t");
  EXPECT_EQ(doc.parent(t), c);
  EXPECT_EQ(doc.parent(b), root);
  EXPECT_EQ(doc.parent(root), kInvalidNode);
}

TEST(DomTest, PreorderIdsAreDocumentOrder) {
  Document doc = MustParse("<a><b><d/></b><c/></a>");
  const NodeId a = doc.root();
  const NodeId b = doc.first_child(a);
  const NodeId d = doc.first_child(b);
  const NodeId c = doc.next_sibling(b);
  EXPECT_LT(a, b);
  EXPECT_LT(b, d);
  EXPECT_LT(d, c);
}

TEST(DomTest, Attributes) {
  Document doc = MustParse("<p id=\"person0\" featured=\"yes\"/>");
  const NodeId p = doc.root();
  EXPECT_EQ(doc.attribute_count(p), 2u);
  EXPECT_EQ(*doc.attribute(p, "id"), "person0");
  EXPECT_EQ(*doc.attribute(p, "featured"), "yes");
  EXPECT_FALSE(doc.attribute(p, "missing").has_value());
}

TEST(DomTest, WhitespaceDroppedByDefault) {
  Document doc = MustParse("<a>\n  <b/>\n</a>");
  const NodeId b = doc.first_child(doc.root());
  EXPECT_EQ(doc.tag(b), "b");
  EXPECT_EQ(doc.next_sibling(b), kInvalidNode);
}

TEST(DomTest, WhitespaceKeptOnRequest) {
  Document doc = MustParse("<a> <b/> </a>", /*keep_ws=*/true);
  const NodeId first = doc.first_child(doc.root());
  EXPECT_EQ(doc.kind(first), NodeKind::kText);
}

TEST(DomTest, StringValueConcatenatesDescendantText) {
  Document doc = MustParse("<a>one <b>two</b> three</a>");
  EXPECT_EQ(doc.StringValue(doc.root()), "one two three");
}

TEST(DomTest, StringValueOfTextNode) {
  Document doc = MustParse("<a>plain</a>");
  EXPECT_EQ(doc.StringValue(doc.first_child(doc.root())), "plain");
}

TEST(DomTest, SubtreeEndCoversDescendants) {
  Document doc = MustParse("<a><b><c/><d/></b><e/></a>");
  const NodeId a = doc.root();
  const NodeId b = doc.first_child(a);
  const NodeId e = doc.next_sibling(b);
  EXPECT_EQ(doc.SubtreeEnd(b), e);
  EXPECT_EQ(doc.SubtreeEnd(a), doc.num_nodes());
}

TEST(DomTest, Depth) {
  Document doc = MustParse("<a><b><c/></b></a>");
  const NodeId a = doc.root();
  const NodeId b = doc.first_child(a);
  const NodeId c = doc.first_child(b);
  EXPECT_EQ(doc.Depth(a), 0);
  EXPECT_EQ(doc.Depth(b), 1);
  EXPECT_EQ(doc.Depth(c), 2);
}

TEST(DomTest, AdjacentTextMerged) {
  // Entity references force separate SAX callbacks; the builder merges.
  Document doc = MustParse("<a>x&amp;y</a>");
  const NodeId t = doc.first_child(doc.root());
  EXPECT_EQ(doc.text(t), "x&y");
  EXPECT_EQ(doc.next_sibling(t), kInvalidNode);
}

TEST(DomTest, ColumnsShareOneHeapInDocumentOrder) {
  // Attribute values and text nodes land in one heap in document order;
  // heap_offset(n + 1) ends node n's characters.
  Document doc = MustParse("<a x=\"1\" y=\"22\"><b>t</b>u&amp;v</a>");
  ASSERT_EQ(doc.num_nodes(), 4u);  // a, b, "t", "u&v"
  EXPECT_EQ(doc.heap_offset(0), 0u);
  EXPECT_EQ(doc.heap_offset(1), 3u);
  EXPECT_EQ(doc.heap_offset(2), 3u);
  EXPECT_EQ(doc.heap_offset(3), 4u);
  EXPECT_EQ(doc.heap_offset(4), 7u);  // closing entry
  EXPECT_EQ(doc.attribute_begin(0), 0u);
  EXPECT_EQ(doc.attribute_begin(1), 2u);
  EXPECT_EQ(doc.attribute_begin(4), 2u);
  EXPECT_EQ(doc.attribute_row(1).offset, 1u);
  EXPECT_EQ(doc.attribute_row(1).length, 2u);
  EXPECT_EQ(doc.text(3), "u&v");
  EXPECT_EQ(doc.text(0), "");  // elements have no text of their own
  EXPECT_EQ(doc.SubtreeEnd(1), 3u);
  EXPECT_EQ(doc.next_sibling(1), 3u);
  EXPECT_EQ(doc.first_child(2), kInvalidNode);
  std::string values;
  for (const DomAttribute& a : doc.attributes(0)) values.append(a.value);
  EXPECT_EQ(values, "122");
  EXPECT_EQ(doc.ReleaseHeap(), "122tu&v");
}

TEST(DomTest, SecondDocumentElementRejected) {
  EXPECT_FALSE(Document::Parse("<a/><b/>").ok());
  EXPECT_FALSE(Document::Parse("<a>x</a><b>y</b>").ok());
}

TEST(DomTest, MemoryBytesPositive) {
  Document doc = MustParse("<a><b>text</b></a>");
  EXPECT_GT(doc.MemoryBytes(), 0u);
}

TEST(SerializerTest, RoundTripSimple) {
  const std::string src = "<a x=\"1\"><b>hi</b><c/></a>";
  Document doc = MustParse(src);
  EXPECT_EQ(SerializeDocument(doc), src);
}

TEST(SerializerTest, EscapesOnOutput) {
  Document doc = MustParse("<a t=\"&lt;&amp;&quot;\">x &lt; y</a>");
  const std::string out = SerializeDocument(doc);
  EXPECT_EQ(out, "<a t=\"&lt;&amp;&quot;\">x &lt; y</a>");
}

TEST(SerializerTest, ReparseYieldsIdenticalSerialization) {
  // Property: serialize(parse(serialize(d))) == serialize(d).
  const std::string src =
      "<site><people><person id=\"person0\"><name>A B</name>"
      "</person></people></site>";
  Document doc = MustParse(src);
  const std::string once = SerializeDocument(doc);
  Document doc2 = MustParse(once);
  EXPECT_EQ(SerializeDocument(doc2), once);
}

TEST(SerializerTest, CanonicalSortsAttributes) {
  Document doc = MustParse("<a zz=\"1\" aa=\"2\"/>");
  SerializeOptions opts;
  opts.canonical = true;
  EXPECT_EQ(SerializeDocument(doc, opts), "<a aa=\"2\" zz=\"1\"/>");
}

TEST(SerializerTest, IndentedOutputParsesBack) {
  Document doc = MustParse("<a><b><c>x</c></b></a>");
  SerializeOptions opts;
  opts.indent = true;
  const std::string pretty = SerializeDocument(doc, opts);
  Document doc2 = MustParse(pretty);
  EXPECT_EQ(SerializeDocument(doc2), "<a><b><c>x</c></b></a>");
}

TEST(DomTest, ParseFileErrorsOnMissingFile) {
  auto result = Document::ParseFile("/nonexistent/path.xml");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST(DomTest, EmptyDocumentRejected) {
  EXPECT_FALSE(Document::Parse("").ok());
  EXPECT_FALSE(Document::Parse("   ").ok());
}

}  // namespace
}  // namespace xmark::xml

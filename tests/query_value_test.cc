#include "query/value.h"

#include <gtest/gtest.h>

namespace xmark::query {
namespace {

TEST(ItemTest, AtomicKinds) {
  EXPECT_TRUE(Item(true).is_boolean());
  EXPECT_TRUE(Item(3.5).is_number());
  EXPECT_TRUE(Item(std::string("x")).is_string());
  EXPECT_TRUE(Item(3.5).is_atomic());
  EXPECT_FALSE(Item(3.5).is_node());
}

TEST(ItemTest, StringValues) {
  EXPECT_EQ(ItemStringValue(Item(true)), "true");
  EXPECT_EQ(ItemStringValue(Item(false)), "false");
  EXPECT_EQ(ItemStringValue(Item(3.0)), "3");
  EXPECT_EQ(ItemStringValue(Item(3.25)), "3.25");
  EXPECT_EQ(ItemStringValue(Item(std::string("abc"))), "abc");
}

TEST(ItemTest, NumberValues) {
  EXPECT_DOUBLE_EQ(*ItemNumberValue(Item(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(*ItemNumberValue(Item(std::string("42"))), 42.0);
  EXPECT_DOUBLE_EQ(*ItemNumberValue(Item(true)), 1.0);
  EXPECT_FALSE(ItemNumberValue(Item(std::string("abc"))).has_value());
}

TEST(EffectiveBooleanTest, Rules) {
  EXPECT_FALSE(EffectiveBooleanValue({}));
  EXPECT_TRUE(EffectiveBooleanValue({Item(true)}));
  EXPECT_FALSE(EffectiveBooleanValue({Item(false)}));
  EXPECT_TRUE(EffectiveBooleanValue({Item(1.0)}));
  EXPECT_FALSE(EffectiveBooleanValue({Item(0.0)}));
  EXPECT_TRUE(EffectiveBooleanValue({Item(std::string("x"))}));
  EXPECT_FALSE(EffectiveBooleanValue({Item(std::string())}));
}

// Hand-built trees live in a NodeArena like every constructed node; the
// root items alias the arena's shared_ptr.
class ConstructedTest : public ::testing::Test {
 protected:
  ConstructedNode* Text(std::string_view text) {
    ConstructedNode* node = arena_->AllocateNode();
    node->text = arena_->InternText(text);
    return node;
  }
  ConstructedNode* Element(std::string_view tag) {
    ConstructedNode* node = arena_->AllocateNode();
    node->tag = arena_->InternText(tag);
    return node;
  }
  void AddAttribute(ConstructedNode* node, std::string_view name,
                    std::string_view value) {
    node->attributes.push_back(
        {arena_->InternText(name), arena_->InternText(value)});
  }
  Item Root(const ConstructedNode* node) {
    return Item(ConstructedPtr(arena_, node));
  }

  std::shared_ptr<NodeArena> arena_ = std::make_shared<NodeArena>();
};

TEST_F(ConstructedTest, TextNode) {
  EXPECT_EQ(SerializeItem(Root(Text("plain & <text>"))),
            "plain &amp; &lt;text&gt;");
}

TEST_F(ConstructedTest, ElementWithAttributesAndChildren) {
  ConstructedNode* child = Text("inner");
  ConstructedNode* node = Element("item");
  AddAttribute(node, "name", "a \"quoted\" one");
  arena_->AppendChild(node, child);
  EXPECT_EQ(SerializeItem(Root(node)),
            "<item name=\"a &quot;quoted&quot; one\">inner</item>");
}

TEST_F(ConstructedTest, EmptyElementSelfCloses) {
  ConstructedNode* node = Element("person");
  AddAttribute(node, "id", "p1");
  EXPECT_EQ(SerializeItem(Root(node)), "<person id=\"p1\"/>");
}

TEST_F(ConstructedTest, StringValueConcatenatesText) {
  ConstructedNode* t1 = Text("one ");
  ConstructedNode* inner = Element("b");
  ConstructedNode* t2 = Text("two");
  arena_->AppendChild(inner, t2);
  ConstructedNode* node = Element("a");
  arena_->AppendChild(node, t1);
  arena_->AppendChild(node, inner);
  EXPECT_EQ(ConstructedStringValue(*node), "one two");
  EXPECT_EQ(ItemStringValue(Root(node)), "one two");
}

using SequenceTest = ConstructedTest;
using SerializeTest = ConstructedTest;

TEST_F(SequenceTest, SerializeSeparators) {
  Sequence seq{Item(1.0), Item(2.0)};
  EXPECT_EQ(SerializeSequence(seq), "1 2");
  seq.push_back(Root(Element("x")));
  EXPECT_EQ(SerializeSequence(seq), "1 2\n<x/>");
}

// The span-based escape scan (bulk copy between escapable bytes) must
// agree with the old per-character loop on every placement of a special
// character: none, leading, trailing, adjacent, and all four entities.
TEST_F(SerializeTest, EscapeSpanScanCoversAllPlacements) {
  auto esc = [this](std::string_view s) {
    return SerializeItem(Root(Text(s)));
  };
  EXPECT_EQ(esc(""), "");
  EXPECT_EQ(esc("no specials at all"), "no specials at all");
  EXPECT_EQ(esc("&leading"), "&amp;leading");
  EXPECT_EQ(esc("trailing>"), "trailing&gt;");
  EXPECT_EQ(esc("<<>>"), "&lt;&lt;&gt;&gt;");
  EXPECT_EQ(esc("a&b<c>d\"e"), "a&amp;b&lt;c&gt;d&quot;e");
  EXPECT_EQ(esc("&"), "&amp;");
}

// SerializeSequence streams into one pre-reserved buffer: the estimate
// must cover the actual output for atomic-only sequences, so the buffer
// never reallocates while items append.
TEST_F(SerializeTest, EstimateCoversAtomicOutput) {
  Sequence seq{Item(1.5), Item(true), Item(std::string("atomics stay raw")),
               Item(std::string("plain"))};
  const std::string out = SerializeSequence(seq);
  EXPECT_EQ(out, "1.5 true atomics stay raw plain");
  EXPECT_GE(EstimateSerializedSize(seq), out.size());
}

}  // namespace
}  // namespace xmark::query

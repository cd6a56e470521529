// Unit tests for the zero-copy storage access layer: TextView,
// AppendStringValue, AttributeView and ChildCursor on every physical
// mapping, over documents exercising empty elements, mixed content and
// entity-decoded text; and an oracle that reads every node of a generated
// document back through each store's subtree walk.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "gen/generator.h"
#include "query/storage.h"
#include "query/value.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "util/logging.h"
#include "xml/dom.h"
#include "xml/serializer.h"

namespace xmark::query {
namespace {

constexpr std::string_view kDoc = R"(<root>
  <empty/>
  <mixed>alpha<b>bold</b> tail</mixed>
  <ent>a &amp; b &#65;&#x42;</ent>
  <item id="i1" cat="gold"><price>10</price></item>
  <item id="i2"><price>20</price><price>30</price></item>
</root>)";

// XPath string-value of `n`, through the store's append-style accessor.
std::string StringValueOf(const StorageAdapter& store, NodeHandle n) {
  std::string out;
  store.AppendStringValue(n, &out);
  return out;
}

using StoreFactory = std::unique_ptr<StorageAdapter> (*)(std::string_view);

std::unique_ptr<StorageAdapter> MakeEdge(std::string_view xml) {
  auto s = store::EdgeStore::Load(xml);
  XMARK_CHECK(s.ok());
  return std::move(s).value();
}
std::unique_ptr<StorageAdapter> MakeFragmented(std::string_view xml) {
  auto s = store::FragmentedStore::Load(xml);
  XMARK_CHECK(s.ok());
  return std::move(s).value();
}
std::unique_ptr<StorageAdapter> MakeInlined(std::string_view xml) {
  auto s = store::InlinedStore::Load(xml);
  XMARK_CHECK(s.ok());
  return std::move(s).value();
}
std::unique_ptr<StorageAdapter> MakeDom(std::string_view xml) {
  store::DomStore::Options options;
  auto s = store::DomStore::Load(xml, options);
  XMARK_CHECK(s.ok());
  return std::move(s).value();
}
std::unique_ptr<StorageAdapter> MakeBareDom(std::string_view xml) {
  auto s = store::DomStore::Load(xml, store::DomStore::Options{
                                          .build_tag_index = false,
                                          .build_id_index = false,
                                          .build_path_summary = false});
  XMARK_CHECK(s.ok());
  return std::move(s).value();
}

struct StoreCase {
  const char* name;
  StoreFactory factory;
};

void PrintTo(const StoreCase& c, std::ostream* os) { *os << c.name; }

class StoreAccessTest : public ::testing::TestWithParam<StoreCase> {
 protected:
  void SetUp() override { store_ = GetParam().factory(kDoc); }

  // First child element of `base` with the given tag (via the generic
  // navigation chain, deliberately not the cursor under test).
  NodeHandle ChildByTag(NodeHandle base, std::string_view tag) {
    const xml::NameId id = store_->names().Lookup(tag);
    for (NodeHandle c = store_->FirstChild(base); c != kInvalidHandle;
         c = store_->NextSibling(c)) {
      if (store_->IsElement(c) && store_->NameOf(c) == id) return c;
    }
    return kInvalidHandle;
  }

  // Drains a cursor fully with a small batch to exercise refills.
  std::vector<NodeHandle> Drain(NodeHandle parent, ChildFilter filter,
                                xml::NameId tag) {
    ChildCursor cur;
    store_->OpenChildCursor(parent, filter, tag, &cur);
    std::vector<NodeHandle> out;
    NodeHandle buf[3];
    size_t n;
    while ((n = cur.Fill(buf, 3)) > 0) out.insert(out.end(), buf, buf + n);
    return out;
  }

  std::unique_ptr<StorageAdapter> store_;
};

TEST_P(StoreAccessTest, TextViewMatchesText) {
  const NodeHandle mixed = ChildByTag(store_->Root(), "mixed");
  ASSERT_NE(mixed, kInvalidHandle);
  const NodeHandle text = store_->FirstChild(mixed);
  ASSERT_NE(text, kInvalidHandle);
  ASSERT_FALSE(store_->IsElement(text));
  EXPECT_EQ(store_->TextView(text), "alpha");
}

TEST_P(StoreAccessTest, EmptyElement) {
  const NodeHandle empty = ChildByTag(store_->Root(), "empty");
  ASSERT_NE(empty, kInvalidHandle);
  EXPECT_EQ(store_->FirstChild(empty), kInvalidHandle);
  EXPECT_EQ(StringValueOf(*store_, empty), "");
  std::string buf = "prefix-";
  store_->AppendStringValue(empty, &buf);
  EXPECT_EQ(buf, "prefix-");
  EXPECT_TRUE(Drain(empty, ChildFilter::kAll, xml::kInvalidName).empty());
}

TEST_P(StoreAccessTest, MixedContentStringValue) {
  const NodeHandle mixed = ChildByTag(store_->Root(), "mixed");
  ASSERT_NE(mixed, kInvalidHandle);
  EXPECT_EQ(StringValueOf(*store_, mixed), "alphabold tail");
  // Append-style reuse of one scratch buffer.
  std::string scratch = "x:";
  store_->AppendStringValue(mixed, &scratch);
  EXPECT_EQ(scratch, "x:alphabold tail");
}

TEST_P(StoreAccessTest, EntityDecodedText) {
  const NodeHandle ent = ChildByTag(store_->Root(), "ent");
  ASSERT_NE(ent, kInvalidHandle);
  EXPECT_EQ(StringValueOf(*store_, ent), "a & b AB");
  const NodeHandle text = store_->FirstChild(ent);
  ASSERT_NE(text, kInvalidHandle);
  EXPECT_EQ(store_->TextView(text), "a & b AB");
}

TEST_P(StoreAccessTest, LeadingZeroCharRefs) {
  // XML permits leading zeros in numeric character references.
  auto store = GetParam().factory("<r>&#0000065;&#x00042;</r>");
  EXPECT_EQ(StringValueOf(*store, store->Root()), "AB");
}

TEST_P(StoreAccessTest, AttributeView) {
  const NodeHandle item = ChildByTag(store_->Root(), "item");
  ASSERT_NE(item, kInvalidHandle);
  const auto id = store_->AttributeView(item, "id");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, "i1");
  const auto cat = store_->AttributeView(item, "cat");
  ASSERT_TRUE(cat.has_value());
  EXPECT_EQ(*cat, "gold");
  EXPECT_FALSE(store_->AttributeView(item, "absent").has_value());
}

TEST_P(StoreAccessTest, CursorMatchesSiblingChain) {
  // Every filter on every element produces exactly what the generic
  // FirstChild/NextSibling walk produces.
  std::vector<NodeHandle> stack{store_->Root()};
  while (!stack.empty()) {
    const NodeHandle n = stack.back();
    stack.pop_back();
    if (!store_->IsElement(n)) continue;
    std::vector<NodeHandle> chain_all, chain_elems, chain_text;
    for (NodeHandle c = store_->FirstChild(n); c != kInvalidHandle;
         c = store_->NextSibling(c)) {
      chain_all.push_back(c);
      (store_->IsElement(c) ? chain_elems : chain_text).push_back(c);
      stack.push_back(c);
    }
    EXPECT_EQ(Drain(n, ChildFilter::kAll, xml::kInvalidName), chain_all);
    EXPECT_EQ(Drain(n, ChildFilter::kElements, xml::kInvalidName),
              chain_elems);
    EXPECT_EQ(Drain(n, ChildFilter::kText, xml::kInvalidName), chain_text);
    for (NodeHandle c : chain_elems) {
      const xml::NameId tag = store_->NameOf(c);
      std::vector<NodeHandle> chain_tag;
      for (NodeHandle d : chain_elems) {
        if (store_->NameOf(d) == tag) chain_tag.push_back(d);
      }
      EXPECT_EQ(Drain(n, ChildFilter::kTag, tag), chain_tag);
    }
  }
}

TEST_P(StoreAccessTest, TagFilteredCursor) {
  const xml::NameId item = store_->names().Lookup("item");
  ASSERT_NE(item, xml::kInvalidName);
  const auto items = Drain(store_->Root(), ChildFilter::kTag, item);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(store_->AttributeView(items[0], "id"), "i1");
  EXPECT_EQ(store_->AttributeView(items[1], "id"), "i2");
}

TEST_P(StoreAccessTest, UnknownTagCursorIsEmpty) {
  // kTag with kInvalidName must not leak text nodes (whose NameOf is also
  // kInvalidName).
  EXPECT_TRUE(
      Drain(ChildByTag(store_->Root(), "mixed"), ChildFilter::kTag,
            xml::kInvalidName)
          .empty());
}

TEST_P(StoreAccessTest, CursorBatchRefill) {
  // A child list longer than any Fill batch drains correctly across
  // refills.
  std::string doc = "<wide>";
  for (int i = 0; i < 150; ++i) doc += "<c/><d/>";
  doc += "</wide>";
  auto store = GetParam().factory(doc);
  const xml::NameId c_tag = store->names().Lookup("c");
  ChildCursor cur;
  store->OpenChildCursor(store->Root(), ChildFilter::kTag, c_tag, &cur);
  std::vector<NodeHandle> out;
  NodeHandle buf[64];
  size_t n;
  while ((n = cur.Fill(buf, 64)) > 0) out.insert(out.end(), buf, buf + n);
  ASSERT_EQ(out.size(), 150u);
  for (NodeHandle h : out) EXPECT_EQ(store->NameOf(h), c_tag);
  // Document order.
  for (size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1], out[i]);
}

TEST(EntityLimits, OverlongNumericRefRejected) {
  // More digits than any code point <= 0x10ffff needs (after stripping
  // leading zeros) is a malformed reference, not a silent clamp.
  EXPECT_FALSE(xml::Document::Parse("<r>&#99999999;</r>").ok());
  EXPECT_FALSE(xml::Document::Parse("<r>&#x1234567;</r>").ok());
  EXPECT_FALSE(xml::Document::Parse("<r>&#;</r>").ok());
  EXPECT_FALSE(xml::Document::Parse("<r>&#0;</r>").ok());
  EXPECT_TRUE(xml::Document::Parse("<r>&#0000065;</r>").ok());
}

// A generated sf-0.01 document, or its copy with `&`, `<`, `>` and `"`
// injected into ids, names and running text (the injection of
// query_child_kernel_test: a generated document contains no `&`).
const std::string& OracleDocument(bool injected) {
  static const std::string* const kGenerated = [] {
    gen::GeneratorOptions options;
    options.scale = 0.01;
    return new std::string(gen::XmlGen(options).GenerateToString());
  }();
  static const std::string* const kInjected = [] {
    auto* doc = new std::string(*kGenerated);
    const auto replace_all = [doc](std::string_view from, std::string_view to) {
      for (size_t pos = doc->find(from); pos != std::string::npos;
           pos = doc->find(from, pos + to.size())) {
        doc->replace(pos, from.size(), to);
      }
    };
    replace_all("\"person", "\"pe&amp;r&lt;s&gt;o&quot;n");
    replace_all("<name>", "<name>&amp;&lt;");
    replace_all("United States", "United &amp; &lt;States&gt; &quot;");
    replace_all(" the ", " the &amp; &lt;b&gt; &quot;q&quot; ");
    return doc;
  }();
  return injected ? *kInjected : *kGenerated;
}

class SubtreeOracleTest
    : public ::testing::TestWithParam<std::tuple<StoreCase, bool>> {};

// For every node n of the document, on every mapping: the serialization
// is the parsed document's own serialization of n, the string value is
// the document's text in [n, SubtreeEnd(n)), and a DeepCopyNode copy
// serializes to the same bytes. Handles are the document's preorder ids.
TEST_P(SubtreeOracleTest, EveryNodeMatchesTheDocument) {
  const auto& [store_case, injected] = GetParam();
  const std::string& text = OracleDocument(injected);
  ASSERT_EQ(injected, text.find("&amp;") != std::string::npos);
  auto doc = xml::Document::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const auto store = store_case.factory(text);
  ASSERT_EQ(store->NodeCount(), doc->num_nodes());
  std::string value;
  for (xml::NodeId n = 0; n < doc->num_nodes(); ++n) {
    const NodeRef ref{store.get(), n};
    const std::string markup = xml::Serialize(*doc, n);
    ASSERT_EQ(SerializeItem(Item(ref)), markup) << "node " << n;
    value.clear();
    for (xml::NodeId i = n; i < doc->SubtreeEnd(n); ++i) {
      if (!doc->IsElement(i)) value.append(doc->text(i));
    }
    ASSERT_EQ(ItemStringValue(Item(ref)), value) << "node " << n;
    NodeArena arena;
    const ConstructedNode* copy = DeepCopyNode(ref, arena);
    ASSERT_EQ(SerializeItem(Item(ConstructedPtr(ConstructedPtr(), copy))),
              markup)
        << "copy of node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, SubtreeOracleTest,
    ::testing::Combine(::testing::Values(StoreCase{"edge", &MakeEdge},
                                         StoreCase{"fragmented",
                                                   &MakeFragmented},
                                         StoreCase{"inlined", &MakeInlined},
                                         StoreCase{"dom", &MakeDom},
                                         StoreCase{"bare_dom", &MakeBareDom}),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<StoreCase, bool>>& info) {
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) ? "_Injected" : "_Generated");
    });

INSTANTIATE_TEST_SUITE_P(
    AllStores, StoreAccessTest,
    ::testing::Values(StoreCase{"edge", &MakeEdge},
                      StoreCase{"fragmented", &MakeFragmented},
                      StoreCase{"inlined", &MakeInlined},
                      StoreCase{"dom", &MakeDom}),
    [](const ::testing::TestParamInfo<StoreCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace xmark::query

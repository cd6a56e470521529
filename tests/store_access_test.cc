// Unit tests for the zero-copy storage access layer: TextView,
// AppendStringValue, AttributeView and ChildCursor on every physical
// mapping, over documents exercising empty elements, mixed content and
// entity-decoded text; and two oracles over generated documents, both
// read from the parsed xml::Document rather than from the store under
// test: every node's subtree walk, and every node's child and descendant
// cursors under every filter.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
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
  void SetUp() override {
    store_ = GetParam().factory(kDoc);
    auto doc = xml::Document::Parse(kDoc);
    XMARK_CHECK(doc.ok());
    doc_ = std::move(doc).value();
  }

  // First child element of `base` with the given tag, found in the parsed
  // document (whose preorder ids are every store's handles), deliberately
  // not through the cursor under test.
  NodeHandle ChildByTag(NodeHandle base, std::string_view tag) {
    for (xml::NodeId c = doc_.first_child(static_cast<xml::NodeId>(base));
         c != xml::kInvalidNode; c = doc_.next_sibling(c)) {
      if (doc_.IsElement(c) && doc_.tag(c) == tag) return c;
    }
    return kInvalidHandle;
  }

  // First child of `n`, from the store's kAll child cursor.
  NodeHandle FirstChildOf(NodeHandle n) {
    const std::vector<NodeHandle> children =
        Drain(n, ChildFilter::kAll, xml::kInvalidName);
    return children.empty() ? kInvalidHandle : children.front();
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
  xml::Document doc_;
};

TEST_P(StoreAccessTest, TextViewMatchesText) {
  const NodeHandle mixed = ChildByTag(store_->Root(), "mixed");
  ASSERT_NE(mixed, kInvalidHandle);
  const NodeHandle text = FirstChildOf(mixed);
  ASSERT_NE(text, kInvalidHandle);
  ASSERT_FALSE(store_->IsElement(text));
  EXPECT_EQ(store_->TextView(text), "alpha");
}

TEST_P(StoreAccessTest, EmptyElement) {
  const NodeHandle empty = ChildByTag(store_->Root(), "empty");
  ASSERT_NE(empty, kInvalidHandle);
  EXPECT_EQ(FirstChildOf(empty), kInvalidHandle);
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
  const NodeHandle text = FirstChildOf(ent);
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
  const xml::NameTable& names = store_->names();
  const auto id = store_->AttributeView(item, names.Lookup("id"));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, "i1");
  const auto cat = store_->AttributeView(item, names.Lookup("cat"));
  ASSERT_TRUE(cat.has_value());
  EXPECT_EQ(*cat, "gold");
  EXPECT_FALSE(
      store_->AttributeView(item, names.Lookup("absent")).has_value());
  // A tag is a name too, but no attribute of `item` carries it.
  EXPECT_FALSE(
      store_->AttributeView(item, names.Lookup("price")).has_value());
}

TEST_P(StoreAccessTest, CursorMatchesSiblingChain) {
  // Every filter on every element produces exactly what the parsed
  // document's first_child/next_sibling walk produces.
  std::vector<NodeHandle> stack{store_->Root()};
  while (!stack.empty()) {
    const NodeHandle n = stack.back();
    stack.pop_back();
    if (!store_->IsElement(n)) continue;
    std::vector<NodeHandle> chain_all, chain_elems, chain_text;
    for (xml::NodeId c = doc_.first_child(static_cast<xml::NodeId>(n));
         c != xml::kInvalidNode; c = doc_.next_sibling(c)) {
      chain_all.push_back(c);
      (doc_.IsElement(c) ? chain_elems : chain_text).push_back(c);
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
  const xml::NameId id = store_->names().Lookup("id");
  EXPECT_EQ(store_->AttributeView(items[0], id), "i1");
  EXPECT_EQ(store_->AttributeView(items[1], id), "i2");
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

// A document generated at `scale`, or its copy with `&`, `<`, `>` and `"`
// injected into ids, names and running text (the injection of
// query_child_kernel_test: a generated document contains no `&`). Built
// once per (scale, injected).
const std::string& OracleDocument(double scale, bool injected) {
  static auto* const kDocs = new std::map<std::pair<double, bool>,
                                          std::string>();
  auto it = kDocs->find({scale, injected});
  if (it != kDocs->end()) return it->second;
  std::string doc;
  if (injected) {
    doc = OracleDocument(scale, false);
    const auto replace_all = [&doc](std::string_view from,
                                    std::string_view to) {
      for (size_t pos = doc.find(from); pos != std::string::npos;
           pos = doc.find(from, pos + to.size())) {
        doc.replace(pos, from.size(), to);
      }
    };
    replace_all("\"person", "\"pe&amp;r&lt;s&gt;o&quot;n");
    replace_all("<name>", "<name>&amp;&lt;");
    replace_all("United States", "United &amp; &lt;States&gt; &quot;");
    replace_all(" the ", " the &amp; &lt;b&gt; &quot;q&quot; ");
  } else {
    gen::GeneratorOptions options;
    options.scale = scale;
    doc = gen::XmlGen(options).GenerateToString();
  }
  return kDocs->emplace(std::make_pair(scale, injected), std::move(doc))
      .first->second;
}

class SubtreeOracleTest
    : public ::testing::TestWithParam<std::tuple<StoreCase, bool>> {};

// For every node n of the document, on every mapping: the serialization
// is the parsed document's own serialization of n, the string value is
// the document's text in [n, SubtreeEnd(n)), and a DeepCopyNode copy
// serializes to the same bytes. Handles are the document's preorder ids.
TEST_P(SubtreeOracleTest, EveryNodeMatchesTheDocument) {
  const auto& [store_case, injected] = GetParam();
  const std::string& text = OracleDocument(0.01, injected);
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

class CursorOracleTest
    : public ::testing::TestWithParam<std::tuple<StoreCase, bool>> {};

// Every handle a cursor yields, drained in batches of `batch`.
template <typename Cursor>
std::vector<NodeHandle> DrainInBatches(Cursor* cursor, size_t batch) {
  std::vector<NodeHandle> out;
  NodeHandle buf[64];
  for (size_t got; (got = cursor->Fill(buf, batch)) > 0;) {
    out.insert(out.end(), buf, buf + got);
  }
  return out;
}

// For every node n of the document, on every mapping: the child cursor
// yields the document's first_child/next_sibling list and the descendant
// cursor the ids in [n + 1, SubtreeEnd(n)), each filtered by kAll,
// kElements, kText, and kTag for each of n's child tags and for tags that
// are not n's children (the root's, an attribute name, one that n may or
// may not have below it, and the unknown tag), drained in batches of 1, 3
// and 64. The reference reads only the parsed document.
TEST_P(CursorOracleTest, EveryNodeEveryFilterMatchesTheDocument) {
  const auto& [store_case, injected] = GetParam();
  const std::string& text = OracleDocument(0.002, injected);
  ASSERT_EQ(injected, text.find("&amp;") != std::string::npos);
  auto doc = xml::Document::Parse(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const auto store = store_case.factory(text);
  ASSERT_EQ(store->NodeCount(), doc->num_nodes());
  const xml::NameTable& names = store->names();
  // The store's tag id of each document node, by spelling (the stores'
  // dictionaries need not number tags as the document does).
  std::vector<xml::NameId> tag(doc->num_nodes(), xml::kInvalidName);
  for (xml::NodeId i = 0; i < doc->num_nodes(); ++i) {
    if (doc->IsElement(i)) tag[i] = names.Lookup(doc->tag(i));
  }
  const auto keeps = [&](ChildFilter filter, xml::NameId want,
                         xml::NodeId i) {
    switch (filter) {
      case ChildFilter::kAll:
        return true;
      case ChildFilter::kElements:
        return doc->IsElement(i);
      case ChildFilter::kText:
        return !doc->IsElement(i);
      case ChildFilter::kTag:
        return doc->IsElement(i) && want != xml::kInvalidName &&
               tag[i] == want;
    }
    return false;
  };
  const xml::NameId not_children[] = {
      names.Lookup(doc->tag(doc->root())), names.Lookup("id"),
      names.Lookup("keyword"), xml::kInvalidName};
  size_t checks = 0;
  for (xml::NodeId n = 0; n < doc->num_nodes(); ++n) {
    std::vector<xml::NodeId> children;
    for (xml::NodeId c = doc->first_child(n); c != xml::kInvalidNode;
         c = doc->next_sibling(c)) {
      children.push_back(c);
    }
    std::vector<std::pair<ChildFilter, xml::NameId>> filters = {
        {ChildFilter::kAll, xml::kInvalidName},
        {ChildFilter::kElements, xml::kInvalidName},
        {ChildFilter::kText, xml::kInvalidName}};
    for (const xml::NodeId c : children) {
      const std::pair<ChildFilter, xml::NameId> by_tag{ChildFilter::kTag,
                                                       tag[c]};
      if (doc->IsElement(c) && std::find(filters.begin(), filters.end(),
                                         by_tag) == filters.end()) {
        filters.push_back(by_tag);
      }
    }
    for (const xml::NameId t : not_children) {
      filters.emplace_back(ChildFilter::kTag, t);
    }
    for (const auto& [filter, want] : filters) {
      std::vector<NodeHandle> child_want, descendant_want;
      for (const xml::NodeId c : children) {
        if (keeps(filter, want, c)) child_want.push_back(c);
      }
      for (xml::NodeId d = n + 1; d < doc->SubtreeEnd(n); ++d) {
        if (keeps(filter, want, d)) descendant_want.push_back(d);
      }
      for (const size_t batch : {1, 3, 64}) {
        ChildCursor child;
        store->OpenChildCursor(n, filter, want, &child);
        ASSERT_EQ(DrainInBatches(&child, batch), child_want)
            << "children of node " << n << " filter "
            << static_cast<int>(filter) << " tag " << want << " batch "
            << batch;
        DescendantCursor descendant;
        store->OpenDescendantCursor(n, filter, want, &descendant);
        ASSERT_EQ(DrainInBatches(&descendant, batch), descendant_want)
            << "descendants of node " << n << " filter "
            << static_cast<int>(filter) << " tag " << want << " batch "
            << batch;
        checks += 2;
      }
    }
  }
  EXPECT_GT(checks, doc->num_nodes());
}

const auto kOracleStores = ::testing::Values(
    StoreCase{"edge", &MakeEdge}, StoreCase{"fragmented", &MakeFragmented},
    StoreCase{"inlined", &MakeInlined}, StoreCase{"dom", &MakeDom},
    StoreCase{"bare_dom", &MakeBareDom});

std::string OracleCaseName(
    const ::testing::TestParamInfo<std::tuple<StoreCase, bool>>& info) {
  return std::string(std::get<0>(info.param).name) +
         (std::get<1>(info.param) ? "_Injected" : "_Generated");
}

INSTANTIATE_TEST_SUITE_P(AllStores, SubtreeOracleTest,
                         ::testing::Combine(kOracleStores, ::testing::Bool()),
                         OracleCaseName);

INSTANTIATE_TEST_SUITE_P(AllStores, CursorOracleTest,
                         ::testing::Combine(kOracleStores, ::testing::Bool()),
                         OracleCaseName);

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

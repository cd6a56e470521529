// Property tests: every physical mapping must implement the storage
// interface with identical observable semantics. The DomStore is the
// reference; the edge, fragmented and inlined stores are checked against
// it node by node on a generated benchmark document.

#include <gtest/gtest.h>

#include "gen/generator.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "util/logging.h"

namespace xmark::store {
namespace {

const std::string& TestDoc() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions options;
    options.scale = 0.002;
    return new std::string(gen::XmlGen(options).GenerateToString());
  }();
  return *kDoc;
}

// XPath string-value of `n`, through the store's append-style accessor.
std::string StringValueOf(const query::StorageAdapter& store,
                          query::NodeHandle n) {
  std::string out;
  store.AppendStringValue(n, &out);
  return out;
}

// Every attribute of `n` as (name, value), read through the view API.
std::vector<std::pair<std::string, std::string>> AttributesOf(
    const query::StorageAdapter& store, query::NodeHandle n) {
  std::vector<std::pair<std::string, std::string>> out;
  store.ForEachAttribute(n, [&](xml::NameId name, std::string_view value) {
    out.emplace_back(store.names().Spelling(name), value);
  });
  return out;
}

const DomStore& Reference() {
  static const DomStore* const kRef = [] {
    DomStore::Options options;
    auto store = DomStore::Load(TestDoc(), options);
    XMARK_CHECK(store.ok());
    return store->release();
  }();
  return *kRef;
}

enum class Kind { kEdge, kFragmented, kInlined };

const query::StorageAdapter& Subject(Kind kind) {
  static std::map<Kind, const query::StorageAdapter*>* const kStores = [] {
    auto* stores = new std::map<Kind, const query::StorageAdapter*>();
    auto edge = EdgeStore::Load(TestDoc());
    XMARK_CHECK(edge.ok());
    (*stores)[Kind::kEdge] = edge->release();
    auto frag = FragmentedStore::Load(TestDoc());
    XMARK_CHECK(frag.ok());
    (*stores)[Kind::kFragmented] = frag->release();
    auto inlined = InlinedStore::Load(TestDoc());
    XMARK_CHECK(inlined.ok());
    (*stores)[Kind::kInlined] = inlined->release();
    return stores;
  }();
  return *kStores->at(kind);
}

class StoreEquivalence : public ::testing::TestWithParam<Kind> {};

std::string TagOf(const query::StorageAdapter& store, query::NodeHandle n) {
  const xml::NameId id = store.NameOf(n);
  return id == xml::kInvalidName ? "#text"
                                 : std::string(store.names().Spelling(id));
}

// The children of `n` that pass `filter`, drained from the store's child
// cursor in small batches.
std::vector<query::NodeHandle> FilteredChildren(
    const query::StorageAdapter& store, query::NodeHandle n,
    query::ChildFilter filter, xml::NameId tag) {
  query::ChildCursor cursor;
  store.OpenChildCursor(n, filter, tag, &cursor);
  std::vector<query::NodeHandle> out;
  query::NodeHandle buf[3];
  size_t k;
  while ((k = cursor.Fill(buf, 3)) > 0) out.insert(out.end(), buf, buf + k);
  return out;
}

// The children of `n` with tag `tag` (the tag-filtered child cursor).
std::vector<query::NodeHandle> TagChildren(const query::StorageAdapter& store,
                                           query::NodeHandle n,
                                           xml::NameId tag) {
  return FilteredChildren(store, n, query::ChildFilter::kTag, tag);
}

// Every child of `n` by the parsed document's own sibling links (whose
// preorder ids are every store's handles).
std::vector<query::NodeHandle> DocumentChildren(const xml::Document& doc,
                                                query::NodeHandle n) {
  std::vector<query::NodeHandle> out;
  for (xml::NodeId c = doc.first_child(static_cast<xml::NodeId>(n));
       c != xml::kInvalidNode; c = doc.next_sibling(c)) {
    out.push_back(c);
  }
  return out;
}

TEST_P(StoreEquivalence, FullNavigationSweep) {
  const DomStore& ref = Reference();
  const query::StorageAdapter& sub = Subject(GetParam());
  ASSERT_EQ(sub.Root(), ref.Root());
  const size_t n = ref.document().num_nodes();
  for (query::NodeHandle h = 0; h < n; ++h) {
    ASSERT_EQ(sub.IsElement(h), ref.IsElement(h)) << h;
    ASSERT_EQ(TagOf(sub, h), TagOf(ref, h)) << h;
    ASSERT_EQ(sub.Parent(h), ref.Parent(h)) << h;
    ASSERT_EQ(FilteredChildren(sub, h, query::ChildFilter::kAll,
                               xml::kInvalidName),
              DocumentChildren(ref.document(), h))
        << h;
  }
}

TEST_P(StoreEquivalence, TextAndStringValuesSampled) {
  const DomStore& ref = Reference();
  const query::StorageAdapter& sub = Subject(GetParam());
  const size_t n = ref.document().num_nodes();
  for (query::NodeHandle h = 0; h < n; h += 7) {  // sample every 7th node
    if (!ref.IsElement(h)) {
      ASSERT_EQ(sub.TextView(h), ref.TextView(h)) << h;
    }
    ASSERT_EQ(StringValueOf(sub, h), StringValueOf(ref, h)) << h;
  }
}

TEST_P(StoreEquivalence, AttributesMatch) {
  const DomStore& ref = Reference();
  const query::StorageAdapter& sub = Subject(GetParam());
  const size_t n = ref.document().num_nodes();
  for (query::NodeHandle h = 0; h < n; ++h) {
    if (!ref.IsElement(h)) continue;
    ASSERT_EQ(AttributesOf(sub, h), AttributesOf(ref, h)) << h;
    ASSERT_EQ(sub.AttributeView(h, sub.names().Lookup("id")),
              ref.AttributeView(h, ref.names().Lookup("id")))
        << h;
  }
}

TEST_P(StoreEquivalence, IdLookup) {
  const DomStore& ref = Reference();
  const query::StorageAdapter& sub = Subject(GetParam());
  ASSERT_TRUE(sub.Capabilities().id_lookup);
  for (const char* id : {"person0", "person3", "item0", "open_auction1",
                         "category0"}) {
    ASSERT_EQ(sub.NodeById(id), ref.NodeById(id)) << id;
  }
  ASSERT_EQ(sub.NodeById("no-such-id"), query::kInvalidHandle);
}

// The tag-filtered child cursor is the only way the query layer reaches a
// child step's nodes; every mapping answers it from its own layout (C from
// its DTD slots for at-most-once pairs). The optional DTD children below
// also check the empty answers: absent from a node, or never its child.
TEST_P(StoreEquivalence, TagChildCursorAgreesWithScan) {
  const DomStore& ref = Reference();
  const query::StorageAdapter& sub = Subject(GetParam());
  const size_t n = ref.document().num_nodes();
  const xml::NameTable& names = sub.names();
  for (query::NodeHandle h = 0; h < n; ++h) {
    if (!ref.IsElement(h)) continue;
    std::map<std::string, std::vector<query::NodeHandle>> expected;
    for (const char* tag : {"homepage", "creditcard", "profile", "address",
                            "reserve", "privacy", "site"}) {
      expected[tag];
    }
    for (const query::NodeHandle c : DocumentChildren(ref.document(), h)) {
      if (ref.IsElement(c)) expected[TagOf(ref, c)].push_back(c);
    }
    for (const auto& [tag, children] : expected) {
      const xml::NameId tag_id = names.Lookup(tag);
      ASSERT_NE(tag_id, xml::kInvalidName) << tag;
      ASSERT_EQ(TagChildren(sub, h, tag_id), children)
          << "node " << h << " tag " << tag;
    }
  }
}

TEST_P(StoreEquivalence, StorageAccountingPositive) {
  const query::StorageAdapter& sub = Subject(GetParam());
  EXPECT_GT(sub.StorageBytes(), 0u);
  EXPECT_GT(sub.CatalogEntries(), 0u);
  EXPECT_FALSE(sub.mapping_name().empty());
}

INSTANTIATE_TEST_SUITE_P(AllMappings, StoreEquivalence,
                         ::testing::Values(Kind::kEdge, Kind::kFragmented,
                                           Kind::kInlined),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           switch (info.param) {
                             case Kind::kEdge:
                               return "EdgeTable";
                             case Kind::kFragmented:
                               return "FragmentedPaths";
                             case Kind::kInlined:
                               return "DtdInlined";
                           }
                           return "Unknown";
                         });

// Drains the tag-filtered descendant cursor of the root, the scan a
// `//tag` step opens. NameIds are store-local: the tag resolves against
// the store's own table.
std::vector<query::NodeHandle> DrainRootTag(const query::StorageAdapter& store,
                                            std::string_view tag) {
  const xml::NameId id = store.names().Lookup(tag);
  EXPECT_NE(id, xml::kInvalidName) << tag;
  query::DescendantCursor cur;
  store.OpenDescendantCursor(store.Root(), query::ChildFilter::kTag, id, &cur);
  std::vector<query::NodeHandle> out;
  query::NodeHandle buf[64];
  size_t n;
  while ((n = cur.Fill(buf, 64)) > 0) out.insert(out.end(), buf, buf + n);
  return out;
}

TEST(FragmentedStoreTest, TagDescendantCursorMatchesReference) {
  auto frag = FragmentedStore::Load(TestDoc());
  ASSERT_TRUE(frag.ok());
  const std::vector<query::NodeHandle> from_frag = DrainRootTag(**frag, "item");
  EXPECT_FALSE(from_frag.empty());
  EXPECT_EQ(from_frag, DrainRootTag(Reference(), "item"));
}

TEST(FragmentedStoreTest, PathExtentMatchesSummary) {
  const DomStore& ref = Reference();
  auto frag = FragmentedStore::Load(TestDoc());
  ASSERT_TRUE(frag.ok());
  std::vector<xml::NameId> path;
  for (const char* seg : {"site", "people", "person"}) {
    path.push_back((*frag)->names().Lookup(seg));
  }
  std::vector<xml::NameId> ref_path;
  for (const char* seg : {"site", "people", "person"}) {
    ref_path.push_back(ref.names().Lookup(seg));
  }
  EXPECT_EQ((*frag)->PathExtent(path).value(),
            ref.PathExtent(ref_path).value());
}

TEST(FragmentedStoreTest, CatalogScalesWithPaths) {
  auto frag = FragmentedStore::Load(TestDoc());
  ASSERT_TRUE(frag.ok());
  EXPECT_GT((*frag)->num_paths(), 50u);
  EXPECT_EQ((*frag)->CatalogEntries(), (*frag)->num_paths());
  // Resolution inspects the whole catalog.
  EXPECT_GE((*frag)->ResolveName("person"), (*frag)->num_paths());
}

TEST(InlinedStoreTest, SlotsExist) {
  auto inlined = InlinedStore::Load(TestDoc());
  ASSERT_TRUE(inlined.ok());
  // The DTD declares many at-most-once children (person/name, item/location,
  // open_auction/initial, ...).
  EXPECT_GT((*inlined)->InlinedSlots(), 10u);
}

TEST(InlinedStoreTest, MultiOccurrenceChildrenNotInlined) {
  auto inlined = InlinedStore::Load(TestDoc());
  ASSERT_TRUE(inlined.ok());
  const xml::NameId bidder = (*inlined)->names().Lookup("bidder");
  const xml::NameId open_auction = (*inlined)->names().Lookup("open_auction");
  ASSERT_NE(open_auction, xml::kInvalidName);
  ASSERT_NE(bidder, xml::kInvalidName);
  // bidder* is repeatable, so it has no slot: the cursor walks the
  // siblings and yields every bidder, in order.
  const DomStore& ref = Reference();
  const auto* auctions = ref.NodesByTag(ref.names().Lookup("open_auction"));
  ASSERT_NE(auctions, nullptr);
  size_t several = 0;
  for (query::NodeHandle auction : *auctions) {
    std::vector<query::NodeHandle> expected;
    for (const query::NodeHandle c :
         DocumentChildren(ref.document(), auction)) {
      if (TagOf(ref, c) == "bidder") expected.push_back(c);
    }
    EXPECT_EQ(TagChildren(**inlined, auction, bidder), expected) << auction;
    if (expected.size() > 1) ++several;
  }
  EXPECT_GT(several, 0u);
}

TEST(EdgeStoreTest, TinyCatalog) {
  auto edge = EdgeStore::Load(TestDoc());
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ((*edge)->CatalogEntries(), 2u);
  EXPECT_EQ((*edge)->num_rows(), Reference().document().num_nodes());
}

TEST(EdgeStoreTest, RejectsMalformedInput) {
  EXPECT_FALSE(EdgeStore::Load("<a><b></a>").ok());
  EXPECT_FALSE(FragmentedStore::Load("<a><b></a>").ok());
  EXPECT_FALSE(InlinedStore::Load("<a><b></a>").ok());
}

}  // namespace
}  // namespace xmark::store

#include "store/dom_store.h"

#include <gtest/gtest.h>

#include <vector>

namespace xmark::store {
namespace {

constexpr std::string_view kDoc = R"(<site>
  <people>
    <person id="p0"><name>A</name></person>
    <person id="p1"><name>B</name></person>
  </people>
  <regions>
    <europe><item id="i0"><name>x</name></item></europe>
    <asia><item id="i1"><name>y</name></item>
          <item id="i2"><name>z</name></item></asia>
  </regions>
</site>)";

// XPath string-value of `n`, through the store's append-style accessor.
std::string StringValueOf(const DomStore& store, query::NodeHandle n) {
  std::string out;
  store.AppendStringValue(n, &out);
  return out;
}

std::unique_ptr<DomStore> Load(bool indexes) {
  DomStore::Options options;
  options.build_tag_index = indexes;
  options.build_id_index = indexes;
  options.build_path_summary = indexes;
  auto store = DomStore::Load(kDoc, options);
  EXPECT_TRUE(store.ok()) << store.status();
  return std::move(store).value();
}

xml::NameId Tag(const DomStore& store, std::string_view name) {
  return store.names().Lookup(name);
}

// Drains the tag-filtered descendant cursor of `base`, the scan a `//tag`
// step opens.
std::vector<query::NodeHandle> DrainTag(const DomStore& store,
                                        query::NodeHandle base,
                                        std::string_view tag) {
  query::DescendantCursor cur;
  store.OpenDescendantCursor(base, query::ChildFilter::kTag, Tag(store, tag),
                             &cur);
  std::vector<query::NodeHandle> out;
  query::NodeHandle buf[2];
  size_t n;
  while ((n = cur.Fill(buf, 2)) > 0) out.insert(out.end(), buf, buf + n);
  return out;
}

TEST(DomStoreTest, Navigation) {
  auto store = Load(true);
  const auto root = store->Root();
  EXPECT_TRUE(store->IsElement(root));
  EXPECT_EQ(store->names().Spelling(store->NameOf(root)), "site");
  const xml::Document& doc = store->document();
  const auto people = doc.first_child(static_cast<xml::NodeId>(root));
  EXPECT_EQ(store->names().Spelling(store->NameOf(people)), "people");
  const auto regions = doc.next_sibling(people);
  EXPECT_EQ(store->names().Spelling(store->NameOf(regions)), "regions");
  EXPECT_EQ(doc.next_sibling(regions), xml::kInvalidNode);
  EXPECT_EQ(store->Parent(people), root);
}

TEST(DomStoreTest, IdIndex) {
  auto store = Load(true);
  EXPECT_TRUE(store->Capabilities().id_lookup);
  const auto p1 = store->NodeById("p1");
  ASSERT_NE(p1, query::kInvalidHandle);
  EXPECT_EQ(StringValueOf(*store, p1), "B");
  EXPECT_EQ(store->NodeById("missing"), query::kInvalidHandle);
}

TEST(DomStoreTest, TagIndexDocumentOrder) {
  auto store = Load(true);
  const auto* items = store->NodesByTag(Tag(*store, "item"));
  ASSERT_NE(items, nullptr);
  ASSERT_EQ(items->size(), 3u);
  EXPECT_TRUE((*items)[0] < (*items)[1] && (*items)[1] < (*items)[2]);
}

TEST(DomStoreTest, TagDescendantCursorRespectsSubtree) {
  auto store = Load(true);
  // Items under regions/asia only.
  const xml::Document& doc = store->document();
  const auto regions = doc.next_sibling(
      doc.first_child(static_cast<xml::NodeId>(store->Root())));
  const auto europe = doc.first_child(regions);
  const auto asia = doc.next_sibling(europe);
  EXPECT_EQ(DrainTag(*store, asia, "item"),
            (std::vector<query::NodeHandle>{store->NodeById("i1"),
                                            store->NodeById("i2")}));
  EXPECT_EQ(DrainTag(*store, europe, "item"),
            std::vector<query::NodeHandle>{store->NodeById("i0")});
}

TEST(DomStoreTest, PathExtent) {
  auto store = Load(true);
  EXPECT_TRUE(store->Capabilities().path_index);
  std::vector<xml::NameId> path{Tag(*store, "site"), Tag(*store, "people"),
                                Tag(*store, "person")};
  auto extent = store->PathExtent(path);
  ASSERT_TRUE(extent.has_value());
  EXPECT_EQ(extent->size(), 2u);
  // Unknown path -> empty extent.
  std::vector<xml::NameId> bad{Tag(*store, "site"), Tag(*store, "regions"),
                               Tag(*store, "person")};
  auto none = store->PathExtent(bad);
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->empty());
}

TEST(DomStoreTest, IndexesOffDowngradeGracefully) {
  auto store = Load(false);
  EXPECT_FALSE(store->Capabilities().id_lookup);
  EXPECT_FALSE(store->Capabilities().path_index);
  EXPECT_EQ(store->NodesByTag(Tag(*store, "item")), nullptr);
  EXPECT_FALSE(
      store->PathExtent({Tag(*store, "site")}).has_value());
}

TEST(DomStoreTest, StorageAccounting) {
  auto indexed = Load(true);
  auto bare = Load(false);
  EXPECT_GT(indexed->StorageBytes(), bare->StorageBytes());
  EXPECT_GT(indexed->CatalogEntries(), 0u);
  EXPECT_GT(indexed->SummaryPaths(), 5u);
}

TEST(DomStoreTest, BeforeIsDocumentOrder) {
  // Handles are preorder ids, so `<<` compares handles.
  auto store = Load(true);
  const auto p0 = store->NodeById("p0");
  const auto i0 = store->NodeById("i0");
  ASSERT_NE(p0, query::kInvalidHandle);
  ASSERT_NE(i0, query::kInvalidHandle);
  EXPECT_LT(p0, i0);
}

TEST(DomStoreTest, Attributes) {
  auto store = Load(true);
  const auto p0 = store->NodeById("p0");
  EXPECT_EQ(store->AttributeView(p0, store->names().Lookup("id")).value(),
            "p0");
  EXPECT_FALSE(
      store->AttributeView(p0, store->names().Lookup("none")).has_value());
  std::vector<std::pair<std::string, std::string_view>> attrs;
  store->ForEachAttribute(p0, [&](xml::NameId name, std::string_view value) {
    attrs.emplace_back(store->names().Spelling(name), value);
  });
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(attrs[0].first, "id");
}

TEST(DomStoreTest, ResolveNameDefault) {
  auto store = Load(true);
  EXPECT_EQ(store->ResolveName("person"), 1u);
  EXPECT_EQ(store->ResolveName("nonexistent"), 0u);
}

}  // namespace
}  // namespace xmark::store

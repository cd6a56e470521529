// Arena-backed result construction (ConstructPlan/ConstructExec/NodeArena):
// golden Explain for the Q10 template, byte-parity of constructed results
// across all four stores, expected bytes for attribute value templates and
// atomic joins, copy_results semantics, arena lifetime (results outlive
// the evaluator), and the SortDedupNodes identity fix for mixed
// stored/constructed sequences.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gen/generator.h"
#include "query/evaluator.h"
#include "query/optimizer.h"
#include "query/parser.h"
#include "query/plan.h"
#include "query/value.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "util/logging.h"
#include "xmark/queries.h"
#include "xml/dtd.h"

namespace xmark::query {
namespace {

const std::string& TestDocument() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions options;
    options.scale = 0.002;
    return new std::string(gen::XmlGen(options).GenerateToString());
  }();
  return *kDoc;
}

const StorageAdapter* StoreByIndex(int index) {
  static const store::EdgeStore* const kEdge = [] {
    auto s = store::EdgeStore::Load(TestDocument());
    XMARK_CHECK(s.ok());
    return s->release();
  }();
  static const store::FragmentedStore* const kFragmented = [] {
    auto s = store::FragmentedStore::Load(TestDocument());
    XMARK_CHECK(s.ok());
    return s->release();
  }();
  static const store::InlinedStore* const kInlined = [] {
    auto s = store::InlinedStore::Load(TestDocument(), xml::kAuctionDtd);
    XMARK_CHECK(s.ok());
    return s->release();
  }();
  static const store::DomStore* const kDom = [] {
    store::DomStore::Options options;  // all indexes on
    auto s = store::DomStore::Load(TestDocument(), options);
    XMARK_CHECK(s.ok());
    return s->release();
  }();
  switch (index) {
    case 0:
      return kEdge;
    case 1:
      return kFragmented;
    case 2:
      return kInlined;
    default:
      return kDom;
  }
}

// ---------------------------------------------------------------------------
// Golden Explain
// ---------------------------------------------------------------------------

TEST(ConstructExplainGolden, Q10TemplatesAreRendered) {
  auto parsed = ParseQueryText(bench::GetQuery(10).text);
  ASSERT_TRUE(parsed.ok());
  QueryPlan plan;
  BuildPlan(*parsed, *StoreByIndex(3), EvaluatorOptions{},
            plan.mutable_annotations());
  const std::string text = plan.Explain(*parsed);
  // The personne shell: 15 static elements, 11 text holes, no attributes.
  EXPECT_NE(text.find("constructor <personne> template=[elements=15 "
                      "const-text=0 holes=11 const-attrs=0 dyn-attrs=0]"),
            std::string::npos)
      << text;
  // The outer categorie wrapper: one nested static <id> element, two holes
  // ({$i} inside <id> and {$p}).
  EXPECT_NE(text.find("constructor <categorie> template=[elements=2 "
                      "const-text=0 holes=2 const-attrs=0 dyn-attrs=0]"),
            std::string::npos)
      << text;
  // Nested static constructors are covered by the parent template: no
  // template annotation of their own.
  EXPECT_NE(text.find("constructor <statistiques>\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("summary: hash-join=1 band-count-join=0 "
                      "construct-template=2 joinable-nested-loop=0"),
            std::string::npos)
      << text;
}

TEST(ConstructExplainGolden, DynamicAttributesAreCounted) {
  auto parsed = ParseQueryText(bench::GetQuery(13).text);
  ASSERT_TRUE(parsed.ok());
  QueryPlan plan;
  BuildPlan(*parsed, *StoreByIndex(3), EvaluatorOptions{},
            plan.mutable_annotations());
  const std::string text = plan.Explain(*parsed);
  // Q13: <item name="{$i/name/text()}">{$i/description}</item>.
  EXPECT_NE(text.find("constructor <item> template=[elements=1 const-text=0 "
                      "holes=1 const-attrs=0 dyn-attrs=1]"),
            std::string::npos)
      << text;
}

// ---------------------------------------------------------------------------
// Byte-parity and construction semantics
// ---------------------------------------------------------------------------

// Every constructor-bearing benchmark query, including nested templates
// (Q10/Q20), dynamic attributes (Q3/Q13/Q16), ordered FLWORs (Q19) and
// UDF-driven construction (Q2/Q4).
const int kConstructorQueries[] = {2, 3, 4, 8, 10, 13, 16, 17, 19, 20};

TEST(ArenaConstructionParity, ByteIdenticalAcrossAllStores) {
  for (int q : kConstructorQueries) {
    auto parsed = ParseQueryText(bench::GetQuery(q).text);
    ASSERT_TRUE(parsed.ok()) << "Q" << q;
    std::string reference;
    for (int s = 0; s < 4; ++s) {
      const StorageAdapter* store = StoreByIndex(s);
      Evaluator evaluator(store, EvaluatorOptions{});
      auto result = evaluator.Run(*parsed);
      ASSERT_TRUE(result.ok()) << store->mapping_name() << " Q" << q << ": "
                               << result.status();
      EXPECT_GE(evaluator.stats().construct_templates_built, 1)
          << store->mapping_name() << " Q" << q;
      const std::string bytes = SerializeSequence(*result);
      if (s == 0) {
        reference = bytes;
      } else {
        EXPECT_EQ(bytes, reference)
            << store->mapping_name() << " Q" << q
            << " diverges from the edge store";
      }
    }
  }
}

TEST(ArenaConstructionParity, CopyResultsSemanticsPreserved) {
  // System G copies stored nodes into constructed trees; the copy must
  // not change a byte of the serialization.
  auto parsed = ParseQueryText(bench::GetQuery(13).text);
  ASSERT_TRUE(parsed.ok());
  EvaluatorOptions copying;
  copying.copy_results = true;
  EvaluatorOptions referencing = copying;
  referencing.copy_results = false;

  Evaluator with_copies(StoreByIndex(3), copying);
  auto a = with_copies.Run(*parsed);
  ASSERT_TRUE(a.ok());
  Evaluator with_references(StoreByIndex(3), referencing);
  auto b = with_references.Run(*parsed);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(SerializeSequence(*a), SerializeSequence(*b));
  for (const Item& item : *a) {
    ASSERT_TRUE(item.is_constructed());
    for (const Item& child : item.constructed()->children()) {
      EXPECT_FALSE(child.is_node()) << "stored node leaked past copy_results";
    }
  }
}

TEST(ArenaConstructionParity, AttributeValueTemplatesAndAtomicJoins) {
  // Multi-part attribute values and multi-item enclosed sequences exercise
  // the space-joining construction rules.
  constexpr std::string_view kPeople = R"(<site><people>
  <person id="person0"><name>Kasidit Treweek</name>
    <profile income="20186.59">
      <interest category="category0"/><interest category="category3"/>
      <business>Yes</business>
    </profile>
  </person>
  <person id="person1"><name>Mehrdad McCartney</name></person>
  <person id="person2"><name>Kawon &amp; Unni</name>
    <profile income="9876.00">
      <interest category="category2"/><business>No</business>
    </profile>
  </person>
</people></site>)";
  const std::string query = R"(
for $p in document("auction.xml")/site/people/person
return <p id="x{$p/@id}y" all="{$p/profile/interest/@category}">
         {"lit"}{$p/name/text()}{(1, 2, "three")}
       </p>
)";
  constexpr std::string_view kExpected =
      "<p id=\"xperson0y\" all=\"category0 category3\">"
      "litKasidit Treweek1 2 three</p>\n"
      "<p id=\"xperson1y\" all=\"\">litMehrdad McCartney1 2 three</p>\n"
      "<p id=\"xperson2y\" all=\"category2\">litKawon &amp; Unni1 2 three</p>";
  auto parsed = ParseQueryText(query);
  ASSERT_TRUE(parsed.ok());
  std::vector<std::unique_ptr<StorageAdapter>> stores;
  stores.push_back(std::move(store::EdgeStore::Load(kPeople)).value());
  stores.push_back(std::move(store::FragmentedStore::Load(kPeople)).value());
  stores.push_back(std::move(store::InlinedStore::Load(kPeople)).value());
  stores.push_back(std::move(
      store::DomStore::Load(kPeople, store::DomStore::Options{})).value());
  for (const auto& store : stores) {
    Evaluator evaluator(store.get(), EvaluatorOptions{});
    auto result = evaluator.Run(*parsed);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(SerializeSequence(*result), kExpected)
        << store->mapping_name();
  }
}

// ---------------------------------------------------------------------------
// Arena lifetime
// ---------------------------------------------------------------------------

TEST(ArenaLifetime, ResultsOutliveTheEvaluator) {
  auto parsed = ParseQueryText(bench::GetQuery(10).text);
  ASSERT_TRUE(parsed.ok());
  Sequence result;
  std::string while_alive;
  {
    Evaluator evaluator(StoreByIndex(3), EvaluatorOptions{});
    auto run = evaluator.Run(*parsed);
    ASSERT_TRUE(run.ok());
    ASSERT_GT(evaluator.stats().nodes_constructed, 0)
        << "arena did not engage";
    result = std::move(*run);
    while_alive = SerializeSequence(result);
    // A second run swaps in a fresh plan + arena; the first run's arena
    // must stay alive through the result's aliasing pointers.
    ASSERT_TRUE(evaluator.Run(*parsed).ok());
  }
  // Evaluator (and with it the QueryPlan) destroyed: the serialized bytes
  // must still be reachable through the aliased arena.
  EXPECT_EQ(SerializeSequence(result), while_alive);
}

TEST(ArenaLifetime, NoReferenceCycleThroughNestedInstances) {
  // Q10 nests one template's instances ({$p} personne items) inside
  // another's (categorie) children. The interior edges must be
  // non-owning: an owning arena-aliasing pointer stored inside an arena
  // node would cycle the refcount and leak the whole arena every run.
  auto parsed = ParseQueryText(bench::GetQuery(10).text);
  ASSERT_TRUE(parsed.ok());
  std::weak_ptr<NodeArena> watch;
  {
    Sequence result;
    {
      Evaluator evaluator(StoreByIndex(3), EvaluatorOptions{});
      auto run = evaluator.Run(*parsed);
      ASSERT_TRUE(run.ok());
      watch = evaluator.plan()->arena;
      ASSERT_FALSE(watch.expired());
      result = std::move(*run);
    }
    // Evaluator (and the plan's owning reference) gone; the result's
    // root items must still hold the arena...
    EXPECT_FALSE(watch.expired());
  }
  // ...and dropping the result must free it. A cycle keeps it alive.
  EXPECT_TRUE(watch.expired()) << "arena leaked through an owning "
                                  "interior reference";
}

// ---------------------------------------------------------------------------
// SortDedupNodes over mixed stored/constructed sequences
// ---------------------------------------------------------------------------

TEST(SortDedupNodesTest, MixedStoredAndConstructedSequences) {
  const StorageAdapter* store = StoreByIndex(3);
  const NodeHandle root = store->Root();
  ChildCursor children;
  store->OpenChildCursor(root, ChildFilter::kAll, xml::kInvalidName,
                         &children);
  NodeHandle child = kInvalidHandle;
  ASSERT_EQ(children.Fill(&child, 1), 1u);
  ASSERT_NE(child, kInvalidHandle);

  // Two constructed nodes; c1 is referenced twice through DIFFERENT
  // shared_ptr control blocks (arena aliasing), so dedup must key on
  // node_id, not on pointer or control-block identity.
  auto arena = std::make_shared<NodeArena>();
  ConstructedNode* n1 = arena->AllocateNode();
  ConstructedNode* n2 = arena->AllocateNode();
  ASSERT_LT(n1->node_id(), n2->node_id()) << "ids must follow creation order";
  ConstructedPtr c1a(arena, n1);
  ConstructedPtr c1b(std::shared_ptr<NodeArena>(arena), n1);  // distinct cb
  ConstructedPtr c2(arena, n2);

  Sequence seq;
  seq.push_back(Item(c2));
  seq.push_back(Item(NodeRef{store, child}));
  seq.push_back(Item(c1a));
  seq.push_back(Item(NodeRef{store, root}));
  seq.push_back(Item(c1b));                      // duplicate of c1a by id
  seq.push_back(Item(NodeRef{store, child}));    // duplicate stored node
  SortDedupNodes(&seq);

  // Stored nodes first in document order, then constructed in creation
  // order, duplicates (by identity, not control block) removed.
  ASSERT_EQ(seq.size(), 4u);
  EXPECT_TRUE(seq[0].is_node());
  EXPECT_EQ(seq[0].node().handle, root);
  EXPECT_TRUE(seq[1].is_node());
  EXPECT_EQ(seq[1].node().handle, child);
  EXPECT_TRUE(seq[2].is_constructed());
  EXPECT_EQ(seq[2].constructed()->node_id(), n1->node_id());
  EXPECT_TRUE(seq[3].is_constructed());
  EXPECT_EQ(seq[3].constructed()->node_id(), n2->node_id());
}

TEST(SortDedupNodesTest, AtomicsAreNeitherReorderedNorDeduped) {
  Sequence seq;
  seq.push_back(Item(std::string("b")));
  seq.push_back(Item(std::string("a")));
  seq.push_back(Item(std::string("a")));
  SortDedupNodes(&seq);
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0].string(), "b");
  EXPECT_EQ(seq[1].string(), "a");
  EXPECT_EQ(seq[2].string(), "a");
}

// ---------------------------------------------------------------------------
// NodeArena mechanics
// ---------------------------------------------------------------------------

TEST(NodeArenaTest, InternedTextIsStableAcrossGrowth) {
  NodeArena arena;
  const std::string_view first = arena.InternText("hello");
  std::string big(1 << 17, 'x');  // forces a dedicated oversized block
  const std::string_view huge = arena.InternText(big);
  for (int i = 0; i < 1000; ++i) {
    arena.InternText("some more text to roll the current block over");
  }
  EXPECT_EQ(first, "hello");  // earlier blocks never move
  EXPECT_EQ(huge.size(), big.size());
  EXPECT_EQ(huge, big);
  const std::string_view empty = arena.InternText("");
  EXPECT_NE(empty.data(), nullptr);
  EXPECT_TRUE(empty.empty());
}

TEST(NodeArenaTest, NodesAreDestroyedWithTheArena) {
  // Nodes own no memory, so the arena frees them without destroying them
  // one by one. What it still owns: its blocks, and the trees of other
  // arenas that its children reference. More nodes than one block holds;
  // ASan reports a leak if the arena kept any of it.
  auto other = std::make_shared<NodeArena>();
  ConstructedNode* foreign = other->AllocateNode();
  foreign->tag = other->InternText("elsewhere");
  const std::weak_ptr<NodeArena> watch = other;
  {
    NodeArena arena;
    for (int i = 0; i < 200; ++i) {
      ConstructedNode* node = arena.AllocateNode();
      node->tag = arena.InternText("tag");
      ConstructedNode* text = arena.AllocateNode();
      text->text = arena.InternText(
          "text long enough to defeat the small-string buffer");
      arena.AppendChild(node, text);
      arena.AppendChild(node, Item(ConstructedPtr(other, foreign)));
      EXPECT_EQ(node->children().size(), 2u);
    }
    EXPECT_EQ(arena.nodes_allocated(), 400);
    EXPECT_TRUE(arena.Owns(*arena.AllocateNode()));
    EXPECT_FALSE(arena.Owns(*foreign));
    other.reset();
    EXPECT_FALSE(watch.expired()) << "the children hold the other arena";
  }
  EXPECT_TRUE(watch.expired()) << "destroying the arena released it";
}

}  // namespace
}  // namespace xmark::query

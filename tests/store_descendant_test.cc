// Cross-store descendant-cursor tests: on every physical mapping, the
// DescendantCursor must produce exactly what a preorder walk over the
// store's kAll child cursor produces (unit level, every filter), and
// descendant queries (`//tag`, nested `$v//a/b`, multi-input steps through
// SortDedupNodes, predicate-carrying descendant steps) must serialize to
// the expected bytes over the hand-written document.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "query/evaluator.h"
#include "query/parser.h"
#include "query/storage.h"
#include "query/value.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "util/logging.h"

namespace xmark::query {
namespace {

// A document with repeated tags at several depths (the same tag behind
// multiple root-to-node paths, so the fragmented store's merge mode runs),
// mixed content, and attributes for predicate-carrying steps.
constexpr std::string_view kDoc = R"(<root>
  <a id="a1"><b>one</b><c><b>two</b><d><b>three</b></d></c></a>
  <a id="a2"><c><b>four</b></c>text<b>five</b></a>
  <b>top</b>
  <e><a id="a3"><b>six</b></a></e>
</root>)";

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
std::unique_ptr<StorageAdapter> MakeDomBare(std::string_view xml) {
  // No indexes: exercises the DOM store's dense preorder-scan cursor mode
  // instead of the tag-index slice.
  store::DomStore::Options options;
  options.build_tag_index = false;
  options.build_id_index = false;
  options.build_path_summary = false;
  auto s = store::DomStore::Load(xml, options);
  XMARK_CHECK(s.ok());
  return std::move(s).value();
}

struct StoreCase {
  const char* name;
  StoreFactory factory;
};

class DescendantCursorTest : public ::testing::TestWithParam<StoreCase> {
 protected:
  void SetUp() override { store_ = GetParam().factory(kDoc); }

  // The children of `n`, from the store's kAll child cursor.
  std::vector<NodeHandle> Children(NodeHandle n) {
    ChildCursor cur;
    store_->OpenChildCursor(n, ChildFilter::kAll, xml::kInvalidName, &cur);
    std::vector<NodeHandle> out;
    NodeHandle buf[3];
    size_t k;
    while ((k = cur.Fill(buf, 3)) > 0) out.insert(out.end(), buf, buf + k);
    return out;
  }

  // Reference: recursive preorder walk over the child cursor, excluding
  // the base, filtered like the cursor under test.
  void CollectDfs(NodeHandle n, ChildFilter filter, xml::NameId tag,
                  std::vector<NodeHandle>* out) {
    for (const NodeHandle c : Children(n)) {
      if (MatchesChildFilter(filter, store_->NameOf(c), tag)) {
        out->push_back(c);
      }
      if (store_->IsElement(c)) CollectDfs(c, filter, tag, out);
    }
  }

  // Drains a descendant cursor fully with a small batch to exercise
  // refills (and, in the fragmented store's merge mode, re-slicing).
  std::vector<NodeHandle> Drain(NodeHandle base, ChildFilter filter,
                                xml::NameId tag) {
    DescendantCursor cur;
    store_->OpenDescendantCursor(base, filter, tag, &cur);
    std::vector<NodeHandle> out;
    NodeHandle buf[3];
    size_t n;
    while ((n = cur.Fill(buf, 3)) > 0) out.insert(out.end(), buf, buf + n);
    return out;
  }

  std::unique_ptr<StorageAdapter> store_;
};

TEST_P(DescendantCursorTest, MatchesDfsOnEveryElementAndFilter) {
  std::vector<NodeHandle> stack{store_->Root()};
  while (!stack.empty()) {
    const NodeHandle n = stack.back();
    stack.pop_back();
    for (const NodeHandle c : Children(n)) {
      if (store_->IsElement(c)) stack.push_back(c);
    }
    for (ChildFilter filter :
         {ChildFilter::kAll, ChildFilter::kElements, ChildFilter::kText}) {
      std::vector<NodeHandle> expected;
      CollectDfs(n, filter, xml::kInvalidName, &expected);
      EXPECT_EQ(Drain(n, filter, xml::kInvalidName), expected)
          << GetParam().name << " filter " << static_cast<int>(filter);
    }
    for (const char* tag : {"a", "b", "c", "d", "e", "root"}) {
      const xml::NameId id = store_->names().Lookup(tag);
      ASSERT_NE(id, xml::kInvalidName);
      std::vector<NodeHandle> expected;
      CollectDfs(n, ChildFilter::kTag, id, &expected);
      EXPECT_EQ(Drain(n, ChildFilter::kTag, id), expected)
          << GetParam().name << " tag " << tag;
    }
  }
}

TEST_P(DescendantCursorTest, UnknownTagCursorIsEmpty) {
  // kTag with kInvalidName must not leak text nodes (whose NameOf is also
  // kInvalidName).
  EXPECT_TRUE(
      Drain(store_->Root(), ChildFilter::kTag, xml::kInvalidName).empty());
}

TEST_P(DescendantCursorTest, TextNodeBaseIsEmpty) {
  // A text node has no descendants; every interval encoding must agree.
  std::vector<NodeHandle> texts;
  CollectDfs(store_->Root(), ChildFilter::kText, xml::kInvalidName, &texts);
  ASSERT_FALSE(texts.empty());
  for (NodeHandle t : texts) {
    EXPECT_TRUE(Drain(t, ChildFilter::kAll, xml::kInvalidName).empty());
  }
}

TEST_P(DescendantCursorTest, ZeroCapFillDoesNotExhaust) {
  // Fill with cap == 0 reports nothing without losing the remaining scan
  // ("b" lives behind several paths, so this drives the fragmented store's
  // merge mode too).
  const xml::NameId b_tag = store_->names().Lookup("b");
  ASSERT_NE(b_tag, xml::kInvalidName);
  DescendantCursor cur;
  store_->OpenDescendantCursor(store_->Root(), ChildFilter::kTag, b_tag,
                               &cur);
  NodeHandle buf[4];
  EXPECT_EQ(cur.Fill(buf, 0), 0u);
  std::vector<NodeHandle> out;
  size_t n;
  while ((n = cur.Fill(buf, 4)) > 0) {
    out.insert(out.end(), buf, buf + n);
    EXPECT_EQ(cur.Fill(buf, 0), 0u);  // mid-scan zero-cap probes too
  }
  std::vector<NodeHandle> expected;
  CollectDfs(store_->Root(), ChildFilter::kTag, b_tag, &expected);
  EXPECT_EQ(out, expected) << GetParam().name;
}

TEST_P(DescendantCursorTest, BatchRefillOnWideSubtree) {
  // More matches than any Fill batch: drains correctly across refills in
  // document order.
  std::string doc = "<wide>";
  for (int i = 0; i < 100; ++i) doc += "<c><k/></c>";
  doc += "</wide>";
  auto store = GetParam().factory(doc);
  const xml::NameId k_tag = store->names().Lookup("k");
  DescendantCursor cur;
  store->OpenDescendantCursor(store->Root(), ChildFilter::kTag, k_tag, &cur);
  std::vector<NodeHandle> out;
  NodeHandle buf[64];
  size_t n;
  while ((n = cur.Fill(buf, 64)) > 0) out.insert(out.end(), buf, buf + n);
  ASSERT_EQ(out.size(), 100u);
  for (NodeHandle h : out) EXPECT_EQ(store->NameOf(h), k_tag);
  for (size_t i = 1; i < out.size(); ++i) EXPECT_LT(out[i - 1], out[i]);
}

// Query level: every store must serialize each descendant query over kDoc
// to the same expected bytes.
class DescendantQueryTest : public DescendantCursorTest {
 protected:
  void ExpectResult(std::string_view text, std::string_view expected) {
    auto parsed = ParseQueryText(text);
    ASSERT_TRUE(parsed.ok()) << text;
    Evaluator evaluator(store_.get(), EvaluatorOptions{});
    auto result = evaluator.Run(*parsed);
    ASSERT_TRUE(result.ok()) << text << ": " << result.status();
    EXPECT_EQ(SerializeSequence(*result), expected)
        << GetParam().name << " for: " << text;
  }
};

constexpr std::string_view kAllB =
    "<b>one</b>\n<b>two</b>\n<b>three</b>\n<b>four</b>\n<b>five</b>\n"
    "<b>top</b>\n<b>six</b>";

TEST_P(DescendantQueryTest, SimpleDescendant) {
  ExpectResult("/root//b", kAllB);
  ExpectResult("//b", kAllB);
  ExpectResult("//a",
               "<a id=\"a1\"><b>one</b><c><b>two</b><d><b>three</b></d></c>"
               "</a>\n"
               "<a id=\"a2\"><c><b>four</b></c>text<b>five</b></a>\n"
               "<a id=\"a3\"><b>six</b></a>");
}

TEST_P(DescendantQueryTest, NestedVariableRootedDescendant) {
  ExpectResult("for $v in /root/a return $v//b",
               "<b>one</b>\n<b>two</b>\n<b>three</b>\n<b>four</b>\n"
               "<b>five</b>");
  ExpectResult("for $v in /root return $v//c/b",
               "<b>two</b>\n<b>four</b>");
  ExpectResult("for $v in /root/a/c return $v//b",
               "<b>two</b>\n<b>three</b>\n<b>four</b>");
}

TEST_P(DescendantQueryTest, MultiInputExercisesSortDedup) {
  // `//a//b`: the second step sees several input nodes whose subtrees
  // produce overlapping-order outputs, forcing SortDedupNodes.
  ExpectResult("//a//b",
               "<b>one</b>\n<b>two</b>\n<b>three</b>\n<b>four</b>\n"
               "<b>five</b>\n<b>six</b>");
  ExpectResult("//c//b", "<b>two</b>\n<b>three</b>\n<b>four</b>");
}

TEST_P(DescendantQueryTest, PredicateCarryingDescendantStep) {
  ExpectResult("//a[@id = \"a2\"]",
               "<a id=\"a2\"><c><b>four</b></c>text<b>five</b></a>");
  ExpectResult("//a[c/b]//b",
               "<b>one</b>\n<b>two</b>\n<b>three</b>\n<b>four</b>\n"
               "<b>five</b>");
  ExpectResult("count(//b[. = \"four\"])", "1");
}

TEST_P(DescendantQueryTest, TextAndWildcardDescendants) {
  ExpectResult("count(//a/text())", "1");
  ExpectResult("for $v in /root/a return count($v//text())", "3 3");
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, DescendantCursorTest,
    ::testing::Values(StoreCase{"edge", &MakeEdge},
                      StoreCase{"fragmented", &MakeFragmented},
                      StoreCase{"inlined", &MakeInlined},
                      StoreCase{"dom", &MakeDom},
                      StoreCase{"dom_bare", &MakeDomBare}),
    [](const ::testing::TestParamInfo<StoreCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    AllStores, DescendantQueryTest,
    ::testing::Values(StoreCase{"edge", &MakeEdge},
                      StoreCase{"fragmented", &MakeFragmented},
                      StoreCase{"inlined", &MakeInlined},
                      StoreCase{"dom", &MakeDom},
                      StoreCase{"dom_bare", &MakeDomBare}),
    [](const ::testing::TestParamInfo<StoreCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace xmark::query

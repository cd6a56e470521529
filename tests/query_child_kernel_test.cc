// Differential test of the child-path kernel and the stores' cursors
// beyond Q1-Q20: child-chain, constructor, descendant-step and fused
// FLWOR shapes run on systems A-E (kernel and fusion on, four mappings)
// must serialize to System F's bytes (generic operators), or fail with
// System F's exact Status; id() must answer the same on all seven
// systems. Two fixed-seed sf-0.01 documents: one as generated, and one with
// `&`, `<`, `>` and `"` injected into text and attribute values (a
// generated document contains no `&` at all), so values with escapable
// characters flow through kernel comparisons, holes and attribute value
// templates.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "gen/generator.h"
#include "query/value.h"
#include "util/logging.h"
#include "xmark/engine.h"

namespace xmark::bench {
namespace {

const std::string& GeneratedDocument() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions options;
    options.scale = 0.01;
    return new std::string(gen::XmlGen(options).GenerateToString());
  }();
  return *kDoc;
}

void ReplaceAll(std::string* s, std::string_view from, std::string_view to) {
  for (size_t pos = s->find(from); pos != std::string::npos;
       pos = s->find(from, pos + to.size())) {
    s->replace(pos, from.size(), to);
  }
}

// The generated document with escapable characters injected: into every
// person id and every reference to one (consistently, so the joins still
// match), into names and locations, and into running text.
const std::string& InjectedDocument() {
  static const std::string* const kDoc = [] {
    auto* doc = new std::string(GeneratedDocument());
    ReplaceAll(doc, "\"person", "\"pe&amp;r&lt;s&gt;o&quot;n");
    ReplaceAll(doc, "<name>", "<name>&amp;&lt;");
    ReplaceAll(doc, "United States", "United &amp; &lt;States&gt; &quot;");
    ReplaceAll(doc, " the ", " the &amp; &lt;b&gt; &quot;q&quot; ");
    XMARK_CHECK(doc->find("&amp;") != std::string::npos);
    return doc;
  }();
  return *kDoc;
}

constexpr SystemId kKernelSystems[] = {SystemId::kA, SystemId::kB,
                                       SystemId::kC, SystemId::kD,
                                       SystemId::kE};

Engine* LoadedEngine(SystemId id, bool injected) {
  static std::map<std::pair<SystemId, bool>, std::unique_ptr<Engine>>* const
      kEngines =
          new std::map<std::pair<SystemId, bool>, std::unique_ptr<Engine>>();
  auto it = kEngines->find({id, injected});
  if (it == kEngines->end()) {
    auto engine = Engine::Create(id);
    const Status st = engine->LoadDocument(
        Engine::kDefaultDocumentId,
        injected ? InjectedDocument() : GeneratedDocument());
    XMARK_CHECK(st.ok());
    it = kEngines->emplace(std::make_pair(id, injected), std::move(engine))
             .first;
  }
  return it->second.get();
}

// Serialized result, or the Status spelled out (code and message).
std::string Outcome(SystemId id, bool injected, std::string_view query) {
  auto result = LoadedEngine(id, injected)->Run(query);
  if (!result.ok()) return "status: " + result.status().ToString();
  return query::SerializeSequence(*result);
}

#define PEOPLE "document(\"auction.xml\")/site/people/person"
#define OPEN "document(\"auction.xml\")/site/open_auctions/open_auction"
#define CLOSED "document(\"auction.xml\")/site/closed_auctions/closed_auction"

struct Case {
  const char* name;
  const char* query;
};

const Case kCases[] = {
    // Terminals: nodes, text(), @attr.
    {"node_terminal", "for $p in " PEOPLE " return $p/profile"},
    {"text_terminal", "for $p in " PEOPLE " return $p/name/text()"},
    {"attr_terminal",
     "for $p in " PEOPLE " return $p/profile/interest/@category"},
    // Multi-node let bindings as start items.
    {"multi_node_let",
     "let $b := " OPEN "/bidder return $b/increase/text()"},
    {"multi_node_let_attr",
     "let $i := " PEOPLE "/profile return <c n=\"{count($i/interest)}\">"
     "{$i/interest/@category}</c>"},
    // Atomic and constructed start items.
    {"atomic_starts",
     "let $x := (1, \"two\", " PEOPLE "[1]) return $x/name/text()"},
    {"atomic_for", "for $x in (\"a\", 2) return <r>{$x/name}{empty($x/name)}"
                   "{$x/name = \"a\"}</r>"},
    {"constructed_nav", "let $c := <a><name>x</name></a> return $c/name"},
    {"constructed_attr", "let $c := <a id=\"1\"/> return $c/@id"},
    {"constructed_absent_tag",
     "let $c := <a><b>x</b></a> return $c/nosuchtag"},
    {"constructed_compare", "let $c := <a/> return $c/name = \"x\""},
    {"constructed_empty", "let $c := <a/> return empty($c/name)"},
    {"constructed_arith", "let $c := <a/> return 5 * $c/name"},
    {"mixed_starts",
     "for $x in (" PEOPLE "[1], <a/>) return $x/name/text()"},
    // Tags the document lacks.
    {"absent_tags",
     "for $p in " PEOPLE " return <x>{$p/nosuchtag/text()}"
     "{empty($p/profile/nosuchtag)}{$p/nosuchtag = \"a\"}"
     "{exists($p/nosuchtag/@id)}{count($p/@nosuchattr)}"
     "{exists($p/profile/@income)}{$p/@nosuchattr = \"\"}</x>"},
    // Comparisons against literals, both operand orders.
    {"literal_compare",
     "for $p in " PEOPLE " where $p/profile/income > 50000 "
     "return $p/name/text()"},
    {"literal_compare_swapped",
     "for $p in " PEOPLE " where 50000 <= $p/profile/income and "
     "\"person10\" != $p/@id return $p/@id"},
    {"literal_compare_text",
     "for $i in " CLOSED " where $i/price/text() >= 40 and 100 > $i/price "
     "return $i/price/text()"},
    {"literal_compare_injected",
     "for $p in " PEOPLE " where $p/address/country/text() = "
     "'United & <States> \"' or \"United States\" = $p/address/country "
     "return $p/address/city/text()"},
    // Comparisons against sequences and across chains.
    {"sequence_compare",
     "for $p in " PEOPLE " where $p/profile/interest/@category = "
     "(\"category1\", \"category2\", \"category3\") return $p/@id"},
    {"chain_join",
     "for $t in " CLOSED "[position() <= 30], $p in " PEOPLE " "
     "where $t/buyer/@person = $p/@id "
     "return <s b=\"{$p/name/text()}\">{$t/price/text()}</s>"},
    {"boolean_compare",
     "for $p in " PEOPLE "[position() <= 5] return <b>{$p/name = true()}"
     "{$p/@id = false()}{true() != $p/homepage}"
     "{$p/profile/interest = true()}{false() = $p/watches/watch}</b>"},
    // empty, exists, not(empty(...)).
    {"empty_exists",
     "for $p in " PEOPLE " return <e>{empty($p/homepage)}"
     "{exists($p/profile/education/text())}"
     "{not(empty($p/watches/watch/@open_auction))}</e>"},
    // and/or step predicates.
    {"and_or_predicates",
     "count(" PEOPLE "/profile[income >= 30000 and income < 100000 or "
     "@income > 90000 or education = \"College\"])"},
    {"attr_predicates",
     "for $b in " OPEN " return $b/bidder/personref[@person = \"person2\" "
     "or @person = 'pe&r<s>o\"n2' or \"person3\" < @person or "
     "'pe&r<s>o\"n3' < @person]"},
    {"descendant_predicates",
     "document(\"auction.xml\")/site/regions//item[(location = "
     "\"United States\" or location = 'United & <States> \"') and "
     "quantity > 1]/name/text()"},
    {"atomic_candidates",
     "count((1, \"two\")[people/person/@id = \"person0\"])"},
    {"constructed_candidates",
     "count((<a/>, 3)[people/person/@id = \"person0\"])"},
    {"mixed_predicates",
     "for $p in " PEOPLE "[profile/income > 20000][2] return $p/@id"},
    // Arithmetic operands.
    {"arithmetic",
     "for $i in " OPEN " return <a>{$i/initial/text() * 2}"
     "{$i/reserve - $i/initial}{100 div $i/current}{$i/nosuchtag + 1}</a>"},
    {"arithmetic_non_numeric",
     "for $p in " PEOPLE "[position() <= 3] return $p/name/text() * 2"},
    // Holes, attribute value templates, order keys.
    {"holes_and_avts",
     "for $p in " PEOPLE " return <p n=\"{$p/name/text()} ({$p/@id}) "
     "{$p/address/city}\">{$p/profile/interest/@category}"
     "{$p/emailaddress/text()}</p>"},
    {"order_key",
     "for $i in document(\"auction.xml\")/site/regions//item "
     "order by $i/location/text() descending, $i/name "
     "return <i l=\"{$i/location}\">{$i/name/text()}</i>"},
    // A prolog function shadows the builtin under its unprefixed name too,
    // so these FLWORs and predicates keep the generic path.
    {"udf_shadows_contains",
     "declare function local:contains($a, $b) { $b = \"a\" }; "
     "for $i in document(\"auction.xml\")/site//item "
     "where contains($i/name, \"a\") return $i/@id"},
    {"udf_shadows_starts_with",
     "declare function starts-with($a, $b) { empty($a) }; "
     "count(" PEOPLE "[starts-with(homepage, \"h\")])"},
    {"udf_shadows_count",
     "declare function local:count($x) { 7 }; "
     "for $b in document(\"auction.xml\")/site/regions "
     "return count($b//item)"},
};

class ChildKernelDifferential : public ::testing::TestWithParam<bool> {};

TEST_P(ChildKernelDifferential, SameOutcomeAsSystemF) {
  const bool injected = GetParam();
  for (const Case& c : kCases) {
    const std::string reference = Outcome(SystemId::kF, injected, c.query);
    for (SystemId id : kKernelSystems) {
      EXPECT_EQ(Outcome(id, injected, c.query), reference)
          << "system " << SystemLabel(id) << " case " << c.name
          << (injected ? " (injected document)" : "");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Documents, ChildKernelDifferential,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Injected" : "Generated";
                         });

// Constructor shapes over the same documents: templates shaped like Q10,
// Q13 and Q19, attribute value templates over the injected ids and names,
// stored subtrees with attributes inside holes, nested constructors,
// adjacent atomics and empty elements. They reach the serializer's escape
// branches for element text, attribute values and copied stored nodes.
const Case kConstructorCases[] = {
    {"q10_shape",
     "for $i in distinct-values(" PEOPLE "/profile/interest/@category) "
     "let $p := for $t in " PEOPLE " "
     "where $t/profile/interest/@category = $i "
     "return <personne id=\"{$t/@id}\"><statistiques>"
     "<sexe>{$t/profile/gender/text()}</sexe>"
     "<age>{$t/profile/age/text()}</age>"
     "<revenu>{$t/profile/income/text()}</revenu></statistiques>"
     "<coordonnees><nom>{$t/name/text()}</nom>"
     "<pays>{$t/address/country/text()}</pays>"
     "<reseau><courrier>{$t/emailaddress/text()}</courrier></reseau>"
     "</coordonnees></personne> "
     "return <categorie><id>{$i}</id>{$p}</categorie>"},
    {"q13_shape",
     "for $i in document(\"auction.xml\")/site/regions/europe/item "
     "return <item name=\"{$i/name/text()}\" at=\"{$i/location}\">"
     "{$i/description}</item>"},
    {"q19_shape",
     "for $b in document(\"auction.xml\")/site/regions//item "
     "let $k := $b/name/text() order by zero-or-one($b/location) "
     "return <item name=\"{$k}\">{$b/location/text()}</item>"},
    {"avt_ids_and_names",
     "for $p in " PEOPLE " return <p id=\"{$p/@id}\" "
     "n=\"{$p/name/text()}\" both=\"[{$p/@id}] {$p/name} & <x>\" "
     "c=\"const & <\'>\" e=\"\"/>"},
    {"stored_subtrees_with_attributes",
     "for $p in " PEOPLE "[position() <= 40] "
     "return <w>{$p}{$p/profile}{$p/watches}</w>"},
    {"stored_bidders_in_holes",
     "for $b in " OPEN " return <bids n=\"{count($b/bidder)}\">"
     "{$b/bidder}{$b/seller}</bids>"},
    {"nested_constructors",
     "for $p in " PEOPLE " return <a><b><c x=\"{$p/@id}\">"
     "{$p/name/text()}</c></b><d/>{<e f=\"{$p/address/city}\">"
     "{$p/address/country/text()}</e>}</a>"},
    {"constructor_inside_avt",
     "for $p in " PEOPLE "[position() <= 30] return <a n=\"{$p/name/text()}"
     "|{<b c=\"{$p/@id}\">{$p/@id}</b>}|{count(<d e=\"{$p/name}\"/>)}\"/>"},
    {"adjacent_atomics",
     "for $p in " PEOPLE " return <a>{$p/@id, $p/name/text(), 1, "
     "\"x & y < z\", true(), count($p/watches/watch)}"
     "{\"lone\"}{$p/address/city/text()}{2.5, \"\"}</a>"},
    {"empty_elements",
     "for $p in " PEOPLE "[position() <= 25] return <a>{$p/nosuchtag}<b/>"
     "<c></c>{()}<d k=\"\">{$p/homepage/nosuchtag}</d></a>"},
    {"mixed_text_and_nodes",
     "for $i in " CLOSED "[position() <= 30] return <t>price {$i/price} "
     "& {$i/annotation/description} </t>"},
    {"stored_results", PEOPLE "[position() <= 10]"},
};

// A-E must match System F's bytes; G, which copies every stored node into
// its result arena (copy_results) over a store it reloads per query, must
// match them too.
TEST_P(ChildKernelDifferential, ConstructorsMatchSystemF) {
  const bool injected = GetParam();
  for (const Case& c : kConstructorCases) {
    const std::string reference = Outcome(SystemId::kF, injected, c.query);
    EXPECT_EQ(reference.rfind("status: ", 0), std::string::npos)
        << c.name << ": " << reference;
    for (SystemId id : kKernelSystems) {
      EXPECT_EQ(Outcome(id, injected, c.query), reference)
          << "system " << SystemLabel(id) << " case " << c.name
          << (injected ? " (injected document)" : "");
    }
    EXPECT_EQ(Outcome(SystemId::kG, injected, c.query), reference)
        << "system G case " << c.name
        << (injected ? " (injected document)" : "");
  }
}

// Descendant steps over the store's descendant cursor: Q6's fused
// count($b//tag), Q7's three generic counts, absent tags, nested `//`,
// `//text()` and `//*`. Each mapping answers from its own layout (A, C and
// the untagged DOM scans from a dense tag column, B from path-table
// slices, D from its tag index), so A-E must match System F's bytes.
const Case kDescendantCases[] = {
    {"q6_shape",
     "for $b in document(\"auction.xml\")/site/regions "
     "return count($b//item)"},
    {"q6_per_region",
     "for $b in document(\"auction.xml\")/site/regions/europe "
     "return count($b//item)"},
    {"q7_shape",
     "for $p in document(\"auction.xml\")/site return count($p//description) "
     "+ count($p//mail) + count($p//email)"},
    {"q7_counts_apart",
     "for $p in document(\"auction.xml\")/site return <c>"
     "{count($p//description)}|{count($p//mail)}|{count($p//email)}</c>"},
    {"absent_tag",
     "for $b in document(\"auction.xml\")/site/regions "
     "return <n>{count($b//nosuchtag)}{count(document(\"auction.xml\")"
     "/site//nosuchtag)}</n>"},
    {"nested_descendants",
     "count(document(\"auction.xml\")/site//open_auction//increase)"},
    {"nested_descendants_per_binding",
     "for $c in " CLOSED " return count($c//keyword)"},
    {"descendant_text",
     "for $p in " PEOPLE "[position() <= 20] return count($p//text())"},
    {"descendant_text_values",
     "document(\"auction.xml\")/site/regions/africa//text()"},
    {"descendant_wildcard",
     "count(document(\"auction.xml\")/site/regions//*)"},
    {"descendant_scan_emit",
     "for $i in document(\"auction.xml\")/site//item return $i/name/text()"},
};

TEST_P(ChildKernelDifferential, DescendantCountsMatchSystemF) {
  const bool injected = GetParam();
  for (const Case& c : kDescendantCases) {
    const std::string reference = Outcome(SystemId::kF, injected, c.query);
    EXPECT_EQ(reference.rfind("status: ", 0), std::string::npos)
        << c.name << ": " << reference;
    for (SystemId id : kKernelSystems) {
      EXPECT_EQ(Outcome(id, injected, c.query), reference)
          << "system " << SystemLabel(id) << " case " << c.name
          << (injected ? " (injected document)" : "");
    }
  }
}

// Fused FLWORs: one `for` over a rooted path, an optional where answered
// natively per binding, and a $v, child-chain or count($v//tag) return.
// Each case must fuse on A-E (CasesReachTheirShapes checks D) and match
// System F's nested loop byte for byte: the ID-probed and the scanned
// Q1 domain (C has no ID index), numeric and string compares over
// injected non-numeric values, and/or wheres, contains/starts-with over
// every chain terminal, domains the path evaluator answers with a
// descendant first step or a positional predicate, and absent tags.
const Case kFusedCases[] = {
    {"q1_shape",
     "for $b in " PEOPLE "[@id = \"person0\"] return $b/name/text()"},
    {"q1_injected_id",
     "for $b in " PEOPLE "[@id = 'pe&r<s>o\"n1'] return $b/name/text()"},
    {"q5_shape",
     "count(for $i in " CLOSED " where $i/price/text() >= 40 "
     "return $i/price)"},
    {"numeric_over_non_numeric",
     "for $p in " PEOPLE " where $p/@id > 5 or $p/name < 1 "
     "return $p/name/text()"},
    {"string_compare",
     "for $p in " PEOPLE " where $p/name/text() < \"B\" return $p/@id"},
    {"and_or_where",
     "for $p in " PEOPLE " where $p/profile/income > 50000 and "
     "$p/address/country = \"United States\" or $p/@id = \"person3\" "
     "return $p/name/text()"},
    {"contains_element",
     "for $i in document(\"auction.xml\")/site//item "
     "where contains($i/description, \"gold\") return $i/name/text()"},
    {"starts_with_text",
     "for $p in " PEOPLE " where starts-with($p/name/text(), \"&<J\") or "
     "fn:starts-with($p/name/text(), \"J\") return $p/@id"},
    {"contains_attribute",
     "for $p in " PEOPLE " where fn:contains($p/@id, \"n1\") "
     "return $p/name/text()"},
    {"contains_reads_first_hit",
     "for $p in " PEOPLE " where contains($p/profile/interest/@category, "
     "\"y1\") return $p/@id"},
    {"empty_needle",
     "for $p in " PEOPLE " where contains($p/homepage/text(), \"\") "
     "return $p/@id"},
    {"chain_selects_nothing",
     "for $p in " PEOPLE " where starts-with($p/watches/watch/@open_auction, "
     "\"\") and contains($p/homepage/text(), \"http\") return $p/@id"},
    {"descendant_first_step",
     "for $i in document(\"auction.xml\")//item "
     "where $i/quantity > 1 return $i/@id"},
    {"positional_domain",
     "for $p in " PEOPLE "[position() <= 20] return $p/name/text()"},
    {"absent_domain_tag",
     "for $x in document(\"auction.xml\")/site/nosuchtag/person "
     "return $x/name/text()"},
    {"absent_where_tag",
     "for $p in " PEOPLE " where $p/nosuchtag = \"x\" or "
     "contains($p/profile/nosuchtag, \"\") return $p/@id"},
    {"absent_count_tag",
     "for $b in document(\"auction.xml\")/site/regions/* "
     "return count($b//nosuchtag)"},
    {"attribute_tail",
     "for $b in " OPEN "/bidder return $b/personref/@person"},
    {"var_emit",
     "for $p in " PEOPLE "[position() <= 5] "
     "where $p/profile/@income > 10000 return $p"},
};

TEST_P(ChildKernelDifferential, FusedFlworsMatchSystemF) {
  const bool injected = GetParam();
  for (const Case& c : kFusedCases) {
    const std::string reference = Outcome(SystemId::kF, injected, c.query);
    for (SystemId id : kKernelSystems) {
      EXPECT_EQ(Outcome(id, injected, c.query), reference)
          << "system " << SystemLabel(id) << " case " << c.name
          << (injected ? " (injected document)" : "");
    }
  }
}

// id() answers the same with and without an ID index: A-E probe theirs,
// F and G scan the document's elements in order.
TEST_P(ChildKernelDifferential, IdFunctionSameOnEverySystem) {
  const bool injected = GetParam();
  const char* const queries[] = {
      "id(\"person0\")/name/text()",
      "count(id((\"person0\", \"item1\", \"nope\")))",
      "id((\"item1\", \"person0\", \"item1\"))/@id",
  };
  for (const char* q : queries) {
    const std::string reference = Outcome(SystemId::kF, injected, q);
    EXPECT_EQ(reference.rfind("status: ", 0), std::string::npos)
        << q << ": " << reference;
    for (SystemId id : kAllSystems) {
      EXPECT_EQ(Outcome(id, injected, q), reference)
          << "system " << SystemLabel(id) << " query " << q
          << (injected ? " (injected document)" : "");
    }
  }
  if (!injected) {
    EXPECT_EQ(Outcome(SystemId::kF, false, queries[0]), "James Davis");
    EXPECT_EQ(Outcome(SystemId::kF, false, queries[1]), "2");
  }
}

// Attribute steps, pinned by literal bytes on all seven systems over a
// small document in which an attribute (`site`) shares the root element's
// tag name: rooted, descendant and absent attributes, the kernel's @name
// terminal and predicate, and an attribute value template over @id. Plans
// resolve attribute names to ids, and `/@site` must still not select the
// root element.
TEST(AttributeSteps, LiteralBytesOnEverySystem) {
  constexpr std::string_view kDoc =
      "<site id=\"s0\"><people>"
      "<person id=\"p&amp;0\" site=\"home\"><name>Ann</name></person>"
      "<person id=\"p1\"><name>Bob</name></person>"
      "</people></site>";
#define ATTR_PEOPLE "doc(\"auction.xml\")/site/people/person"
  const std::pair<const char*, const char*> cases[] = {
      {"doc(\"auction.xml\")/@site", ""},
      {"doc(\"auction.xml\")/site/@id", "s0"},
      {"doc(\"auction.xml\")//person/@site", "home"},
      {"for $p in " ATTR_PEOPLE " return $p/@nosuch", ""},
      {"for $p in " ATTR_PEOPLE " return $p/@site", "home"},
      {"for $p in " ATTR_PEOPLE " return <r id=\"{$p/@id}\"/>",
       "<r id=\"p&amp;0\"/>\n<r id=\"p1\"/>"},
      {ATTR_PEOPLE "[@site = \"home\"]/name/text()", "Ann"},
  };
#undef ATTR_PEOPLE
  for (SystemId id : kAllSystems) {
    auto engine = Engine::Create(id);
    ASSERT_TRUE(engine->LoadDocument(Engine::kDefaultDocumentId, kDoc).ok());
    for (const auto& [query, bytes] : cases) {
      auto result = engine->Run(query);
      ASSERT_TRUE(result.ok()) << query << ": " << result.status();
      EXPECT_EQ(query::SerializeSequence(*result), bytes)
          << "system " << SystemLabel(id) << " query " << query;
    }
  }
}

// XPath's answers for `//*`, `//node()` and `//@x`, rooted and below a
// bound node, literal on A-G: under `//` the root element matches `*` and
// `node()`, `//@x` is descendant-or-self::node()/@x, and a rooted first
// attribute step selects nothing (the document node has no attributes).
TEST(DescendantSteps, XPathResultsOnEverySystem) {
  constexpr std::string_view kDoc =
      "<site id=\"s0\"><people><person id=\"p0\" site=\"home\">"
      "<name>a</name></person><person id=\"p1\"><name>b</name></person>"
      "</people></site>";
  const std::pair<const char*, const char*> cases[] = {
      {"count(doc(\"auction.xml\")//*)", "6"},
      {"count(doc(\"auction.xml\")//node())", "8"},
      {"count(doc(\"auction.xml\")//@id)", "3"},
      {"doc(\"auction.xml\")//@id", "s0 p0 p1"},
      {"doc(\"auction.xml\")/@id", ""},
      {"doc(\"auction.xml\")//@site", "home"},
      {"doc(\"auction.xml\")/site/people//@id", "p0 p1"},
      {"for $p in doc(\"auction.xml\")/site/people return $p//@id",
       "p0 p1"},
      // The self half of descendant-or-self: each person's own id.
      {"for $p in doc(\"auction.xml\")/site/people/person return $p//@id",
       "p0 p1"},
  };
  for (SystemId id : kAllSystems) {
    auto engine = Engine::Create(id);
    ASSERT_TRUE(engine->LoadDocument(Engine::kDefaultDocumentId, kDoc).ok());
    for (const auto& [query, bytes] : cases) {
      auto result = engine->Run(query);
      ASSERT_TRUE(result.ok()) << query << ": " << result.status();
      EXPECT_EQ(query::SerializeSequence(*result), bytes)
          << "system " << SystemLabel(id) << " query " << query;
    }
  }
}

// The cases reach what they are meant to reach: the kernel is engaged on
// A-E, the injected document carries escapable characters into results,
// and the constructed-node cases keep the generic navigation error.
TEST(ChildKernelDifferential, CasesReachTheirShapes) {
  Engine* d = LoadedEngine(SystemId::kD, /*injected=*/true);
  auto plan = d->Explain(kCases[1].query);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_NE(plan->find("child-kernels=1"), std::string::npos) << *plan;

  const std::string names = Outcome(SystemId::kD, true, kCases[1].query);
  EXPECT_NE(names.find("&amp;&lt;"), std::string::npos);
  const std::string hits =
      Outcome(SystemId::kD, true, "count(" PEOPLE "/address"
                                  "[country = 'United & <States> \"'])");
  EXPECT_NE(hits, "0");

  // Every fused case fuses, and a shadowed builtin never does.
  for (const Case& c : kFusedCases) {
    auto fused = d->Explain(c.query);
    ASSERT_TRUE(fused.ok()) << c.name << ": " << fused.status();
    EXPECT_NE(fused->find(" pipeline 0 fused=[scan"), std::string::npos)
        << c.name << "\n" << *fused;
  }
  for (const Case& c : kCases) {
    if (std::string_view(c.name).rfind("udf_shadows_", 0) != 0) continue;
    auto shadowed = d->Explain(c.query);
    ASSERT_TRUE(shadowed.ok()) << c.name << ": " << shadowed.status();
    EXPECT_NE(shadowed->find("compiled-pipeline=0"), std::string::npos)
        << c.name << "\n" << *shadowed;
    EXPECT_EQ(shadowed->find("native-predicate"), std::string::npos)
        << c.name << "\n" << *shadowed;
  }

  auto constructed = d->Run("let $c := <a><name>x</name></a> return $c/name");
  ASSERT_FALSE(constructed.ok());
  EXPECT_EQ(constructed.status().code(), StatusCode::kUnimplemented);

  // Every system shares the serializer, so the escapes are pinned by
  // value: stored and copied attributes, attribute value templates,
  // constant attributes and element text.
  auto outcome_of = [](SystemId id, std::string_view name) {
    for (const Case& c : kConstructorCases) {
      if (c.name == name) return Outcome(id, /*injected=*/true, c.query);
    }
    return std::string("no case ") + std::string(name);
  };
  for (SystemId id : {SystemId::kD, SystemId::kG}) {
    const std::string stored = outcome_of(id, "stored_results");
    EXPECT_EQ(stored.rfind("<person id=\"pe&amp;r&lt;s&gt;o&quot;n0\">"
                           "<name>&amp;&lt;James Davis</name>",
                           0),
              0u)
        << stored.substr(0, 200);
    const std::string avts = outcome_of(id, "avt_ids_and_names");
    EXPECT_NE(avts.find("both=\"[pe&amp;r&lt;s&gt;o&quot;n0] &amp;&lt;James "
                        "Davis &amp; &lt;x&gt;\" c=\"const &amp; &lt;'&gt;\""),
              std::string::npos)
        << avts.substr(0, 200);
    // A constructor inside an attribute value builds its own attribute
    // while the outer value is half built.
    const std::string nested = outcome_of(id, "constructor_inside_avt");
    EXPECT_EQ(nested.rfind("<a n=\"&amp;&lt;James Davis|pe&amp;r&lt;s&gt;"
                           "o&quot;n0|1\"/>\n",
                           0),
              0u)
        << nested.substr(0, 200);
  }
}

}  // namespace
}  // namespace xmark::bench

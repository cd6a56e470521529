// Differential test of the child-path kernel beyond Q1-Q20: child-chain
// shapes run on systems A-E (kernel on, four mappings) must serialize to
// System F's bytes (generic operators), or fail with System F's exact
// Status. Two fixed-seed sf-0.01 documents: one as generated, and one with
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

  auto constructed = d->Run("let $c := <a><name>x</name></a> return $c/name");
  ASSERT_FALSE(constructed.ok());
  EXPECT_EQ(constructed.status().code(), StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace xmark::bench

#include "query/evaluator.h"

#include <gtest/gtest.h>

#include "query/parser.h"
#include "store/dom_store.h"

namespace xmark::query {
namespace {

constexpr std::string_view kDoc = R"(<site>
  <people>
    <person id="person0"><name>Alice</name><age>30</age>
      <profile><income>50000.00</income></profile></person>
    <person id="person1"><name>Bob</name><age>25</age></person>
    <person id="person2"><name>Cara</name><age>41</age>
      <homepage>http://c</homepage></person>
  </people>
  <items>
    <item id="item0"><price>10.50</price><tag>gold ring</tag></item>
    <item id="item1"><price>99.00</price><tag>silver spoon</tag></item>
    <item id="item2"><price>7.25</price><tag>pure gold coin</tag></item>
  </items>
  <sales>
    <sale buyer="person0" item="item1"/>
    <sale buyer="person2" item="item0"/>
    <sale buyer="person0" item="item2"/>
  </sales>
</site>)";

class EvalTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    store::DomStore::Options options;
    auto loaded = store::DomStore::Load(kDoc, options);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    store_ = loaded->release();
    // The same document without the id, tag and path structures.
    store::DomStore::Options bare;
    bare.build_tag_index = false;
    bare.build_id_index = false;
    bare.build_path_summary = false;
    auto bare_loaded = store::DomStore::Load(kDoc, bare);
    ASSERT_TRUE(bare_loaded.ok()) << bare_loaded.status();
    bare_ = bare_loaded->release();
  }

  // Evaluates and serializes; items joined by '|'.
  static std::string Eval(std::string_view text,
                          const EvaluatorOptions& options = {},
                          const StorageAdapter* store = store_) {
    auto parsed = ParseQueryText(text);
    if (!parsed.ok()) return "PARSE:" + parsed.status().ToString();
    Evaluator evaluator(store, options);
    auto result = evaluator.Run(*parsed);
    if (!result.ok()) return "EVAL:" + result.status().ToString();
    std::string out;
    for (size_t i = 0; i < result->size(); ++i) {
      if (i > 0) out += "|";
      out += SerializeItem((*result)[i]);
    }
    return out;
  }

  static store::DomStore* store_;
  static store::DomStore* bare_;
};

store::DomStore* EvalTest::store_ = nullptr;
store::DomStore* EvalTest::bare_ = nullptr;

TEST_F(EvalTest, AbsolutePaths) {
  EXPECT_EQ(Eval("/site/people/person/name/text()"), "Alice|Bob|Cara");
  EXPECT_EQ(Eval("/site/people/person/@id"), "person0|person1|person2");
}

TEST_F(EvalTest, RootOnlyAndWildcard) {
  EXPECT_EQ(Eval("count(/site/*)"), "3");
  EXPECT_EQ(Eval("count(/site/people/*)"), "3");
}

TEST_F(EvalTest, DescendantAxis) {
  EXPECT_EQ(Eval("count(//person)"), "3");
  EXPECT_EQ(Eval("count(/site//price)"), "3");
  EXPECT_EQ(Eval("count(//nonexistent)"), "0");
}

TEST_F(EvalTest, PositionalPredicates) {
  EXPECT_EQ(Eval("/site/people/person[1]/name/text()"), "Alice");
  EXPECT_EQ(Eval("/site/people/person[3]/name/text()"), "Cara");
  EXPECT_EQ(Eval("/site/people/person[last()]/name/text()"), "Cara");
  EXPECT_EQ(Eval("/site/people/person[4]/name/text()"), "");
}

TEST_F(EvalTest, BooleanPredicates) {
  EXPECT_EQ(Eval("/site/people/person[age > 28]/name/text()"),
            "Alice|Cara");
  EXPECT_EQ(Eval("/site/people/person[homepage]/name/text()"), "Cara");
}

TEST_F(EvalTest, IdPredicateWithAndWithoutIndex) {
  for (const char* q :
       {"/site/people/person[@id = \"person1\"]/name/text()",
        "id(\"person1\")/name/text()",
        "id((\"item2\", \"person0\", \"nope\", \"person0\"))/@id"}) {
    EXPECT_EQ(Eval(q), Eval(q, {}, bare_)) << q;
  }
  EXPECT_EQ(Eval("id(\"person1\")/name/text()", {}, bare_), "Bob");
  EXPECT_EQ(Eval("id((\"item2\", \"person0\"))/@id", {}, bare_),
            "person0|item2");
}

TEST_F(EvalTest, IdIndexStats) {
  auto parsed =
      ParseQueryText("/site/people/person[@id = \"person1\"]/name/text()");
  ASSERT_TRUE(parsed.ok());
  EvaluatorOptions options;
  Evaluator evaluator(store_, options);
  ASSERT_TRUE(evaluator.Run(*parsed).ok());
  EXPECT_GT(evaluator.stats().index_lookups, 0);
}

TEST_F(EvalTest, ArithmeticAndComparison) {
  EXPECT_EQ(Eval("1 + 2 * 3"), "7");
  EXPECT_EQ(Eval("10 div 4"), "2.5");
  EXPECT_EQ(Eval("10 mod 4"), "2");
  EXPECT_EQ(Eval("2 < 10"), "true");
  EXPECT_EQ(Eval("\"2\" < \"10\""), "false");  // string comparison
}

TEST_F(EvalTest, UntypedComparisonCoercion) {
  // Node string-value compared with a number coerces to number.
  EXPECT_EQ(Eval("/site/items/item[price > 50]/@id"), "item1");
}

TEST_F(EvalTest, ExistentialComparisonSemantics) {
  // Any pair may match: ages are {30, 25, 41}.
  EXPECT_EQ(Eval("/site/people/person/age = 25"), "true");
  EXPECT_EQ(Eval("/site/people/person/age = 99"), "false");
}

TEST_F(EvalTest, EmptySequenceArithmetic) {
  EXPECT_EQ(Eval("1 + ()"), "");
  EXPECT_EQ(Eval("count(())"), "0");
}

TEST_F(EvalTest, FlworBasics) {
  EXPECT_EQ(Eval("for $p in /site/people/person return $p/name/text()"),
            "Alice|Bob|Cara");
  EXPECT_EQ(Eval("for $p in /site/people/person where $p/age < 35 "
                 "return $p/name/text()"),
            "Alice|Bob");
}

TEST_F(EvalTest, FlworLet) {
  EXPECT_EQ(Eval("for $p in /site/people/person let $n := $p/name/text() "
                 "where $p/age > 26 return $n"),
            "Alice|Cara");
}

TEST_F(EvalTest, FlworOrderBy) {
  EXPECT_EQ(Eval("for $p in /site/people/person order by $p/name/text() "
                 "descending return $p/name/text()"),
            "Cara|Bob|Alice");
  EXPECT_EQ(Eval("for $p in /site/people/person order by number($p/age) "
                 "return $p/name/text()"),
            "Bob|Alice|Cara");
}

TEST_F(EvalTest, OrderByEmptyKeysFirst) {
  // person1 has no profile/income.
  EXPECT_EQ(Eval("for $p in /site/people/person "
                 "order by zero-or-one($p/homepage) "
                 "return $p/name/text()"),
            "Alice|Bob|Cara");
}

TEST_F(EvalTest, Quantifiers) {
  EXPECT_EQ(Eval("some $p in /site/people/person satisfies $p/age > 40"),
            "true");
  EXPECT_EQ(Eval("every $p in /site/people/person satisfies $p/age > 20"),
            "true");
  EXPECT_EQ(Eval("every $p in /site/people/person satisfies $p/age > 28"),
            "false");
}

TEST_F(EvalTest, NodeOrderBefore) {
  EXPECT_EQ(
      Eval("some $a in //person[@id=\"person0\"], $b in "
           "//person[@id=\"person2\"] satisfies $a << $b"),
      "true");
  EXPECT_EQ(
      Eval("some $a in //person[@id=\"person2\"], $b in "
           "//person[@id=\"person0\"] satisfies $a << $b"),
      "false");
}

TEST_F(EvalTest, Functions) {
  EXPECT_EQ(Eval("count(/site/people/person)"), "3");
  EXPECT_EQ(Eval("empty(/site/people/person)"), "false");
  EXPECT_EQ(Eval("empty(//zzz)"), "true");
  EXPECT_EQ(Eval("not(empty(//person))"), "true");
  EXPECT_EQ(Eval("contains(\"pure gold coin\", \"gold\")"), "true");
  EXPECT_EQ(Eval("starts-with(\"person0\", \"person\")"), "true");
  EXPECT_EQ(Eval("string-length(\"abc\")"), "3");
  EXPECT_EQ(Eval("concat(\"a\", \"b\", \"c\")"), "abc");
  EXPECT_EQ(Eval("sum(/site/items/item/price)"), "116.75");
  EXPECT_EQ(Eval("min(/site/people/person/age)"), "25");
  EXPECT_EQ(Eval("max(/site/people/person/age)"), "41");
  EXPECT_EQ(Eval("round(2.5)"), "3");
  EXPECT_EQ(Eval("floor(2.9)"), "2");
  EXPECT_EQ(Eval("ceiling(2.1)"), "3");
  EXPECT_EQ(Eval("name(/site/people)"), "people");
  EXPECT_EQ(Eval("string(/site/people/person[1]/name)"), "Alice");
  EXPECT_EQ(Eval("distinct-values((\"a\", \"b\", \"a\"))"), "a|b");
}

TEST_F(EvalTest, ContainsOverNodeStringValue) {
  EXPECT_EQ(Eval("for $i in //item where contains($i/tag, \"gold\") "
                 "return $i/@id"),
            "item0|item2");
}

TEST_F(EvalTest, ElementConstruction) {
  EXPECT_EQ(Eval("<a x=\"1\">hi</a>"), "<a x=\"1\">hi</a>");
  EXPECT_EQ(Eval("<w n=\"{count(//person)}\"/>"), "<w n=\"3\"/>");
  EXPECT_EQ(Eval("<out>{/site/people/person[1]/name}</out>"),
            "<out><name>Alice</name></out>");
}

TEST_F(EvalTest, ConstructorAtomicSpacing) {
  // Adjacent atomics from one expression join with single spaces.
  EXPECT_EQ(Eval("<v>{(1, 2, 3)}</v>"), "<v>1 2 3</v>");
}

TEST_F(EvalTest, ConstructedNodesSerializeEscaped) {
  EXPECT_EQ(Eval("<t>{\"a < b\"}</t>"), "<t>a &lt; b</t>");
}

TEST_F(EvalTest, UserDefinedFunctions) {
  EXPECT_EQ(Eval("declare function local:twice($x) { 2 * $x }; "
                 "local:twice(21)"),
            "42");
  EXPECT_EQ(Eval("declare function local:full($p) { $p/name/text() }; "
                 "for $p in //person return local:full($p)"),
            "Alice|Bob|Cara");
}

TEST_F(EvalTest, HashJoinMatchesNestedLoop) {
  const char* join =
      "for $p in /site/people/person "
      "let $bought := for $s in /site/sales/sale "
      "               where $s/@buyer = $p/@id return $s "
      "return <b p=\"{$p/@id}\">{count($bought)}</b>";
  EvaluatorOptions hash;
  EvaluatorOptions nested;
  nested.hash_join = false;
  EXPECT_EQ(Eval(join, hash), Eval(join, nested));
  EXPECT_EQ(Eval(join, hash),
            "<b p=\"person0\">2</b>|<b p=\"person1\">0</b>|"
            "<b p=\"person2\">1</b>");
}

TEST_F(EvalTest, HashJoinStats) {
  auto parsed = ParseQueryText(
      "for $p in /site/people/person "
      "return count(for $s in /site/sales/sale "
      "             where $s/@buyer = $p/@id return $s)");
  ASSERT_TRUE(parsed.ok());
  EvaluatorOptions options;
  Evaluator evaluator(store_, options);
  ASSERT_TRUE(evaluator.Run(*parsed).ok());
  EXPECT_EQ(evaluator.stats().hash_joins_built, 1);
}

TEST_F(EvalTest, LazyLetSkipsUnusedBindings) {
  // The let body would error (unknown function) if evaluated; laziness
  // plus a false where clause means it never is.
  EvaluatorOptions lazy;
  EXPECT_EQ(Eval("for $p in /site/people/person "
                 "let $boom := unknown-function($p) "
                 "where 1 = 2 return $boom",
                 lazy),
            "");
  EvaluatorOptions eager;
  eager.lazy_let = false;
  const std::string eager_out =
      Eval("for $p in /site/people/person "
           "let $boom := unknown-function($p) "
           "where 1 = 2 return $boom",
           eager);
  EXPECT_NE(eager_out.find("EVAL:"), std::string::npos);
}

TEST_F(EvalTest, CopyResultsProducesEqualSerialization) {
  EvaluatorOptions copy;
  copy.copy_results = true;
  EXPECT_EQ(Eval("/site/people/person[1]", copy),
            Eval("/site/people/person[1]"));
}

TEST_F(EvalTest, IfThenElse) {
  EXPECT_EQ(Eval("if (count(//person) > 2) then \"many\" else \"few\""),
            "many");
}

TEST_F(EvalTest, DocumentFunctionReturnsRoot) {
  EXPECT_EQ(Eval("count(document(\"anything.xml\")/site)"), "1");
}

TEST_F(EvalTest, Errors) {
  EXPECT_NE(Eval("$undefined").find("EVAL:"), std::string::npos);
  EXPECT_NE(Eval("unknown-fn(1)").find("EVAL:"), std::string::npos);
  EXPECT_NE(Eval("1 + \"abc\"").find("EVAL:"), std::string::npos);
}

TEST_F(EvalTest, PathIndexAgreesWithTraversal) {
  EvaluatorOptions plain;
  plain.cache_invariant_paths = false;
  for (const char* q :
       {"/site/people/person/name/text()", "count(//price)",
        "count(/site//tag)", "/site/items/item[2]/@id"}) {
    EXPECT_EQ(Eval(q), Eval(q, plain, bare_)) << q;
  }
}

}  // namespace
}  // namespace xmark::query

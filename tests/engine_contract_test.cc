// Engine/session contract. Engine's serving methods forward to its own
// EngineSession, so every rule below must hold the same through the
// engine and through a session created from it; each case runs once per
// handle. A second session (`other`) checks that a load or drop through
// one handle is seen at once by every other handle.
//
// The rules, one case each:
//   1. The default scope binds the lowest id of the catalog snapshot each
//      Prepare and each Execute takes; an empty catalog is [empty-catalog].
//   2. Loads and drops land in the one catalog every handle shares.
//   3. System G holds one document through any handle, routes its scope
//      like every other system and runs on a private reload.
//   4. An empty engine is valid: sessions can be created and load the
//      first document; Prepare and Explain fail [empty-catalog].
//   5. The uncached prepare resolves names against the store its scope
//      binds.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "gen/generator.h"
#include "query/value.h"
#include "xmark/engine.h"

namespace xmark::bench {
namespace {

enum class HandleKind { kEngine, kSession };

std::string GenerateDocument(double scale, uint64_t seed) {
  gen::GeneratorOptions opts;
  opts.scale = scale;
  opts.seed = seed;
  return gen::XmlGen(opts).GenerateToString();
}

// Number of <person> elements in `xml`: the expected answer of a people
// count, taken from the text rather than from an engine.
std::string People(const std::string& xml) {
  size_t n = 0;
  for (size_t pos = xml.find("<person "); pos != std::string::npos;
       pos = xml.find("<person ", pos + 1)) {
    ++n;
  }
  return std::to_string(n);
}

std::string Serialized(const StatusOr<query::Sequence>& result) {
  if (!result.ok()) return "<error: " + result.status().ToString() + ">";
  return query::SerializeSequence(*result);
}

template <typename T>
void ExpectEmptyCatalog(const StatusOr<T>& result) {
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("[empty-catalog]"),
            std::string::npos)
      << result.status().ToString();
}

void ExpectMultiDocumentRefused(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kUnimplemented) << status;
  EXPECT_NE(status.message().find("[multi-document-unsupported]"),
            std::string::npos)
      << status;
}

// One serving handle: the engine's own methods, or a session's.
// Engine::Prepare is the uncached compile and Engine::Run runs it;
// EngineSession::Prepare and Run go through the plan cache.
class Handle {
 public:
  Handle(Engine* engine, EngineSession* session)
      : engine_(engine), session_(session) {}

  Status Load(std::string_view id, std::string_view xml) {
    return session_ ? session_->LoadDocument(id, xml)
                    : engine_->LoadDocument(id, xml);
  }
  Status LoadCorpus(const std::vector<store::CorpusDocument>& docs) {
    return session_ ? session_->LoadCorpus(docs) : engine_->LoadCorpus(docs);
  }
  Status Drop(std::string_view id) {
    return session_ ? session_->DropDocument(id) : engine_->DropDocument(id);
  }
  std::vector<std::string> List() const {
    return session_ ? session_->ListDocuments() : engine_->ListDocuments();
  }
  size_t Count() const {
    return session_ ? session_->DocumentCount() : engine_->DocumentCount();
  }
  StatusOr<PreparedQuery> PrepareUncached(std::string_view text) const {
    return session_ ? session_->PrepareUncached(text) : engine_->Prepare(text);
  }
  StatusOr<PreparedQuery> PrepareCached(std::string_view text) const {
    return session_ ? session_->Prepare(text) : engine_->PrepareCached(text);
  }
  StatusOr<query::Sequence> Execute(const PreparedQuery& prepared) {
    return session_ ? session_->Execute(prepared) : engine_->Execute(prepared);
  }
  StatusOr<query::Sequence> Run(std::string_view text) {
    return session_ ? session_->Run(text) : engine_->Run(text);
  }
  StatusOr<std::string> Explain(std::string_view text) const {
    return session_ ? session_->Explain(text) : engine_->Explain(text);
  }

 private:
  Engine* engine_;
  EngineSession* session_;
};

class EngineContractTest : public ::testing::TestWithParam<HandleKind> {
 protected:
  // Creates the session under test and `other`, at whatever point of the
  // engine's life the case needs.
  void CreateSessions() {
    auto session = engine_->CreateSession();
    ASSERT_TRUE(session.ok()) << session.status();
    session_ = std::move(*session);
    auto other = engine_->CreateSession();
    ASSERT_TRUE(other.ok()) << other.status();
    other_ = std::move(*other);
  }

  // The handle under test: the engine itself, or a session of it.
  Handle handle() {
    return GetParam() == HandleKind::kEngine
               ? Handle(engine_.get(), nullptr)
               : Handle(nullptr, session_.get());
  }
  Handle other() { return Handle(nullptr, other_.get()); }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<EngineSession> session_;
  std::unique_ptr<EngineSession> other_;
};

constexpr std::string_view kDefaultCount = "count(/site/people/person)";

// Rule 1. Loaded as b.xml then a.xml, the default scope binds a.xml; a
// query prepared then still binds whatever is lowest when it executes.
TEST_P(EngineContractTest, DefaultScopeBindsLowestIdAtEveryCall) {
  const std::string b = GenerateDocument(0.003, 1);
  const std::string a = GenerateDocument(0.001, 2);
  ASSERT_NE(People(a), People(b));
  engine_ = Engine::Create(SystemId::kD);
  ASSERT_TRUE(engine_->LoadDocument("b.xml", b).ok());
  ASSERT_NO_FATAL_FAILURE(CreateSessions());
  Handle h = handle();
  Handle o = other();
  EXPECT_EQ(Serialized(h.Run(kDefaultCount)), People(b));

  ASSERT_TRUE(o.Load("a.xml", a).ok());
  EXPECT_EQ(Serialized(h.Run(kDefaultCount)), People(a));
  EXPECT_EQ(Serialized(o.Run(kDefaultCount)), People(a));

  // Dropping the first loaded document changes nothing: a.xml stays
  // lowest for every handle.
  ASSERT_TRUE(h.Drop("b.xml").ok());
  EXPECT_EQ(Serialized(h.Run(kDefaultCount)), People(a));
  EXPECT_EQ(Serialized(o.Run(kDefaultCount)), People(a));

  ASSERT_TRUE(h.Load("b.xml", b).ok());
  auto uncached = h.PrepareUncached(kDefaultCount);
  auto cached = h.PrepareCached(kDefaultCount);
  ASSERT_TRUE(uncached.ok()) << uncached.status();
  ASSERT_TRUE(cached.ok()) << cached.status();
  ASSERT_TRUE(o.Drop("a.xml").ok());
  EXPECT_EQ(Serialized(h.Execute(*uncached)), People(b));
  EXPECT_EQ(Serialized(h.Execute(*cached)), People(b));
  EXPECT_EQ(Serialized(h.Run(kDefaultCount)), People(b));
  EXPECT_EQ(Serialized(o.Run(kDefaultCount)), People(b));

  ASSERT_TRUE(o.Drop("b.xml").ok());
  ExpectEmptyCatalog(h.Execute(*uncached));
  ExpectEmptyCatalog(h.Execute(*cached));
  ExpectEmptyCatalog(h.Run(kDefaultCount));
  ExpectEmptyCatalog(o.Run(kDefaultCount));
}

// Rule 2. Sessions made before the first load share the catalog the
// loads fill; the canonical id is an ordinary catalog id.
TEST_P(EngineContractTest, LoadsAndDropsAreShared) {
  const std::string first = GenerateDocument(0.001, 3);
  const std::string extra = GenerateDocument(0.002, 4);
  engine_ = Engine::Create(SystemId::kD);
  ASSERT_NO_FATAL_FAILURE(CreateSessions());
  Handle h = handle();
  Handle o = other();

  ASSERT_TRUE(h.Load(Engine::kDefaultDocumentId, first).ok());
  ASSERT_TRUE(o.Load("extra.xml", extra).ok());
  const std::vector<std::string> both = {"auction.xml", "extra.xml"};
  EXPECT_EQ(h.List(), both);
  EXPECT_EQ(o.List(), both);
  EXPECT_EQ(engine_->DocumentCount(), 2u);
  EXPECT_EQ(session_->DocumentCount(), 2u);

  const Status dup = o.Load(Engine::kDefaultDocumentId, extra);
  EXPECT_EQ(dup.code(), StatusCode::kInvalidArgument) << dup;
  const std::string canonical =
      "count(document(\"auction.xml\")/site/people/person)";
  EXPECT_EQ(Serialized(h.Run(canonical)), People(first));

  // With the canonical document gone, a lone document answers for it.
  ASSERT_TRUE(o.Drop(Engine::kDefaultDocumentId).ok());
  EXPECT_EQ(h.List(), std::vector<std::string>{"extra.xml"});
  EXPECT_EQ(Serialized(h.Run(canonical)), People(extra));
  ASSERT_TRUE(h.Load(Engine::kDefaultDocumentId, first).ok());
  EXPECT_EQ(o.Count(), 2u);
  EXPECT_EQ(Serialized(o.Run(canonical)), People(first));
}

// Rule 3. System G refuses only a second document, drops through any
// handle, routes doc() exactly and serves nothing once its document is
// gone.
TEST_P(EngineContractTest, EmbeddedSystemHoldsOneDocumentThroughAnyHandle) {
  const std::string g1 = GenerateDocument(0.001, 5);
  const std::string g2 = GenerateDocument(0.002, 6);
  engine_ = Engine::Create(SystemId::kG);
  ASSERT_TRUE(engine_->LoadDocument("g1.xml", g1).ok());
  ASSERT_NO_FATAL_FAILURE(CreateSessions());
  Handle h = handle();
  Handle o = other();
  const std::string g1_count = "count(doc(\"g1.xml\")/site/people/person)";
  EXPECT_EQ(Serialized(o.Run(g1_count)), People(g1));

  ASSERT_TRUE(h.Drop("g1.xml").ok());
  ExpectEmptyCatalog(o.Run(g1_count));
  ExpectEmptyCatalog(h.Run(kDefaultCount));

  store::CorpusDocument doc;
  doc.id = "g2.xml";
  doc.xml = g2;
  ASSERT_TRUE(h.LoadCorpus({doc}).ok());
  store::CorpusDocument second;
  second.id = "g3.xml";
  second.xml = g1;
  for (Handle* via : {&h, &o}) {
    ExpectMultiDocumentRefused(via->Load(second.id, second.xml));
    ExpectMultiDocumentRefused(via->LoadCorpus({second}));
  }
  EXPECT_EQ(h.Count(), 1u);

  EXPECT_EQ(Serialized(h.Run("count(doc(\"g2.xml\")/site/people/person)")),
            People(g2));
  EXPECT_EQ(Serialized(o.Run(kDefaultCount)), People(g2));
  EXPECT_EQ(Serialized(h.Run("count(collection()/site/people/person)")),
            People(g2));
  auto missing = h.Run(g1_count);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("[unknown-document]"),
            std::string::npos)
      << missing.status();
}

// Rule 4. Nothing needs a loaded document to exist: the first load may
// come through a session made on the empty engine.
TEST_P(EngineContractTest, EmptyEngineIsValid) {
  engine_ = Engine::Create(SystemId::kD);
  ASSERT_NO_FATAL_FAILURE(CreateSessions());
  Handle h = handle();
  Handle o = other();
  ExpectEmptyCatalog(h.Explain(kDefaultCount));
  ExpectEmptyCatalog(h.PrepareUncached(kDefaultCount));
  ExpectEmptyCatalog(h.PrepareCached(kDefaultCount));

  const std::string xml = GenerateDocument(0.001, 7);
  ASSERT_TRUE(o.Load("first.xml", xml).ok());
  EXPECT_EQ(h.Count(), 1u);
  auto explain = h.Explain(kDefaultCount);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain->find("catalog: documents=1"), std::string::npos)
      << *explain;
  EXPECT_EQ(Serialized(h.Run(kDefaultCount)), People(xml));
}

// Rule 5. Table 2's compile phase is charged for the catalog of the
// document the query names, not for the default document's.
TEST_P(EngineContractTest, UncachedPrepareResolvesAgainstScopedStore) {
  const std::string big = GenerateDocument(0.01, 8);
  const std::string small = GenerateDocument(0.001, 9);
  const std::string query =
      "for $p in doc(\"small.xml\")/site/people/person "
      "where $p/profile/age > 20 return $p/name";

  auto reference = Engine::Create(SystemId::kB);
  ASSERT_TRUE(reference->LoadDocument("small.xml", small).ok());
  auto expected = reference->Prepare(query);
  ASSERT_TRUE(expected.ok()) << expected.status();

  engine_ = Engine::Create(SystemId::kB);
  ASSERT_TRUE(engine_->LoadDocument("big.xml", big).ok());
  ASSERT_TRUE(engine_->LoadDocument("small.xml", small).ok());
  ASSERT_NO_FATAL_FAILURE(CreateSessions());
  Handle h = handle();

  auto uncached = h.PrepareUncached(query);
  ASSERT_TRUE(uncached.ok()) << uncached.status();
  auto on_big = h.PrepareUncached(
      "for $p in doc(\"big.xml\")/site/people/person "
      "where $p/profile/age > 20 return $p/name");
  ASSERT_TRUE(on_big.ok()) << on_big.status();
  ASSERT_NE(on_big->catalog_probes, expected->catalog_probes);
  EXPECT_EQ(uncached->catalog_probes, expected->catalog_probes);
  auto cached = h.PrepareCached(query);
  ASSERT_TRUE(cached.ok()) << cached.status();
  EXPECT_EQ(cached->catalog_probes, expected->catalog_probes);
  auto from_other = other().PrepareUncached(query);
  ASSERT_TRUE(from_other.ok()) << from_other.status();
  EXPECT_EQ(from_other->catalog_probes, expected->catalog_probes);
}

INSTANTIATE_TEST_SUITE_P(
    Handles, EngineContractTest,
    ::testing::Values(HandleKind::kEngine, HandleKind::kSession),
    [](const ::testing::TestParamInfo<HandleKind>& info) {
      return info.param == HandleKind::kEngine ? "Engine" : "Session";
    });

}  // namespace
}  // namespace xmark::bench

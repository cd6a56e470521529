// Bulkload determinism: loading the same document with threads ∈ {1,2,8}
// must produce byte-identical stores of identical StorageBytes() on every
// mapping — the serial load (threads=1) is the reference — and
// byte-identical Q1-Q20 results.
// This is the acceptance property of the parallel bulkload pipeline: the
// chunked parallel parse, the partitioned sorts and the concurrent index
// builds may never let worker count or scheduling leak into the data.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "gen/generator.h"
#include "query/evaluator.h"
#include "query/parser.h"
#include "query/value.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "xmark/engine.h"
#include "xmark/queries.h"

namespace xmark::store {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

const std::string& TestDocument() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions opts;
    opts.scale = 0.005;
    return new std::string(gen::XmlGen(opts).GenerateToString());
  }();
  return *kDoc;
}

template <typename LoadFn>
void ExpectDumpsIdentical(const char* name, LoadFn load) {
  std::string reference;
  size_t reference_bytes = 0;
  for (const unsigned threads : kThreadCounts) {
    auto store = load(LoadOptions{threads});
    ASSERT_TRUE(store.ok()) << name << " threads=" << threads << ": "
                            << store.status().ToString();
    std::string dump;
    (*store)->DumpState(&dump);
    if (threads == 1) {
      reference = std::move(dump);
      reference_bytes = (*store)->StorageBytes();
      ASSERT_FALSE(reference.empty());
      continue;
    }
    // Table 1's database size is a property of the document, not of how
    // many threads loaded it.
    EXPECT_EQ((*store)->StorageBytes(), reference_bytes)
        << name << " threads=" << threads;
    // EXPECT_EQ on multi-MB strings prints unreadable diffs; compare
    // explicitly and report the first divergent byte.
    if (dump != reference) {
      size_t i = 0;
      while (i < std::min(dump.size(), reference.size()) &&
             dump[i] == reference[i]) {
        ++i;
      }
      FAIL() << name << " threads=" << threads
             << " diverges from the serial load at byte " << i << " (sizes "
             << reference.size() << " vs " << dump.size() << ")";
    }
  }
}

TEST(BulkloadDeterminismTest, EdgeStoreDumps) {
  ExpectDumpsIdentical("edge", [](const LoadOptions& o) {
    return EdgeStore::Load(TestDocument(), o);
  });
}

TEST(BulkloadDeterminismTest, FragmentedStoreDumps) {
  ExpectDumpsIdentical("fragmented", [](const LoadOptions& o) {
    return FragmentedStore::Load(TestDocument(), o);
  });
}

TEST(BulkloadDeterminismTest, InlinedStoreDumps) {
  ExpectDumpsIdentical("inlined", [](const LoadOptions& o) {
    return InlinedStore::Load(TestDocument(), xml::kAuctionDtd, o);
  });
}

TEST(BulkloadDeterminismTest, DomStoreDumps) {
  ExpectDumpsIdentical("dom", [](const LoadOptions& o) {
    DomStore::Options full;
    return DomStore::Load(TestDocument(), full, o);
  });
}

#if XMARK_FAULT_INJECTION
// A load whose every helper is refused ("thread_pool/submit" armed sticky)
// runs each pass's chunks on its caller, and still dumps exactly the
// serial load: the chunking follows the thread count, not who runs it.
template <typename LoadFn>
void ExpectRefusedHelpersMatchSerial(const char* name, LoadFn load) {
  std::string dumps[2];
  int hits = 0;
  for (const unsigned threads : {1u, 8u}) {
    if (threads > 1) fault::ArmSticky("thread_pool/submit");
    auto store = load(LoadOptions{threads});
    if (threads > 1) {
      hits = fault::ArmedSiteHits();
      fault::Disarm();
    }
    ASSERT_TRUE(store.ok()) << name << " threads=" << threads << ": "
                            << store.status().ToString();
    (*store)->DumpState(&dumps[threads > 1]);
  }
  EXPECT_TRUE(dumps[1] == dumps[0])
      << name << ": threads=8 with every helper refused diverges from the "
      << "serial load";
  if (ThreadPool::Shared().worker_count() > 1) {
    EXPECT_GT(hits, 0) << name << ": the load never asked the pool";
  }
}

TEST(BulkloadDeterminismTest, EveryHelperRefusedMatchesSerialLoad) {
  ExpectRefusedHelpersMatchSerial("edge", [](const LoadOptions& o) {
    return EdgeStore::Load(TestDocument(), o);
  });
  ExpectRefusedHelpersMatchSerial("fragmented", [](const LoadOptions& o) {
    return FragmentedStore::Load(TestDocument(), o);
  });
  ExpectRefusedHelpersMatchSerial("inlined", [](const LoadOptions& o) {
    return InlinedStore::Load(TestDocument(), xml::kAuctionDtd, o);
  });
  ExpectRefusedHelpersMatchSerial("dom", [](const LoadOptions& o) {
    return DomStore::Load(TestDocument(), DomStore::Options{}, o);
  });
}
#endif

// Q1-Q20 byte-parity across thread counts, through the full engine
// plumbing (Engine::set_load_options -> store Load).
class BulkloadQueryParityTest
    : public ::testing::TestWithParam<bench::SystemId> {};

TEST_P(BulkloadQueryParityTest, QueriesByteIdenticalAcrossThreadCounts) {
  const bench::SystemId id = GetParam();
  std::map<unsigned, std::unique_ptr<bench::Engine>> engines;
  for (const unsigned threads : kThreadCounts) {
    auto engine = bench::Engine::Create(id);
    engine->set_load_options(LoadOptions{threads});
    ASSERT_TRUE(
        engine->LoadDocument(bench::Engine::kDefaultDocumentId, TestDocument())
            .ok());
    engines[threads] = std::move(engine);
  }
  for (int q = 1; q <= 20; ++q) {
    std::string reference;
    for (const unsigned threads : kThreadCounts) {
      auto result = engines[threads]->Run(bench::GetQuery(q).text);
      ASSERT_TRUE(result.ok()) << "Q" << q << " threads=" << threads;
      const std::string serialized = query::SerializeSequence(*result);
      if (threads == 1) {
        reference = serialized;
      } else {
        EXPECT_EQ(serialized, reference)
            << "system " << bench::SystemLabel(id) << " Q" << q
            << " threads=" << threads << " diverges from the serial load";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStores, BulkloadQueryParityTest,
                         ::testing::Values(bench::SystemId::kA,
                                           bench::SystemId::kB,
                                           bench::SystemId::kC,
                                           bench::SystemId::kD));

}  // namespace
}  // namespace xmark::store

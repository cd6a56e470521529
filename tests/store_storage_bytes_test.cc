// StorageBytes() is the "database size" column of Table 1, so it must be
// the memory a loaded store actually holds, not an accounting figure: for
// every mapping and load-thread count it has to land within 0.90-1.05 of
// the malloc in-use growth the load leaves behind. A store that sized its
// tables by capacity growth, or undercounted a structure, fails here.

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include "gen/generator.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"

namespace xmark::store {
namespace {

const std::string& TestDocument() {
  static const std::string* const kDoc = [] {
    gen::GeneratorOptions opts;
    opts.scale = 0.02;
    return new std::string(gen::XmlGen(opts).GenerateToString());
  }();
  return *kDoc;
}

// Bytes malloc hands out right now, after returning free pages.
size_t InUseBytes() {
  malloc_trim(0);
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
}

// Sanitizer runtimes replace malloc with allocators mallinfo2 cannot see.
bool MallinfoSeesAllocations() {
  constexpr size_t kProbe = 4 << 20;
  const size_t before = InUseBytes();
  // Volatile so the compiler cannot elide the allocation.
  void* volatile block = std::malloc(kProbe);
  std::memset(block, 1, kProbe);
  const bool seen = InUseBytes() >= before + kProbe;
  std::free(block);
  return seen;
}

using Loader = std::function<StatusOr<std::unique_ptr<query::StorageAdapter>>(
    const LoadOptions&)>;

template <typename Store>
StatusOr<std::unique_ptr<query::StorageAdapter>> Upcast(
    StatusOr<std::unique_ptr<Store>> store) {
  if (!store.ok()) return store.status();
  return std::unique_ptr<query::StorageAdapter>(std::move(*store));
}

void ExpectHonest(const char* name, const Loader& load) {
  if (!MallinfoSeesAllocations()) {
    GTEST_SKIP() << "allocator not visible to mallinfo2 (sanitizer build)";
  }
  TestDocument();  // generated before the first measurement
  for (const unsigned threads : {1u, 2u}) {
    const size_t before = InUseBytes();
    auto store = load(LoadOptions{threads});
    ASSERT_TRUE(store.ok()) << name << ": " << store.status().ToString();
    const size_t after = InUseBytes();
    ASSERT_GT(after, before) << name;
    const double ratio = static_cast<double>((*store)->StorageBytes()) /
                         static_cast<double>(after - before);
    EXPECT_GE(ratio, 0.90) << name << " threads=" << threads
                           << ": StorageBytes undercounts the load";
    EXPECT_LE(ratio, 1.05) << name << " threads=" << threads
                           << ": StorageBytes overcounts the load";
    std::printf("%s threads=%u StorageBytes/malloc growth = %.3f\n", name,
                threads, ratio);
  }
}

TEST(StorageBytesTest, EdgeStore) {
  ExpectHonest("edge", [](const LoadOptions& o) {
    return Upcast(EdgeStore::Load(TestDocument(), o));
  });
}

TEST(StorageBytesTest, FragmentedStore) {
  ExpectHonest("fragmented", [](const LoadOptions& o) {
    return Upcast(FragmentedStore::Load(TestDocument(), o));
  });
}

TEST(StorageBytesTest, InlinedStore) {
  ExpectHonest("inlined", [](const LoadOptions& o) {
    return Upcast(InlinedStore::Load(TestDocument(), xml::kAuctionDtd, o));
  });
}

TEST(StorageBytesTest, DomStoreAllIndexes) {
  ExpectHonest("dom-D", [](const LoadOptions& o) {
    return Upcast(DomStore::Load(TestDocument(), DomStore::Options{}, o));
  });
}

TEST(StorageBytesTest, DomStoreIdIndexOnly) {
  ExpectHonest("dom-E", [](const LoadOptions& o) {
    DomStore::Options id_only;
    id_only.build_tag_index = false;
    id_only.build_path_summary = false;
    return Upcast(DomStore::Load(TestDocument(), id_only, o));
  });
}

}  // namespace
}  // namespace xmark::store

#include "query/plan_cache.h"

#include "util/fault_injection.h"

namespace xmark::query {
namespace {

// '\n' never appears in a uint64 rendering, so the two numbers after the
// key's last two '\n's are unambiguous whatever the query text holds.
std::string CacheKey(std::string_view query_text, uint64_t store_uid,
                     uint64_t options_fingerprint) {
  std::string key;
  key.reserve(query_text.size() + 48);
  key.append(query_text);
  key.push_back('\n');
  key.append(std::to_string(store_uid));
  key.push_back('\n');
  key.append(std::to_string(options_fingerprint));
  return key;
}

}  // namespace

StatusOr<std::shared_ptr<const CachedQuery>> PlanCache::GetOrCompile(
    std::string_view query_text, uint64_t store_uid,
    uint64_t options_fingerprint, const CompileFn& compile) {
  std::string key = CacheKey(query_text, store_uid, options_fingerprint);
  Shard& shard = shards_[std::hash<std::string>{}(key) % kShards];
  util::MutexLock lock(shard.mu);
  const auto it = shard.entries.find(key);
  if (it != shard.entries.end()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (XMARK_FAULT_POINT("plan_cache/compile")) {
    return Status::ResourceExhausted(
        "fault injection: plan_cache/compile (compilation refused)");
  }
  XMARK_ASSIGN_OR_RETURN(CachedQuery compiled, compile());
  auto entry = std::make_shared<const CachedQuery>(std::move(compiled));
  shard.entries.emplace(std::move(key), entry);
  return entry;
}

namespace {

bool CompiledFor(const CachedQuery& entry, uint64_t store_uid) {
  return entry.annotations != nullptr &&
         entry.annotations->store_uid == store_uid;
}

}  // namespace

void PlanCache::EraseStore(uint64_t store_uid) {
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    std::erase_if(shard.entries, [&](const auto& kv) {
      return CompiledFor(*kv.second, store_uid);
    });
  }
}

size_t PlanCache::EntriesForStore(uint64_t store_uid) const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    for (const auto& [key, entry] : shard.entries) {
      n += CompiledFor(*entry, store_uid);
    }
  }
  return n;
}

size_t PlanCache::size() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    n += shard.entries.size();
  }
  return n;
}

}  // namespace xmark::query

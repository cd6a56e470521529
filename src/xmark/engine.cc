#include "xmark/engine.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "query/optimizer.h"
#include "query/plan.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace xmark::bench {
namespace {

// Collects all element/attribute names mentioned by the query; compilation
// resolves each against the store catalog.
void CollectNameTests(const query::AstNode& node,
                      std::vector<std::string>* names) {
  for (const query::Step& s : node.steps) {
    if (!s.name.empty()) names->push_back(s.name);
    for (const query::AstPtr& p : s.predicates) CollectNameTests(*p, names);
  }
  if (node.start) CollectNameTests(*node.start, names);
  for (const query::ForLetClause& c : node.clauses) {
    if (c.expr) CollectNameTests(*c.expr, names);
  }
  if (node.where) CollectNameTests(*node.where, names);
  for (const query::OrderSpec& o : node.order_by) {
    CollectNameTests(*o.key, names);
  }
  if (node.ret) CollectNameTests(*node.ret, names);
  for (const query::AstPtr& a : node.args) CollectNameTests(*a, names);
  for (const query::AttrConstructor& attr : node.attrs) {
    for (const query::AttrPart& part : attr.parts) {
      if (part.expr) CollectNameTests(*part.expr, names);
    }
  }
  for (const query::AstPtr& c : node.content) CollectNameTests(*c, names);
}

// Metadata resolution: every name test is looked up in the mapping's
// catalog. For the fragmented mapping this scans the path catalog, which
// is what makes System B's compilation phase comparatively expensive
// (Table 2).
void ResolveCatalogNames(const query::StorageAdapter& store,
                         const query::ParsedQuery& parsed,
                         size_t* catalog_probes, size_t* name_tests) {
  std::vector<std::string> names;
  CollectNameTests(*parsed.body, &names);
  for (const query::FunctionDecl& f : parsed.functions) {
    CollectNameTests(*f.body, &names);
  }
  *name_tests = names.size();
  for (const std::string& name : names) {
    *catalog_probes += store.ResolveName(name);
  }
}

StatusOr<PreparedQuery> CompileUncached(const query::StorageAdapter& store,
                                        std::string_view query_text) {
  PreparedQuery out;
  XMARK_ASSIGN_OR_RETURN(out.parsed, query::ParseQueryText(query_text));
  ResolveCatalogNames(store, out.parsed, &out.catalog_probes,
                      &out.name_tests);
  XMARK_ASSIGN_OR_RETURN(out.scope, query::ExtractQueryScope(out.parsed));
  out.source_text = std::string(query_text);
  return out;
}

// Document scope of `query_text`, memoized by text in the serving state
// (scope is a pure function of the text) so the plan-cache hit path never
// re-parses just to route. Parse and scope-conflict errors are returned,
// not cached.
StatusOr<query::QueryScope> ScopeForQuery(ServingState* serving,
                                          std::string_view query_text) {
  {
    util::MutexLock lock(serving->scope_mu);
    const auto it = serving->scopes.find(std::string(query_text));
    if (it != serving->scopes.end()) return it->second;
  }
  XMARK_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                         query::ParseQueryText(query_text));
  XMARK_ASSIGN_OR_RETURN(query::QueryScope scope,
                         query::ExtractQueryScope(parsed));
  util::MutexLock lock(serving->scope_mu);
  serving->scopes.emplace(std::string(query_text), scope);
  return scope;
}

// Cached compilation path: parse + catalog resolution + optimizer
// lowering, once per (query text, store uid, options fingerprint, doc
// scope); every later request for the key shares the entry. `cache_hit`
// reports whether the compile lambda ran.
StatusOr<PreparedQuery> PrepareThroughCache(
    const query::StorageAdapter& store,
    const query::EvaluatorOptions& options, ServingState* serving,
    std::string_view query_text, const query::QueryScope& scope) {
  bool compiled = false;
  XMARK_ASSIGN_OR_RETURN(
      std::shared_ptr<const query::CachedQuery> entry,
      serving->plan_cache.GetOrCompile(
          query_text, store.store_uid(), query::OptionsFingerprint(options),
          scope.CacheKey(),
          [&]() -> StatusOr<query::CachedQuery> {
            compiled = true;
            query::CachedQuery out;
            XMARK_ASSIGN_OR_RETURN(out.parsed,
                                   query::ParseQueryText(query_text));
            ResolveCatalogNames(store, out.parsed, &out.catalog_probes,
                                &out.name_tests);
            auto annotations = std::make_shared<query::PlanAnnotations>();
            query::BuildPlan(out.parsed, store, options, annotations.get());
            out.annotations = std::move(annotations);
            return out;
          }));
  PreparedQuery prepared;
  prepared.cached = std::move(entry);
  prepared.cache_hit = !compiled;
  prepared.catalog_probes = prepared.cached->catalog_probes;
  prepared.name_tests = prepared.cached->name_tests;
  prepared.scope = scope;
  prepared.source_text = std::string(query_text);
  return prepared;
}

// Buckets a non-Execute failure (Prepare, store load) into the shared
// outcome counters so serving statistics cover rejected queries too.
void RecordOutcome(ServingState* serving, const Status& status) {
  util::MutexLock lock(serving->stats_mu);
  serving->outcomes.Record(status);
}

// One evaluator run against one store, with no serving-state recording:
// the building block shared by single-store Executes and the per-document
// legs of a collection() fan-out. Morsel parallelism, when enabled, runs
// on the process-wide pool; otherwise the pool is never touched.
struct DocRun {
  StatusOr<query::Sequence> result = Status::Internal("document not run");
  query::Evaluator::Stats stats;
};

DocRun RunOnStore(const query::StorageAdapter& store,
                  const query::EvaluatorOptions& options,
                  query::ExecContext* ctx, const query::ParsedQuery& module,
                  std::shared_ptr<const query::PlanAnnotations> annotations) {
  DocRun out;
  query::Evaluator evaluator(&store, options);
  evaluator.set_exec_context(ctx);
  if (options.parallel_exec.enabled) {
    evaluator.set_exec_pool(&ThreadPool::Shared());
  }
  out.result = evaluator.Run(module, std::move(annotations));
  out.stats = evaluator.stats();
  return out;
}

// Books one completed query into the shared serving counters.
void RecordRun(ServingState* serving, const Status& status,
               const query::Evaluator::Stats& stats) {
  util::MutexLock lock(serving->stats_mu);
  serving->outcomes.Record(status);
  if (status.ok()) {
    serving->cumulative_stats.MergeFrom(stats);
    ++serving->queries_executed;
  }
}

// One Execute against `store`: a private Evaluator adopts the cached
// annotations when present (the cache key guarantees they match this
// store + option fingerprint), per-run statistics are merged into the
// shared cumulative counters under the serving mutex at completion.
//
// Governance: `ctx` (optional) is a caller-held context (external
// cancellation); otherwise one is created here iff `run_options` sets a
// limit. On a governed failure the Evaluator — and with it the run's
// QueryPlan and NodeArena — is destroyed before returning, so a cancelled
// query frees its result memory and only the outcome counter survives.
StatusOr<query::Sequence> ExecuteQuery(const query::StorageAdapter& store,
                                       const query::EvaluatorOptions& options,
                                       const query::RunOptions& run_options,
                                       query::ExecContext* ctx,
                                       const PreparedQuery& prepared,
                                       ServingState* serving,
                                       query::Evaluator::Stats* last_stats) {
  std::optional<query::ExecContext> local_ctx;
  if (ctx == nullptr && run_options.engaged()) {
    local_ctx.emplace(run_options);
    ctx = &*local_ctx;
  }
  std::shared_ptr<const query::PlanAnnotations> annotations;
  if (prepared.cached != nullptr) annotations = prepared.cached->annotations;
  DocRun run =
      RunOnStore(store, options, ctx, prepared.module(), std::move(annotations));
  RecordRun(serving, run.result.status(), run.stats);
  if (!run.result.ok()) return run.result.status();
  *last_stats = run.stats;
  return run.result;
}

// collection() fan-out: one evaluator run per catalog document,
// concatenated in document-id order (the differential oracle: identical
// bytes to running each document alone and concatenating). Each document
// leg compiles its own entry — through the plan cache when the caller's
// prepare was cached (key: doc store uid + "collection" scope), uncached
// otherwise — so no AST is ever shared across stores (the per-Step name
// cache is keyed by one store uid at a time). Legs always run as one
// ForkJoin on the process-wide pool; each leg writes only its own slot, so
// the concatenation is deterministic for any interleaving. One governed
// context spans every leg: a deadline or budget covers the whole corpus
// scan. The fan-out books exactly one query into the serving counters,
// with the legs' statistics merged.
StatusOr<query::Sequence> ExecuteCollection(
    const store::DocumentCatalog& catalog,
    const query::EvaluatorOptions& options,
    const query::RunOptions& run_options, query::ExecContext* ctx,
    const PreparedQuery& prepared, ServingState* serving,
    query::Evaluator::Stats* last_stats) {
  std::shared_ptr<const store::DocumentCatalog::Snapshot> snap =
      catalog.snapshot();
  if (snap->docs.empty()) {
    Status status =
        Status::NotFound("[empty-catalog] collection() over no documents");
    RecordRun(serving, status, {});
    return status;
  }
  std::optional<query::ExecContext> local_ctx;
  if (ctx == nullptr && run_options.engaged()) {
    local_ctx.emplace(run_options);
    ctx = &*local_ctx;
  }

  const size_t n = snap->docs.size();
  const bool use_cache = prepared.cached != nullptr;
  std::vector<DocRun> runs(n);
  auto run_leg = [&](size_t i) {
    const store::DocumentCatalog::Entry& doc = snap->docs[i];
    if (use_cache) {
      StatusOr<PreparedQuery> leg = PrepareThroughCache(
          *doc.store, options, serving, prepared.source_text, prepared.scope);
      if (!leg.ok()) {
        runs[i].result = leg.status();
        return;
      }
      runs[i] = RunOnStore(*doc.store, options, ctx, leg->module(),
                           leg->cached->annotations);
    } else {
      // Uncached prepare path: a private parse per document, preserving
      // the "compilation is never amortized" contract of Engine::Prepare.
      StatusOr<PreparedQuery> leg =
          CompileUncached(*doc.store, prepared.source_text);
      if (!leg.ok()) {
        runs[i].result = leg.status();
        return;
      }
      runs[i] = RunOnStore(*doc.store, options, ctx, leg->parsed, nullptr);
    }
  };

  ForkJoin(ThreadPool::Shared(), n, run_leg);

  query::Evaluator::Stats merged;
  for (const DocRun& run : runs) merged.MergeFrom(run.stats);
  for (size_t i = 0; i < n; ++i) {
    if (!runs[i].result.ok()) {
      // First failure in document-id order wins (deterministic).
      RecordRun(serving, runs[i].result.status(), merged);
      return runs[i].result.status();
    }
  }
  query::Sequence out;
  size_t total = 0;
  for (const DocRun& run : runs) total += run.result->size();
  out.reserve(total);
  for (DocRun& run : runs) {
    for (query::Item& item : *run.result) out.push_back(std::move(item));
  }
  RecordRun(serving, Status::OK(), merged);
  *last_stats = merged;
  return out;
}

// Resolves a doc("uri") scope against the catalog: exact id match first.
// The paper's "URI ignored" semantics survive only around the canonical
// benchmark id — a single-document catalog binds any URI when that
// document came from legacy Load() (id == kDefaultDocumentId), and
// doc("auction.xml") binds a lone document of any id. Explicitly
// catalog-managed ids otherwise require an exact match, so dropped
// documents miss with a coded error instead of silently rebinding — also
// once the catalog is empty, whatever default store a caller retains.
StatusOr<std::shared_ptr<const query::StorageAdapter>> ResolveScopedStore(
    const store::DocumentCatalog& catalog, const query::QueryScope& scope) {
  std::shared_ptr<const store::DocumentCatalog::Snapshot> snap =
      catalog.snapshot();
  if (snap->docs.empty()) {
    return Status::NotFound("[empty-catalog] no documents loaded");
  }
  const store::DocumentCatalog::Entry* e = snap->Find(scope.doc_uri);
  if (e != nullptr) return e->store;
  if (snap->docs.size() == 1 &&
      (snap->docs[0].id == Engine::kDefaultDocumentId ||
       scope.doc_uri == Engine::kDefaultDocumentId)) {
    return snap->docs[0].store;
  }
  return Status::NotFound("[unknown-document] no document \"" +
                          scope.doc_uri + "\" in catalog");
}

}  // namespace

void QueryOutcomes::Record(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      ++ok;
      return;
    case StatusCode::kDeadlineExceeded:
      ++deadline_exceeded;
      return;
    case StatusCode::kCancelled:
      ++cancelled;
      return;
    case StatusCode::kResourceExhausted:
      ++resource_exhausted;
      return;
    case StatusCode::kInvalidQuery:
    case StatusCode::kParseError:
      ++invalid_query;
      return;
    default:
      ++other_error;
      return;
  }
}

char SystemLabel(SystemId id) {
  return static_cast<char>('A' + static_cast<int>(id));
}

std::string_view SystemArchitecture(SystemId id) {
  switch (id) {
    case SystemId::kA:
      return "relational, monolithic edge table, cost-based optimizer";
    case SystemId::kB:
      return "relational, fragmented path tables, cost-based optimizer";
    case SystemId::kC:
      return "relational, DTD-derived inlined schema, cost-based optimizer";
    case SystemId::kD:
      return "native main-memory store with structural summary";
    case SystemId::kE:
      return "native main-memory store, heuristic optimizer, no summary";
    case SystemId::kF:
      return "native main-memory store, nested-loop joins only";
    case SystemId::kG:
      return "embedded query processor, per-query load, copy semantics";
  }
  return "";
}

std::unique_ptr<Engine> Engine::Create(SystemId id) {
  query::EvaluatorOptions opts;
  bool reload = false;
  switch (id) {
    case SystemId::kA:
      // Edge store has no tag/path structures; cost-based optimizer.
      opts.use_id_index = true;
      opts.use_path_index = false;
      opts.hash_join = true;
      opts.lazy_let = true;
      opts.cache_invariant_paths = true;
      break;
    case SystemId::kB:
      // Fragmented store exposes path tables; cost-based optimizer.
      opts.use_id_index = true;
      opts.use_path_index = true;  // path tables ARE the path index
      opts.hash_join = true;
      opts.lazy_let = true;
      opts.cache_invariant_paths = true;
      break;
    case SystemId::kC:
      // Inlined schema: direct child slots, but no tag/path index.
      opts.use_id_index = true;
      opts.use_path_index = false;
      opts.hash_join = true;
      opts.lazy_let = true;
      opts.cache_invariant_paths = true;
      break;
    case SystemId::kD:
      // Native store with the full index set (structural summary).
      opts.use_id_index = true;
      opts.use_path_index = true;
      opts.hash_join = true;
      opts.lazy_let = true;
      opts.cache_invariant_paths = true;
      break;
    case SystemId::kE:
      // Heuristic optimizer: joins yes, but eager lets and no summary.
      opts.use_id_index = true;
      opts.use_path_index = false;
      opts.hash_join = true;
      opts.lazy_let = false;
      opts.cache_invariant_paths = true;
      break;
    case SystemId::kF:
      // Nested-loop-only executor: no hash or band joins, no fused
      // pipelines (hash_join gates all three).
      opts.use_id_index = false;
      opts.use_path_index = false;
      opts.hash_join = false;
      opts.lazy_let = false;
      opts.cache_invariant_paths = true;
      break;
    case SystemId::kG:
      // Embedded processor: no access structures, copies results, reloads
      // the document per query.
      opts.use_id_index = false;
      opts.use_path_index = false;
      opts.hash_join = false;
      opts.lazy_let = false;
      opts.cache_invariant_paths = false;
      opts.copy_results = true;
      reload = true;
      break;
  }
  return std::unique_ptr<Engine>(new Engine(id, opts, reload));
}

StatusOr<std::shared_ptr<query::StorageAdapter>> Engine::BuildStoreForSystem(
    SystemId id, std::string_view xml, const store::LoadOptions& options) {
  if (XMARK_FAULT_POINT("engine/load_store")) {
    return Status::ResourceExhausted(
        "fault injection: engine/load_store (store bulkload refused)");
  }
  switch (id) {
    case SystemId::kA: {
      XMARK_ASSIGN_OR_RETURN(auto store, store::EdgeStore::Load(xml, options));
      return std::shared_ptr<query::StorageAdapter>(std::move(store));
    }
    case SystemId::kB: {
      XMARK_ASSIGN_OR_RETURN(auto store,
                             store::FragmentedStore::Load(xml, options));
      return std::shared_ptr<query::StorageAdapter>(std::move(store));
    }
    case SystemId::kC: {
      XMARK_ASSIGN_OR_RETURN(
          auto store,
          store::InlinedStore::Load(xml, xml::kAuctionDtd, options));
      return std::shared_ptr<query::StorageAdapter>(std::move(store));
    }
    case SystemId::kD: {
      store::DomStore::Options dom_opts;
      dom_opts.build_tag_index = true;
      dom_opts.build_id_index = true;
      dom_opts.build_path_summary = true;
      XMARK_ASSIGN_OR_RETURN(auto store,
                             store::DomStore::Load(xml, dom_opts, options));
      return std::shared_ptr<query::StorageAdapter>(std::move(store));
    }
    case SystemId::kE: {
      store::DomStore::Options dom_opts;
      dom_opts.build_tag_index = false;
      dom_opts.build_id_index = true;
      dom_opts.build_path_summary = false;
      XMARK_ASSIGN_OR_RETURN(auto store,
                             store::DomStore::Load(xml, dom_opts, options));
      return std::shared_ptr<query::StorageAdapter>(std::move(store));
    }
    case SystemId::kF:
    case SystemId::kG: {
      store::DomStore::Options dom_opts;
      dom_opts.build_tag_index = false;
      dom_opts.build_id_index = false;
      dom_opts.build_path_summary = false;
      XMARK_ASSIGN_OR_RETURN(auto store,
                             store::DomStore::Load(xml, dom_opts, options));
      return std::shared_ptr<query::StorageAdapter>(std::move(store));
    }
  }
  return Status::Internal("unknown system");
}

store::DocumentCatalog::StoreBuilder Engine::MakeStoreBuilder() const {
  const SystemId id = id_;
  return [id](std::string_view xml, const store::LoadOptions& options) {
    return BuildStoreForSystem(id, xml, options);
  };
}

Status Engine::Load(std::string_view xml) {
  // Legacy single-document load: reset the catalog to exactly this
  // document (sessions created earlier keep the old one alive).
  auto catalog = std::make_shared<store::DocumentCatalog>();
  XMARK_RETURN_IF_ERROR(catalog->AddDocument(kDefaultDocumentId, xml,
                                             MakeStoreBuilder(),
                                             load_options_));
  catalog_ = std::move(catalog);
  store_ = catalog_->Find(kDefaultDocumentId);
  if (reload_per_query_) {
    retained_xml_ = std::make_shared<const std::string>(xml);
  }
  return Status::OK();
}

Status Engine::LoadDocument(std::string_view id, std::string_view xml) {
  std::vector<store::CorpusDocument> batch(1);
  batch[0].id = std::string(id);
  batch[0].xml = std::string(xml);
  return LoadCorpus(batch);
}

Status Engine::LoadCorpus(const std::vector<store::CorpusDocument>& docs) {
  if (docs.empty()) return Status::OK();
  if (reload_per_query_ && DocumentCount() + docs.size() > 1) {
    return Status::Unimplemented(
        "[multi-document-unsupported] embedded (reload-per-query) engines "
        "hold a single document");
  }
  // Governance spans the whole corpus load: one context covers every
  // document's bulkload, charged with the loaded store bytes.
  std::optional<query::ExecContext> ctx;
  store::IngestGovernance governance;
  const store::IngestGovernance* gov = nullptr;
  if (run_options_.engaged()) {
    ctx.emplace(run_options_);
    governance.check = [&ctx] { return ctx->CheckCoarse(); };
    governance.charge_bytes = [&ctx](size_t bytes) {
      ctx->memory_budget()->Charge(bytes);
    };
    gov = &governance;
  }
  Status status =
      catalog_->LoadCorpus(docs, MakeStoreBuilder(), load_options_, gov);
  if (!status.ok()) {
    RecordOutcome(serving_.get(), status);
    return status;
  }
  if (store_ == nullptr) {
    store_ = catalog_->snapshot()->docs.front().store;
  }
  if (reload_per_query_) {
    retained_xml_ = std::make_shared<const std::string>(docs.front().xml);
  }
  return Status::OK();
}

StatusOr<size_t> Engine::LoadCorpusFromDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::NotFound("[corpus-dir] cannot open \"" + dir +
                            "\": " + ec.message());
  }
  std::vector<std::filesystem::path> files;
  for (const auto& entry : it) {
    if (entry.is_regular_file() && entry.path().extension() == ".xml") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<store::CorpusDocument> docs;
  docs.reserve(files.size());
  for (const std::filesystem::path& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return Status::NotFound("[corpus-dir] cannot read \"" +
                              path.string() + "\"");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    store::CorpusDocument doc;
    doc.id = path.filename().string();
    doc.xml = std::move(buf).str();
    docs.push_back(std::move(doc));
  }
  XMARK_RETURN_IF_ERROR(LoadCorpus(docs));
  return docs.size();
}

std::vector<std::string> Engine::ListDocuments() const {
  return catalog_->ListDocuments();
}

Status Engine::DropDocument(std::string_view id) {
  XMARK_ASSIGN_OR_RETURN(std::shared_ptr<const query::StorageAdapter> dropped,
                         catalog_->Drop(id));
  serving_->plan_cache.EraseStore(dropped->store_uid());
  if (dropped == store_) {
    // The default-scope document went away; fall over to the first
    // remaining document (or unloaded when the catalog is empty).
    std::shared_ptr<const store::DocumentCatalog::Snapshot> snap =
        catalog_->snapshot();
    store_ = snap->docs.empty() ? nullptr : snap->docs.front().store;
  }
  return Status::OK();
}

size_t Engine::DocumentCount() const { return catalog_->size(); }

void Engine::DumpCatalogState(std::string* out) const {
  catalog_->DumpState(out);
}

StatusOr<PreparedQuery> Engine::Prepare(std::string_view query_text) const {
  if (store_ == nullptr) {
    return Status::NotFound("[empty-catalog] no documents loaded");
  }
  return CompileUncached(*store_, query_text);
}

StatusOr<PreparedQuery> Engine::PrepareCached(
    std::string_view query_text) const {
  if (store_ == nullptr) {
    return Status::NotFound("[empty-catalog] no documents loaded");
  }
  // A reload-per-query store has a fresh uid at every Execute, so cached
  // annotations could never be adopted: caching would only accumulate
  // dead entries.
  if (reload_per_query_) return CompileUncached(*store_, query_text);
  XMARK_ASSIGN_OR_RETURN(query::QueryScope scope,
                         ScopeForQuery(serving_.get(), query_text));
  std::shared_ptr<const query::StorageAdapter> target = store_;
  if (scope.kind == query::QueryScope::Kind::kDocument) {
    XMARK_ASSIGN_OR_RETURN(target,
                           ResolveScopedStore(*catalog_, scope));
  } else if (scope.kind == query::QueryScope::Kind::kCollection) {
    // Compile against the first document; the fan-out compiles per-
    // document entries under the same "collection" scope key at Execute.
    std::shared_ptr<const store::DocumentCatalog::Snapshot> snap =
        catalog_->snapshot();
    if (!snap->docs.empty()) target = snap->docs.front().store;
  }
  return PrepareThroughCache(*target, eval_options_, serving_.get(),
                             query_text, scope);
}

StatusOr<query::Sequence> Engine::Execute(const PreparedQuery& prepared,
                                          query::ExecContext* ctx) {
  if (reload_per_query_ && retained_xml_ != nullptr) {
    // Embedded processors load the document as part of running the query.
    // They hold one document, so every scope binds it — collection() over
    // a single-document corpus included.
    XMARK_ASSIGN_OR_RETURN(
        store_, BuildStoreForSystem(id_, *retained_xml_, load_options_));
  }
  if (store_ == nullptr &&
      prepared.scope.kind != query::QueryScope::Kind::kCollection) {
    return Status::NotFound("[empty-catalog] no documents loaded");
  }
  if (!reload_per_query_) {
    switch (prepared.scope.kind) {
      case query::QueryScope::Kind::kDefault:
        break;
      case query::QueryScope::Kind::kDocument: {
        auto target = ResolveScopedStore(*catalog_, prepared.scope);
        if (!target.ok()) {
          RecordOutcome(serving_.get(), target.status());
          return target.status();
        }
        return ExecuteQuery(**target, eval_options_, run_options_, ctx,
                            prepared, serving_.get(), &last_stats_);
      }
      case query::QueryScope::Kind::kCollection:
        return ExecuteCollection(*catalog_, eval_options_, run_options_,
                                 ctx, prepared, serving_.get(),
                                 &last_stats_);
    }
  }
  return ExecuteQuery(*store_, eval_options_, run_options_, ctx, prepared,
                      serving_.get(), &last_stats_);
}

StatusOr<query::Sequence> Engine::Run(std::string_view query_text) {
  auto prepared = Prepare(query_text);
  if (!prepared.ok()) {
    RecordOutcome(serving_.get(), prepared.status());
    return prepared.status();
  }
  return Execute(*prepared);
}

StatusOr<std::unique_ptr<EngineSession>> Engine::CreateSession() const {
  if (store_ == nullptr) return Status::Internal("engine not loaded");
  return std::unique_ptr<EngineSession>(new EngineSession(
      id_, eval_options_, load_options_, reload_per_query_, store_,
      catalog_, retained_xml_, serving_));
}

StatusOr<std::string> Engine::Explain(std::string_view query_text) const {
  if (store_ == nullptr) return Status::Internal("engine not loaded");
  XMARK_ASSIGN_OR_RETURN(PreparedQuery prepared, Prepare(query_text));
  // Explain renders the plan against the store the scope binds — a
  // collection() plan is shown against the first document (every fan-out
  // leg lowers the same way modulo per-document statistics).
  std::shared_ptr<const query::StorageAdapter> target = store_;
  if (!reload_per_query_) {
    if (prepared.scope.kind == query::QueryScope::Kind::kDocument) {
      XMARK_ASSIGN_OR_RETURN(
          target, ResolveScopedStore(*catalog_, prepared.scope));
    } else if (prepared.scope.kind ==
               query::QueryScope::Kind::kCollection) {
      std::shared_ptr<const store::DocumentCatalog::Snapshot> snap =
          catalog_->snapshot();
      if (!snap->docs.empty()) target = snap->docs.front().store;
    }
  }
  query::QueryPlan plan;
  query::BuildPlan(prepared.parsed, *target, eval_options_,
                   plan.mutable_annotations());
  std::string text = plan.Explain(prepared.parsed);
  text += "catalog: documents=" + std::to_string(catalog_->size()) + "\n";
  const query::PlanCacheStats cache = serving_->plan_cache.stats();
  text += "plan-cache: hits=" + std::to_string(cache.hits) +
          " misses=" + std::to_string(cache.misses) + "\n";
  const QueryOutcomes oc = outcomes();
  text += "outcomes: ok=" + std::to_string(oc.ok) +
          " deadline=" + std::to_string(oc.deadline_exceeded) +
          " cancelled=" + std::to_string(oc.cancelled) +
          " resource=" + std::to_string(oc.resource_exhausted) +
          " invalid=" + std::to_string(oc.invalid_query) +
          " other=" + std::to_string(oc.other_error) + "\n";
  return text;
}

query::EvalStats Engine::cumulative_stats() const {
  util::MutexLock lock(serving_->stats_mu);
  return serving_->cumulative_stats;
}

uint64_t Engine::queries_executed() const {
  util::MutexLock lock(serving_->stats_mu);
  return serving_->queries_executed;
}

QueryOutcomes Engine::outcomes() const {
  util::MutexLock lock(serving_->stats_mu);
  return serving_->outcomes;
}

size_t Engine::StorageBytes() const {
  std::shared_ptr<const store::DocumentCatalog::Snapshot> snap =
      catalog_->snapshot();
  if (snap->docs.empty()) {
    return store_ == nullptr ? 0 : store_->StorageBytes();
  }
  size_t total = 0;
  for (const store::DocumentCatalog::Entry& doc : snap->docs) {
    total += doc.store->StorageBytes();
  }
  return total;
}

size_t Engine::CatalogEntries() const {
  std::shared_ptr<const store::DocumentCatalog::Snapshot> snap =
      catalog_->snapshot();
  if (snap->docs.empty()) {
    return store_ == nullptr ? 0 : store_->CatalogEntries();
  }
  size_t total = 0;
  for (const store::DocumentCatalog::Entry& doc : snap->docs) {
    total += doc.store->CatalogEntries();
  }
  return total;
}

// ---------------------------------------------------------------------------
// EngineSession
// ---------------------------------------------------------------------------

StatusOr<PreparedQuery> EngineSession::Prepare(std::string_view query_text) {
  if (reload_per_query_) return CompileUncached(*store_, query_text);
  XMARK_ASSIGN_OR_RETURN(query::QueryScope scope,
                         ScopeForQuery(serving_.get(), query_text));
  std::shared_ptr<const query::StorageAdapter> target = store_;
  if (scope.kind == query::QueryScope::Kind::kDocument) {
    XMARK_ASSIGN_OR_RETURN(target,
                           ResolveScopedStore(*catalog_, scope));
  } else if (scope.kind == query::QueryScope::Kind::kCollection) {
    std::shared_ptr<const store::DocumentCatalog::Snapshot> snap =
        catalog_->snapshot();
    if (!snap->docs.empty()) target = snap->docs.front().store;
  }
  if (target == nullptr) {
    return Status::NotFound("[empty-catalog] no documents loaded");
  }
  return PrepareThroughCache(*target, eval_options_, serving_.get(),
                             query_text, scope);
}

StatusOr<query::Sequence> EngineSession::Execute(
    const PreparedQuery& prepared, query::ExecContext* ctx) {
  if (reload_per_query_ && retained_xml_ != nullptr) {
    // System G semantics, session-local: the reload happens into a private
    // store, so concurrent G sessions never share document state (matching
    // one embedded processor instance per client).
    XMARK_ASSIGN_OR_RETURN(
        std::shared_ptr<query::StorageAdapter> fresh,
        Engine::BuildStoreForSystem(id_, *retained_xml_, load_options_));
    std::shared_ptr<const query::StorageAdapter> session_store =
        std::move(fresh);
    return ExecuteQuery(*session_store, eval_options_, run_options_, ctx,
                        prepared, serving_.get(), &last_stats_);
  }
  switch (prepared.scope.kind) {
    case query::QueryScope::Kind::kDefault:
      break;
    case query::QueryScope::Kind::kDocument: {
      auto target = ResolveScopedStore(*catalog_, prepared.scope);
      if (!target.ok()) {
        RecordOutcome(serving_.get(), target.status());
        return target.status();
      }
      return ExecuteQuery(**target, eval_options_, run_options_, ctx,
                          prepared, serving_.get(), &last_stats_);
    }
    case query::QueryScope::Kind::kCollection:
      return ExecuteCollection(*catalog_, eval_options_, run_options_, ctx,
                               prepared, serving_.get(), &last_stats_);
  }
  if (store_ == nullptr) {
    return Status::NotFound("[empty-catalog] no documents loaded");
  }
  return ExecuteQuery(*store_, eval_options_, run_options_, ctx, prepared,
                      serving_.get(), &last_stats_);
}

Status EngineSession::LoadDocument(std::string_view id,
                                   std::string_view xml) {
  std::vector<store::CorpusDocument> batch(1);
  batch[0].id = std::string(id);
  batch[0].xml = std::string(xml);
  return LoadCorpus(batch);
}

Status EngineSession::LoadCorpus(
    const std::vector<store::CorpusDocument>& docs) {
  if (docs.empty()) return Status::OK();
  if (reload_per_query_) {
    return Status::Unimplemented(
        "[multi-document-unsupported] embedded (reload-per-query) engines "
        "hold a single document");
  }
  const SystemId id = id_;
  store::DocumentCatalog::StoreBuilder builder =
      [id](std::string_view xml, const store::LoadOptions& options) {
        return Engine::BuildStoreForSystem(id, xml, options);
      };
  std::optional<query::ExecContext> ctx;
  store::IngestGovernance governance;
  const store::IngestGovernance* gov = nullptr;
  if (run_options_.engaged()) {
    ctx.emplace(run_options_);
    governance.check = [&ctx] { return ctx->CheckCoarse(); };
    governance.charge_bytes = [&ctx](size_t bytes) {
      ctx->memory_budget()->Charge(bytes);
    };
    gov = &governance;
  }
  Status status = catalog_->LoadCorpus(docs, builder, load_options_, gov);
  if (!status.ok()) {
    RecordOutcome(serving_.get(), status);
    return status;
  }
  if (store_ == nullptr) {
    store_ = catalog_->snapshot()->docs.front().store;
  }
  return Status::OK();
}

std::vector<std::string> EngineSession::ListDocuments() const {
  return catalog_->ListDocuments();
}

Status EngineSession::DropDocument(std::string_view id) {
  if (reload_per_query_) {
    return Status::Unimplemented(
        "[multi-document-unsupported] embedded (reload-per-query) engines "
        "hold a single document");
  }
  // The session's default-scope store_ intentionally survives a drop of
  // its document: running and future default-scope queries keep the
  // snapshot they started from, while doc()/collection() routing sees the
  // updated catalog immediately.
  XMARK_ASSIGN_OR_RETURN(std::shared_ptr<const query::StorageAdapter> dropped,
                         catalog_->Drop(id));
  serving_->plan_cache.EraseStore(dropped->store_uid());
  return Status::OK();
}

size_t EngineSession::DocumentCount() const { return catalog_->size(); }

StatusOr<query::Sequence> EngineSession::Run(std::string_view query_text,
                                             query::ExecContext* ctx) {
  auto prepared = Prepare(query_text);
  if (!prepared.ok()) {
    RecordOutcome(serving_.get(), prepared.status());
    return prepared.status();
  }
  return Execute(*prepared, ctx);
}

}  // namespace xmark::bench

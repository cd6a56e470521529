#include "xmark/engine.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "query/optimizer.h"
#include "query/plan.h"
#include "store/dom_store.h"
#include "store/edge_store.h"
#include "store/fragmented_store.h"
#include "store/inlined_store.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace xmark::bench {

struct ServingState {
  explicit ServingState(SystemId system) : id(system) {}

  /// System G: an embedded processor that reloads its one document for
  /// every query run.
  bool reload_per_query() const { return id == SystemId::kG; }

  const SystemId id;
  store::DocumentCatalog catalog;
  query::PlanCache plan_cache;
  // Memoized document scopes by query text (scope is a pure function of
  // the text), so the plan-cache hit path never re-parses just to route.
  // It keeps scopes only, never a module: a text-keyed memo never shrinks,
  // and a module must die with the entries that hold it.
  util::Mutex scope_mu;
  std::unordered_map<std::string, query::QueryScope> scopes
      GUARDED_BY(scope_mu);
  util::Mutex stats_mu;
  // Merged under stats_mu at each query completion; read under stats_mu by
  // Engine::cumulative_stats() / queries_executed().
  query::EvalStats cumulative_stats GUARDED_BY(stats_mu);
  uint64_t queries_executed GUARDED_BY(stats_mu) = 0;
  // Every Prepare/Execute outcome, successes and governed failures alike.
  QueryOutcomes outcomes GUARDED_BY(stats_mu);
  // System G's document text, tied to the uid of the store the catalog
  // built from it, so a query routed to a since-dropped store never runs
  // on a successor's text. G's loads, and every drop, hold the mutex
  // across their catalog update.
  util::Mutex retained_mu;
  uint64_t retained_uid GUARDED_BY(retained_mu) = 0;
  std::shared_ptr<const std::string> retained_xml GUARDED_BY(retained_mu);
};

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

// The store factory: builds system `id`'s mapping of one document.
StatusOr<std::shared_ptr<query::StorageAdapter>> BuildStore(
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

using ModulePtr = std::shared_ptr<const query::ParsedQuery>;

StatusOr<ModulePtr> ParseModule(std::string_view query_text) {
  XMARK_ASSIGN_OR_RETURN(query::ParsedQuery parsed,
                         query::ParseQueryText(query_text));
  return std::make_shared<const query::ParsedQuery>(std::move(parsed));
}

// Document scope of `query_text`, memoized by text in the serving state
// (scope is a pure function of the text) so the plan-cache hit path never
// re-parses just to route. On a memo miss the module parsed for the scope
// is handed back in `*parsed`, so the compile that follows reuses it.
// Parse and scope-conflict errors are returned, not cached.
StatusOr<query::QueryScope> ScopeForQuery(ServingState* serving,
                                          std::string_view query_text,
                                          ModulePtr* parsed) {
  {
    util::MutexLock lock(serving->scope_mu);
    const auto it = serving->scopes.find(std::string(query_text));
    if (it != serving->scopes.end()) return it->second;
  }
  XMARK_ASSIGN_OR_RETURN(*parsed, ParseModule(query_text));
  XMARK_ASSIGN_OR_RETURN(query::QueryScope scope,
                         query::ExtractQueryScope(**parsed));
  util::MutexLock lock(serving->scope_mu);
  serving->scopes.emplace(std::string(query_text), scope);
  return scope;
}

// The store `scope` binds in `snap`. doc("uri") matches the id exactly.
// The paper's "URI ignored" semantics survive only around the canonical
// benchmark id: a one-document catalog binds any URI when that document
// is kDefaultDocumentId, and doc("auction.xml") binds a lone document of
// any id. Every other scope binds the lowest id: the default scope runs
// there, and collection() compiles and explains against its first leg.
StatusOr<std::shared_ptr<const query::StorageAdapter>> ResolveStore(
    const store::DocumentCatalog::Snapshot& snap,
    const query::QueryScope& scope) {
  if (snap.docs.empty()) {
    return Status::NotFound("[empty-catalog] no documents loaded");
  }
  if (scope.kind != query::QueryScope::Kind::kDocument) {
    return snap.docs.front().store;
  }
  const store::DocumentCatalog::Entry* e = snap.Find(scope.doc_uri);
  if (e != nullptr) return e->store;
  if (snap.docs.size() == 1 &&
      (snap.docs[0].id == Engine::kDefaultDocumentId ||
       scope.doc_uri == Engine::kDefaultDocumentId)) {
    return snap.docs[0].store;
  }
  return Status::NotFound("[unknown-document] no document \"" +
                          scope.doc_uri + "\" in catalog");
}

// Uncached compilation path: parse, then resolve the scope's store and
// the query's names against it, both in one catalog snapshot. `target`
// receives that store, so Explain plans against the store the names were
// resolved on.
StatusOr<PreparedQuery> CompileUncached(
    const store::DocumentCatalog& catalog, std::string_view query_text,
    std::shared_ptr<const query::StorageAdapter>* target) {
  PreparedQuery out;
  XMARK_ASSIGN_OR_RETURN(out.module, ParseModule(query_text));
  XMARK_ASSIGN_OR_RETURN(out.scope, query::ExtractQueryScope(*out.module));
  XMARK_ASSIGN_OR_RETURN(*target, ResolveStore(*catalog.snapshot(), out.scope));
  ResolveCatalogNames(**target, *out.module, &out.catalog_probes,
                      &out.name_tests);
  out.source_text = std::string(query_text);
  return out;
}

// Cached compilation path: catalog resolution and optimizer lowering of
// `module` against `store`, once per (query text, store uid, options
// fingerprint); every later request for the key shares the entry. A null
// `module` parses the text on a miss. An entry's annotations are keyed by
// the node addresses of the module it holds, so the result carries the
// entry's module, which is `module` unless another caller compiled the
// key first. `cache_hit` reports whether the compile was skipped.
StatusOr<PreparedQuery> CompileThroughCache(
    const query::StorageAdapter& store,
    const query::EvaluatorOptions& options, ServingState* serving,
    std::string_view query_text, ModulePtr module) {
  bool compiled = false;
  XMARK_ASSIGN_OR_RETURN(
      std::shared_ptr<const query::CachedQuery> entry,
      serving->plan_cache.GetOrCompile(
          query_text, store.store_uid(), query::OptionsFingerprint(options),
          [&]() -> StatusOr<query::CachedQuery> {
            compiled = true;
            query::CachedQuery out;
            if (module == nullptr) {
              XMARK_ASSIGN_OR_RETURN(module, ParseModule(query_text));
            }
            ResolveCatalogNames(store, *module, &out.catalog_probes,
                                &out.name_tests);
            auto annotations = std::make_shared<query::PlanAnnotations>();
            query::BuildPlan(*module, store, options, annotations.get());
            out.module = std::move(module);
            out.annotations = std::move(annotations);
            return out;
          }));
  PreparedQuery prepared;
  prepared.module = entry->module;
  prepared.annotations = entry->annotations;
  prepared.cache_hit = !compiled;
  prepared.catalog_probes = entry->catalog_probes;
  prepared.name_tests = entry->name_tests;
  return prepared;
}

// Buckets a failure outside an evaluator run (prepare, routing, store
// load) into the shared outcome counters so serving statistics cover
// rejected queries too.
void RecordOutcome(ServingState* serving, const Status& status) {
  util::MutexLock lock(serving->stats_mu);
  serving->outcomes.Record(status);
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

// One evaluator run against one store, on the calling thread: the
// building block shared by single-store Executes and the per-document legs
// of a collection() fan-out. A private Evaluator adopts `annotations` when
// they were lowered for this store and option set.
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
  out.result = evaluator.Run(module, std::move(annotations));
  out.stats = evaluator.stats();
  return out;
}

// collection() fan-out: one evaluator run per document of `snap`,
// concatenated in document-id order (the differential oracle: identical
// bytes to running each document alone and concatenating). Every leg runs
// the caller's module with its own store's annotations: from the leg's
// plan-cache entry when the caller's prepare was cached (key: the text
// and the leg's store uid), planned per run otherwise. Nothing is parsed
// per leg. Legs always run as one ForkJoin on the process-wide pool, and
// each compiles under its own shard lock only; each leg writes only its
// own slot, so the concatenation is deterministic for any interleaving.
// `ctx` spans every leg: a deadline or budget covers the whole corpus
// scan. The first failure in document-id order wins; the legs' statistics
// merge into one.
DocRun RunCollection(const store::DocumentCatalog::Snapshot& snap,
                     const query::EvaluatorOptions& options,
                     query::ExecContext* ctx, const PreparedQuery& prepared,
                     ServingState* serving) {
  const size_t n = snap.docs.size();
  std::vector<DocRun> runs(n);
  auto run_leg = [&](size_t i) {
    const query::StorageAdapter& store = *snap.docs[i].store;
    if (prepared.annotations == nullptr) {
      // Uncached prepare: names resolve and the plan lowers per leg and
      // per run, so compilation is never amortized.
      size_t probes = 0;
      size_t name_tests = 0;
      ResolveCatalogNames(store, *prepared.module, &probes, &name_tests);
      runs[i] = RunOnStore(store, options, ctx, *prepared.module, nullptr);
      return;
    }
    StatusOr<PreparedQuery> leg = CompileThroughCache(
        store, options, serving, prepared.source_text, prepared.module);
    if (!leg.ok()) {
      runs[i].result = leg.status();
      return;
    }
    runs[i] = RunOnStore(store, options, ctx, *leg->module, leg->annotations);
  };

  ForkJoin(ThreadPool::Shared(), n, run_leg);

  DocRun out;
  for (const DocRun& run : runs) out.stats.MergeFrom(run.stats);
  size_t total = 0;
  for (const DocRun& run : runs) {
    if (!run.result.ok()) {
      out.result = run.result.status();
      return out;
    }
    total += run.result->size();
  }
  query::Sequence concatenated;
  concatenated.reserve(total);
  for (DocRun& run : runs) {
    for (query::Item& item : *run.result) {
      concatenated.push_back(std::move(item));
    }
  }
  out.result = std::move(concatenated);
  return out;
}

// System G's per-query load: a private store rebuilt from the text of the
// document `resolved` was built from, so concurrent G clients never share
// document state (one embedded processor instance per client).
StatusOr<std::shared_ptr<const query::StorageAdapter>> ReloadForQuery(
    ServingState* serving, const query::StorageAdapter& resolved,
    const store::LoadOptions& options) {
  std::shared_ptr<const std::string> xml;
  {
    util::MutexLock lock(serving->retained_mu);
    if (serving->retained_uid == resolved.store_uid()) {
      xml = serving->retained_xml;
    }
  }
  if (xml == nullptr) {
    return Status::NotFound(
        "[unknown-document] document dropped while the query was routed");
  }
  XMARK_ASSIGN_OR_RETURN(std::shared_ptr<query::StorageAdapter> fresh,
                         BuildStore(serving->id, *xml, options));
  return std::shared_ptr<const query::StorageAdapter>(std::move(fresh));
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
  // The optimizer knobs; which indexes a system probes follows from what
  // BuildStore builds for it (StorageCapabilities).
  query::EvaluatorOptions opts;
  switch (id) {
    case SystemId::kA:
      // Edge store has no tag/path structures; cost-based optimizer.
      opts.hash_join = true;
      opts.lazy_let = true;
      opts.cache_invariant_paths = true;
      break;
    case SystemId::kB:
      // Fragmented store exposes path tables; cost-based optimizer.
      opts.hash_join = true;
      opts.lazy_let = true;
      opts.cache_invariant_paths = true;
      break;
    case SystemId::kC:
      // Inlined schema: direct child slots, but no tag/path index.
      opts.hash_join = true;
      opts.lazy_let = true;
      opts.cache_invariant_paths = true;
      break;
    case SystemId::kD:
      // Native store with the full index set (structural summary).
      opts.hash_join = true;
      opts.lazy_let = true;
      opts.cache_invariant_paths = true;
      break;
    case SystemId::kE:
      // Heuristic optimizer: joins yes, but eager lets and no summary.
      opts.hash_join = true;
      opts.lazy_let = false;
      opts.cache_invariant_paths = true;
      break;
    case SystemId::kF:
      // Nested-loop-only executor: no hash or band joins, no fused
      // pipelines (hash_join gates all three).
      opts.hash_join = false;
      opts.lazy_let = false;
      opts.cache_invariant_paths = true;
      break;
    case SystemId::kG:
      // Embedded processor: no access structures, copies results, reloads
      // the document per query.
      opts.hash_join = false;
      opts.lazy_let = false;
      opts.cache_invariant_paths = false;
      opts.copy_results = true;
      break;
  }
  return std::unique_ptr<Engine>(new Engine(EngineSession(
      std::make_shared<ServingState>(id), opts, store::LoadOptions())));
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

void Engine::DumpCatalogState(std::string* out) const {
  session_.serving_->catalog.DumpState(out);
}

StatusOr<std::unique_ptr<EngineSession>> Engine::CreateSession() const {
  return std::unique_ptr<EngineSession>(new EngineSession(
      session_.serving_, session_.eval_options_, session_.load_options_));
}

SystemId Engine::id() const { return session_.serving_->id; }

size_t Engine::StorageBytes() const {
  std::shared_ptr<const store::DocumentCatalog::Snapshot> snap =
      session_.serving_->catalog.snapshot();
  size_t total = 0;
  for (const store::DocumentCatalog::Entry& doc : snap->docs) {
    total += doc.store->StorageBytes();
  }
  return total;
}

size_t Engine::CatalogEntries() const {
  std::shared_ptr<const store::DocumentCatalog::Snapshot> snap =
      session_.serving_->catalog.snapshot();
  size_t total = 0;
  for (const store::DocumentCatalog::Entry& doc : snap->docs) {
    total += doc.store->CatalogEntries();
  }
  return total;
}

const query::StorageAdapter* Engine::store() const {
  std::shared_ptr<const store::DocumentCatalog::Snapshot> snap =
      session_.serving_->catalog.snapshot();
  return snap->docs.empty() ? nullptr : snap->docs.front().store.get();
}

size_t Engine::plan_cache_entries(uint64_t store_uid) const {
  return session_.serving_->plan_cache.EntriesForStore(store_uid);
}

query::EvalStats Engine::cumulative_stats() const {
  util::MutexLock lock(session_.serving_->stats_mu);
  return session_.serving_->cumulative_stats;
}

uint64_t Engine::queries_executed() const {
  util::MutexLock lock(session_.serving_->stats_mu);
  return session_.serving_->queries_executed;
}

// ---------------------------------------------------------------------------
// EngineSession
// ---------------------------------------------------------------------------

StatusOr<PreparedQuery> EngineSession::Prepare(
    std::string_view query_text) const {
  if (serving_->reload_per_query()) return PrepareUncached(query_text);
  ModulePtr parsed;
  XMARK_ASSIGN_OR_RETURN(query::QueryScope scope,
                         ScopeForQuery(serving_.get(), query_text, &parsed));
  XMARK_ASSIGN_OR_RETURN(std::shared_ptr<const query::StorageAdapter> target,
                         ResolveStore(*serving_->catalog.snapshot(), scope));
  XMARK_ASSIGN_OR_RETURN(
      PreparedQuery prepared,
      CompileThroughCache(*target, eval_options_, serving_.get(), query_text,
                          std::move(parsed)));
  prepared.scope = std::move(scope);
  prepared.source_text = std::string(query_text);
  return prepared;
}

StatusOr<PreparedQuery> EngineSession::PrepareUncached(
    std::string_view query_text) const {
  std::shared_ptr<const query::StorageAdapter> target;
  return CompileUncached(serving_->catalog, query_text, &target);
}

// Governance: `ctx` (optional) is a caller-held context (external
// cancellation); otherwise one is created here iff run_options_ sets a
// limit. On a governed failure the Evaluator — and with it the run's
// QueryPlan and NodeArena — is destroyed before returning, so a cancelled
// query frees its result memory and only the outcome counter survives.
StatusOr<query::Sequence> EngineSession::Execute(
    const PreparedQuery& prepared, query::ExecContext* ctx) {
  ServingState* serving = serving_.get();
  std::shared_ptr<const store::DocumentCatalog::Snapshot> snap =
      serving->catalog.snapshot();
  StatusOr<std::shared_ptr<const query::StorageAdapter>> target =
      ResolveStore(*snap, prepared.scope);
  if (target.ok() && serving->reload_per_query()) {
    target = ReloadForQuery(serving, **target, load_options_);
  }
  if (!target.ok()) {
    RecordOutcome(serving, target.status());
    return target.status();
  }
  std::optional<query::ExecContext> local_ctx;
  if (ctx == nullptr && run_options_.engaged()) {
    local_ctx.emplace(run_options_);
    ctx = &*local_ctx;
  }
  // System G holds one document, so its collection() runs on the reload.
  DocRun run;
  if (prepared.scope.kind == query::QueryScope::Kind::kCollection &&
      !serving->reload_per_query()) {
    run = RunCollection(*snap, eval_options_, ctx, prepared, serving);
  } else {
    run = RunOnStore(**target, eval_options_, ctx, *prepared.module,
                     prepared.annotations);
  }
  RecordRun(serving, run.result.status(), run.stats);
  if (run.result.ok()) last_stats_ = run.stats;
  return std::move(run.result);
}

StatusOr<query::Sequence> EngineSession::Run(std::string_view query_text,
                                             query::ExecContext* ctx) {
  return RunPrepared(Prepare(query_text), ctx);
}

StatusOr<query::Sequence> EngineSession::RunPrepared(
    const StatusOr<PreparedQuery>& prepared, query::ExecContext* ctx) {
  if (!prepared.ok()) {
    RecordOutcome(serving_.get(), prepared.status());
    return prepared.status();
  }
  return Execute(*prepared, ctx);
}

StatusOr<std::string> EngineSession::Explain(
    std::string_view query_text) const {
  std::shared_ptr<const query::StorageAdapter> target;
  XMARK_ASSIGN_OR_RETURN(
      PreparedQuery prepared,
      CompileUncached(serving_->catalog, query_text, &target));
  query::QueryPlan plan;
  query::BuildPlan(*prepared.module, *target, eval_options_,
                   plan.mutable_annotations());
  std::string text = plan.Explain(*prepared.module);
  text += "catalog: documents=" + std::to_string(DocumentCount()) + "\n";
  const query::PlanCacheStats cache = plan_cache_stats();
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

Status EngineSession::LoadDocument(std::string_view id,
                                   std::string_view xml) {
  const store::DocumentText doc{id, xml};
  return LoadTexts({&doc, 1});
}

Status EngineSession::LoadCorpus(
    const std::vector<store::CorpusDocument>& docs) {
  return LoadTexts(store::TextsOf(docs));
}

Status EngineSession::LoadTexts(std::span<const store::DocumentText> docs) {
  if (docs.empty()) return Status::OK();
  ServingState& serving = *serving_;
  if (!serving.reload_per_query()) return LoadIntoCatalog(docs);
  // System G holds one document and keeps its text for the per-query
  // reloads. The lock makes the size check, the load and the text one
  // step against loads and drops through other handles.
  util::MutexLock lock(serving.retained_mu);
  if (serving.catalog.size() + docs.size() > 1) {
    return Status::Unimplemented(
        "[multi-document-unsupported] embedded (reload-per-query) engines "
        "hold a single document");
  }
  XMARK_RETURN_IF_ERROR(LoadIntoCatalog(docs));
  serving.retained_uid = serving.catalog.Find(docs[0].id)->store_uid();
  serving.retained_xml = std::make_shared<const std::string>(docs[0].xml);
  return Status::OK();
}

Status EngineSession::LoadIntoCatalog(
    std::span<const store::DocumentText> docs) {
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
  const SystemId id = serving_->id;
  Status status = serving_->catalog.LoadTexts(
      docs,
      [id](std::string_view xml, const store::LoadOptions& options) {
        return BuildStore(id, xml, options);
      },
      load_options_, gov);
  if (!status.ok()) RecordOutcome(serving_.get(), status);
  return status;
}

std::vector<std::string> EngineSession::ListDocuments() const {
  return serving_->catalog.ListDocuments();
}

Status EngineSession::DropDocument(std::string_view id) {
  ServingState& serving = *serving_;
  util::MutexLock lock(serving.retained_mu);
  XMARK_ASSIGN_OR_RETURN(std::shared_ptr<const query::StorageAdapter> dropped,
                         serving.catalog.Drop(id));
  serving.plan_cache.EraseStore(dropped->store_uid());
  if (serving.retained_uid == dropped->store_uid()) {
    serving.retained_xml = nullptr;
  }
  return Status::OK();
}

size_t EngineSession::DocumentCount() const {
  return serving_->catalog.size();
}

query::PlanCacheStats EngineSession::plan_cache_stats() const {
  return serving_->plan_cache.stats();
}

QueryOutcomes EngineSession::outcomes() const {
  util::MutexLock lock(serving_->stats_mu);
  return serving_->outcomes;
}

}  // namespace xmark::bench

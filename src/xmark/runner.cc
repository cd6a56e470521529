#include "xmark/runner.h"

#include "gen/generator.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace xmark::bench {

BenchmarkRunner::BenchmarkRunner(double scale, uint64_t seed)
    : scale_(scale), seed_(seed) {
  gen::GeneratorOptions opts;
  opts.scale = scale;
  opts.seed = seed;
  document_ = gen::XmlGen(opts).GenerateToString();
}

void BenchmarkRunner::set_corpus_documents(size_t count) {
  corpus_.clear();
  corpus_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    store::CorpusDocument doc;
    doc.id = StringPrintf("corpus-%02zu.xml", i);
    if (i == 0) {
      doc.xml = document_;  // same (scale, seed) as the single-doc bench
    } else {
      gen::GeneratorOptions opts;
      opts.scale = scale_;
      opts.seed = seed_ + i;
      doc.xml = gen::XmlGen(opts).GenerateToString();
    }
    corpus_.push_back(std::move(doc));
  }
}

void BenchmarkRunner::UnloadSystem(SystemId system) {
  engines_.erase(system);
  load_info_.erase(system);
}

Status BenchmarkRunner::LoadSystem(SystemId system) {
  if (engines_.count(system)) return Status::OK();
  std::unique_ptr<Engine> engine = Engine::Create(system);
  engine->set_load_options(store::LoadOptions{load_threads_});
  PhaseTimer timer;
  if (corpus_.empty()) {
    XMARK_RETURN_IF_ERROR(
        engine->LoadDocument(Engine::kDefaultDocumentId, document_));
  } else {
    XMARK_RETURN_IF_ERROR(engine->LoadCorpus(corpus_));
  }
  LoadInfo info;
  info.bulkload_ms = timer.ElapsedWallMillis();
  info.database_bytes = engine->StorageBytes();
  info.catalog_entries = engine->CatalogEntries();
  load_info_[system] = info;
  engines_[system] = std::move(engine);
  return Status::OK();
}

StatusOr<QueryTiming> BenchmarkRunner::RunQuery(SystemId system,
                                                int query_number,
                                                int repetitions) {
  XMARK_RETURN_IF_ERROR(LoadSystem(system));
  Engine* engine = engines_.at(system).get();
  const QuerySpec& spec = GetQuery(query_number);

  QueryTiming best;
  best.query = query_number;
  best.system = system;
  bool first = true;
  double first_compile_ms = 0;
  double cached_compile_ms = 0;
  for (int rep = 0; rep < std::max(1, repetitions); ++rep) {
    QueryTiming timing;
    timing.query = query_number;
    timing.system = system;

    PhaseTimer compile_timer;
    PreparedQuery prepared;
    if (use_prepared_cache_) {
      XMARK_ASSIGN_OR_RETURN(prepared, engine->PrepareCached(spec.text));
    } else {
      XMARK_ASSIGN_OR_RETURN(prepared, engine->Prepare(spec.text));
    }
    timing.compile.wall_ms = compile_timer.ElapsedWallMillis();
    timing.compile.cpu_ms = compile_timer.ElapsedCpuMillis();
    if (rep == 0) {
      first_compile_ms = timing.compile.wall_ms;
    } else if (rep == 1 || timing.compile.wall_ms < cached_compile_ms) {
      cached_compile_ms = timing.compile.wall_ms;
    }

    PhaseTimer exec_timer;
    XMARK_ASSIGN_OR_RETURN(query::Sequence result,
                           engine->Execute(prepared));
    timing.execute.wall_ms = exec_timer.ElapsedWallMillis();
    timing.execute.cpu_ms = exec_timer.ElapsedCpuMillis();
    timing.result_items = result.size();

    if (first || timing.total_ms() < best.total_ms()) best = timing;
    first = false;
  }
  best.used_plan_cache = use_prepared_cache_;
  best.first_compile_ms = use_prepared_cache_ ? first_compile_ms : 0;
  best.cached_compile_ms = use_prepared_cache_ ? cached_compile_ms : 0;
  return best;
}

}  // namespace xmark::bench

// Pipeline-fusion pass: plan-time half of compiled pipelines.
//
// Layer contract: this file is part of the PLAN layer. FusePipelines runs
// after BuildPlan has lowered every node (it consults the FLWOR strategy
// and band-let annotations) and only ADDS CompiledPipeline entries to the
// PlanAnnotations; it never executes anything and never depends on the
// physical operator layer (query/exec.h includes this header, not the
// other way around — enforced by tools/check_layering.py). The dispatch
// encoding below is the shared vocabulary between the two layers: the
// pass computes a dispatch index at plan time, exec.cc keeps a static
// table of monomorphic loop instantiations indexed by it.

#ifndef XMARK_QUERY_PIPELINE_H_
#define XMARK_QUERY_PIPELINE_H_

#include <cstdint>

#include "query/ast.h"
#include "query/plan.h"
#include "query/storage.h"

namespace xmark::query {

// ---------------------------------------------------------------------------
// Dispatch encoding
// ---------------------------------------------------------------------------
// A pipeline's inner loop is monomorphic over (filter x compare op x
// operand type): the filter slot picks one template instantiation of the
// per-candidate test. The scan source is always the store's cursor, so
// store kind never enters the encoding.

/// Filter slots: 0 = none, 1 = contains, 2 = starts-with, then one slot
/// per (comparison op, string|numeric) pair for kEq..kGe.
inline constexpr uint32_t kPipelineFilterSlots =
    3 + 2 * 6;  // none/contains/starts-with + {eq,ne,lt,le,gt,ge} x {str,num}
/// Size of the instantiation table exec.cc builds (the filter slots plus
/// one padding entry).
inline constexpr uint32_t kPipelineDispatchSlots = 16;

/// Dispatch index for one proven pipeline shape. `op` and `numeric` are
/// meaningful only for FilterKind::kCompare; `op` must be one of kEq..kGe.
constexpr uint32_t PipelineDispatch(CompiledPipeline::FilterKind filter,
                                    BinaryOp op, bool numeric) {
  switch (filter) {
    case CompiledPipeline::FilterKind::kNone:
      return 0;
    case CompiledPipeline::FilterKind::kContains:
      return 1;
    case CompiledPipeline::FilterKind::kStartsWith:
      return 2;
    case CompiledPipeline::FilterKind::kCompare:
      return 3 +
             2 * (static_cast<uint32_t>(op) -
                  static_cast<uint32_t>(BinaryOp::kEq)) +
             (numeric ? 1 : 0);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// The fusion pass
// ---------------------------------------------------------------------------

/// Walks `root` in document order and adds a CompiledPipeline entry to
/// `plan->pipelines` for every FLWOR it can prove fusable (the Q1/Q5/Q6/
/// Q14 class — see CompiledPipeline in query/plan.h for the grammar).
/// Must run after LowerNode has annotated `root`'s FLWORs: the pass
/// refuses any FLWOR whose planned strategy is not the nested loop and any
/// domain registered as a band-join let. `query` supplies the prolog's
/// function declarations so a user function shadowing contains/
/// starts-with/count refuses fusion instead of changing semantics.
/// Pipeline ids are assigned densely in walk order (deterministic Explain
/// output). Callers gate on options.hash_join.
void FusePipelines(const ParsedQuery& query, const AstNode& root,
                   const StorageAdapter& store, PlanAnnotations* plan);

}  // namespace xmark::query

#endif  // XMARK_QUERY_PIPELINE_H_

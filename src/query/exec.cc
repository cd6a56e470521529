#include "query/exec.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "query/pipeline.h"
#include "util/fault_injection.h"
#include "util/string_util.h"

namespace xmark::query {

// ---------------------------------------------------------------------------
// NodeScan
// ---------------------------------------------------------------------------

void NodeScan::Open(const StorageAdapter* store, NodeHandle base, Axis axis,
                    ChildFilter filter, xml::NameId tag, EvalStats* stats) {
  stats_ = stats;
  descendant_ = axis == Axis::kDescendant;
  if (descendant_) {
    store->OpenDescendantCursor(base, filter, tag, &descendant_cursor_);
    ++stats->descendant_scans;
  } else {
    store->OpenChildCursor(base, filter, tag, &child_cursor_);
    ++stats->cursor_scans;
  }
}

size_t NodeScan::Fill(NodeHandle* out, size_t cap) {
  const size_t n = descendant_ ? descendant_cursor_.Fill(out, cap)
                               : child_cursor_.Fill(out, cap);
  stats_->nodes_visited += static_cast<int64_t>(n);
  // Every non-empty generic batch counts: virtual_batches is the
  // denominator the bench reports against pipeline_batches_fused.
  if (n > 0) ++stats_->virtual_batches;
  return n;
}

// ---------------------------------------------------------------------------
// ChildPathWalker
// ---------------------------------------------------------------------------

std::string_view ChildPathValue(const StorageAdapter* store,
                                const ChildPath& path, const ChildPathHit& hit,
                                std::string* scratch) {
  switch (path.terminal) {
    case ChildPath::Terminal::kAttribute:
      return hit.attribute;
    case ChildPath::Terminal::kText:
      return store->TextView(hit.node);
    case ChildPath::Terminal::kNodes:
      break;
  }
  // ItemStringView's node branch. Name steps select elements; an empty
  // chain selects its start node, which need not be one.
  if (path.steps.empty() && !store->IsElement(hit.node)) {
    return store->TextView(hit.node);
  }
  scratch->clear();
  store->AppendStringValue(hit.node, scratch);
  return *scratch;
}

bool CompareResult(int cmp, BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return cmp == 0;
    case BinaryOp::kNe:
      return cmp != 0;
    case BinaryOp::kLt:
      return cmp < 0;
    case BinaryOp::kLe:
      return cmp <= 0;
    case BinaryOp::kGt:
      return cmp > 0;
    case BinaryOp::kGe:
      return cmp >= 0;
    default:
      return false;
  }
}

void ChildPathWalker::Open(size_t depth, NodeHandle parent,
                           ChildCursor* cursor) const {
  if (depth == path_.steps.size()) {
    store_->OpenChildCursor(parent, ChildFilter::kText, xml::kInvalidName,
                            cursor);
  } else {
    store_->OpenChildCursor(parent, ChildFilter::kTag, path_.steps[depth],
                            cursor);
  }
  ++stats_->cursor_scans;
}

// ---------------------------------------------------------------------------
// PipelineExec
// ---------------------------------------------------------------------------
//
// The executor half of compiled pipelines. The plan-time pass
// (query/pipeline.cc) proved the FLWOR equivalent to scan → [id filter] →
// [where predicate] → emit over child chains, so everything here is
// written against that grammar only — and every semantic choice below
// replicates the generic evaluator exactly:
//   - filter and tail chains are walked by the child-path kernel
//     (ChildPathWalker), and their values read through ChildPathValue, the
//     evaluator's own view of a selected item;
//   - the fused comparison is the evaluator's untyped general comparison:
//     existential over all predicate-path matches, numeric when the
//     literal is a number (ParseDouble failure → that pair is false),
//     lexicographic string compare otherwise;
//   - contains/starts-with consume only the FIRST predicate-path match
//     (arg_view takes seq.front(); an empty result is the empty string);
//   - the prefix walk enumerates child levels in cursor order, which
//     equals the generic level-by-level batch order (child steps expand
//     each node's matches contiguously, so last-level concatenation IS the
//     DFS order the kernel walks).

namespace {

// Per-drain state: the pipeline, the store, the element string-value
// scratch buffer and the walkers of the filter and tail chains. The
// walks' scan counters land in `stats`, which nothing reads: the fused
// drain reports its batches.
struct PipeCtx {
  PipeCtx(const CompiledPipeline* p, const StorageAdapter* s)
      : pipe(p),
        store(s),
        filter(s, p->filter_path, &stats, nullptr),
        tail(s, p->tail, &stats, nullptr) {}
  const CompiledPipeline* pipe;
  const StorageAdapter* store;
  std::string scratch;
  EvalStats stats;
  ChildPathWalker filter;
  ChildPathWalker tail;
};

// First filter-operand value of `cand`, or the empty string when the chain
// selects nothing (the evaluator's arg_view of an empty sequence).
std::string_view FirstPathValue(PipeCtx& cx, NodeHandle cand) {
  std::string_view view{};
  cx.filter.Walk(cand, [&](const ChildPathHit& hit) {
    view = ChildPathValue(cx.store, cx.pipe->filter_path, hit, &cx.scratch);
    return true;
  });
  return view;
}

// --- Per-candidate filter policies (the monomorphic loop bodies) --------

struct AlwaysMatch {
  static bool Match(PipeCtx&, NodeHandle) { return true; }
};

struct ContainsMatch {
  static bool Match(PipeCtx& cx, NodeHandle cand) {
    return Contains(FirstPathValue(cx, cand), cx.pipe->needle);
  }
};

struct StartsWithMatch {
  static bool Match(PipeCtx& cx, NodeHandle cand) {
    return StartsWith(FirstPathValue(cx, cand), cx.pipe->needle);
  }
};

// `<path> OP literal`, existential over every path match, with the
// evaluator's untyped coercion: numeric when the literal is a number
// (non-numeric path values make that pair false, never an error), string
// comparison otherwise.
template <BinaryOp OP, bool NUMERIC>
struct CompareMatch {
  static bool Match(PipeCtx& cx, NodeHandle cand) {
    return cx.filter.Walk(cand, [&](const ChildPathHit& hit) {
      const std::string_view view =
          ChildPathValue(cx.store, cx.pipe->filter_path, hit, &cx.scratch);
      int cmp;
      if constexpr (NUMERIC) {
        const std::optional<double> num = ParseDouble(view);
        if (!num.has_value()) return false;  // pair is false; keep going
        const double b = cx.pipe->cmp_number;
        cmp = (*num < b) ? -1 : (*num > b ? 1 : 0);
      } else {
        cmp = static_cast<int>(view.compare(cx.pipe->cmp_str));
      }
      return CompareResult(cmp, OP);
    });
  }
};

// --- Emission -----------------------------------------------------------

// One surviving binding's contribution to the result.
void EmitOne(PipeCtx& cx, NodeHandle cand, Sequence* out) {
  const CompiledPipeline& pipe = *cx.pipe;
  switch (pipe.emit) {
    case CompiledPipeline::Emit::kVar:
      out->emplace_back(NodeRef{cx.store, cand});
      return;
    case CompiledPipeline::Emit::kTailNodes: {
      // The tail chain's items in the generic path's order (see the order
      // note atop this section).
      const bool attribute =
          pipe.tail.terminal == ChildPath::Terminal::kAttribute;
      cx.tail.Walk(cand, [&](const ChildPathHit& hit) {
        if (attribute) {
          out->emplace_back(std::string(hit.attribute));
        } else {
          out->emplace_back(NodeRef{cx.store, hit.node});
        }
        return false;
      });
      return;
    }
    case CompiledPipeline::Emit::kCount: {
      int64_t count = 0;
      DescendantCursor cur;
      cx.store->OpenDescendantCursor(cand, ChildFilter::kTag, pipe.count_tag,
                                     &cur);
      constexpr size_t kBatch = 256;
      NodeHandle buf[kBatch];
      size_t n;
      while ((n = cur.Fill(buf, kBatch)) > 0) {
        count += static_cast<int64_t>(n);
      }
      out->emplace_back(static_cast<double>(count));
      return;
    }
  }
}

// The fused filter → emit loop over one batch of tag-matched candidates:
// one monomorphic instantiation per dispatch slot, selected once per run
// from the table below — no virtual call, no branch on filter kind, no
// intermediate Sequence.
using EmitBatchFn = void (*)(PipeCtx&, const NodeHandle*, size_t, Sequence*);

template <typename Policy>
void EmitBatch(PipeCtx& cx, const NodeHandle* batch, size_t n,
               Sequence* out) {
  for (size_t i = 0; i < n; ++i) {
    if (Policy::Match(cx, batch[i])) EmitOne(cx, batch[i], out);
  }
}

// Maps a filter slot of the dispatch word to its policy type. Slots 3+ are
// the (comparison op, string|numeric) grid laid out by PipelineDispatch.
template <uint32_t SLOT>
struct PipeFilterPolicy {
  static_assert(SLOT >= 3 && SLOT < kPipelineDispatchSlots);
  using Type = CompareMatch<
      static_cast<BinaryOp>(static_cast<uint32_t>(BinaryOp::kEq) +
                            (SLOT - 3) / 2),
      (SLOT - 3) % 2 == 1>;
};
template <>
struct PipeFilterPolicy<0> {
  using Type = AlwaysMatch;
};
template <>
struct PipeFilterPolicy<1> {
  using Type = ContainsMatch;
};
template <>
struct PipeFilterPolicy<2> {
  using Type = StartsWithMatch;
};

template <uint32_t... SLOT>
constexpr std::array<EmitBatchFn, kPipelineDispatchSlots> MakeEmitTable(
    std::integer_sequence<uint32_t, SLOT...>) {
  return {{&EmitBatch<typename PipeFilterPolicy<SLOT>::Type>...}};
}

// The plan-time dispatch table: pipeline.cc computed an index into this
// array when it proved the shape; Run picks the instantiation with one
// load. (Slot 15 is padding — PipelineDispatch never produces it.)
constexpr std::array<EmitBatchFn, kPipelineDispatchSlots> kEmitTable =
    MakeEmitTable(std::make_integer_sequence<uint32_t,
                                             kPipelineDispatchSlots>{});

// Flushes one candidate batch through the fused loop, with the same
// per-batch cooperation the generic drain has: the pipeline fault site,
// the governance check, the fused-batch accounting.
Status FlushFused(PipeCtx& cx, EmitBatchFn emit, const NodeHandle* buf,
                  size_t n, Sequence* out, ExecContext* ctx,
                  EvalStats* stats) {
  if (n == 0) return Status::OK();
  if (XMARK_FAULT_POINT("exec/pipeline_drain")) {
    return Status::ResourceExhausted("fault injection: exec/pipeline_drain");
  }
  ++stats->pipeline_batches_fused;
  stats->nodes_visited += static_cast<int64_t>(n);
  emit(cx, buf, n, out);
  if (ctx != nullptr) return ctx->Check();
  return Status::OK();
}

// Fused drain of an open descendant cursor.
Status DrainDescCursor(PipeCtx& cx, EmitBatchFn emit, DescendantCursor* cur,
                       Sequence* out, ExecContext* ctx, EvalStats* stats) {
  constexpr size_t kBatch = 256;
  NodeHandle buf[kBatch];
  size_t n;
  while ((n = cur->Fill(buf, kBatch)) > 0) {
    XMARK_RETURN_IF_ERROR(FlushFused(cx, emit, buf, n, out, ctx, stats));
  }
  return Status::OK();
}

}  // namespace

StatusOr<Sequence> PipelineExec::Run(const CompiledPipeline& pipe,
                                     const StorageAdapter* store,
                                     EvalStats* stats, ExecContext* ctx) {
  const EmitBatchFn emit = kEmitTable[pipe.dispatch % kPipelineDispatchSlots];
  PipeCtx cx(&pipe, store);
  Sequence out;

  // Resolve the prefix: a rooted path's first step tests the root element
  // itself (EvalPath's rooted semantics), later steps are child-name scans
  // drained level by level in batch order.
  std::vector<NodeHandle> level;
  std::vector<NodeHandle> next;
  if (!pipe.prefix.empty() && store->NameOf(store->Root()) == pipe.prefix[0]) {
    level.push_back(store->Root());
  }
  for (size_t d = 1; d < pipe.prefix.size() && !level.empty(); ++d) {
    next.clear();
    for (NodeHandle p : level) {
      ChildCursor cur;
      store->OpenChildCursor(p, ChildFilter::kTag, pipe.prefix[d], &cur);
      ++stats->cursor_scans;
      constexpr size_t kBatch = 64;
      NodeHandle buf[kBatch];
      size_t n;
      while ((n = cur.Fill(buf, kBatch)) > 0) {
        next.insert(next.end(), buf, buf + n);
        if (ctx != nullptr) XMARK_RETURN_IF_ERROR(ctx->Check());
      }
    }
    level.swap(next);
  }

  Status st = Status::OK();
  switch (pipe.scan) {
    case CompiledPipeline::Scan::kPrefixOnly: {
      // The bindings ARE the resolved prefix nodes.
      constexpr size_t kBatch = 256;
      for (size_t off = 0; st.ok() && off < level.size(); off += kBatch) {
        const size_t n = std::min(kBatch, level.size() - off);
        st = FlushFused(cx, emit, level.data() + off, n, &out, ctx, stats);
      }
      break;
    }
    case CompiledPipeline::Scan::kChildren: {
      std::vector<NodeHandle> cands;
      if (pipe.id_lookup) {
        // One ID-index probe answers the whole step (ApplyStep's id-literal
        // path): the probed node must carry the step's tag and sit under
        // one of the prefix nodes.
        ++stats->index_lookups;
        const NodeHandle hit = store->NodeById(pipe.id_value);
        if (hit != kInvalidHandle && store->NameOf(hit) == pipe.scan_tag) {
          const NodeHandle parent = store->Parent(hit);
          for (NodeHandle p : level) {
            if (p == parent) {
              cands.push_back(hit);
              break;
            }
          }
        }
      } else {
        for (NodeHandle p : level) {
          ChildCursor cur;
          store->OpenChildCursor(p, ChildFilter::kTag, pipe.scan_tag, &cur);
          ++stats->cursor_scans;
          constexpr size_t kBatch = 64;
          NodeHandle buf[kBatch];
          size_t n;
          while ((n = cur.Fill(buf, kBatch)) > 0) {
            for (size_t i = 0; i < n; ++i) {
              if (pipe.id_filter) {
                // The general comparison's semantics: a missing attribute
                // never matches; the literal compares as a string.
                const std::optional<std::string_view> attr =
                    store->AttributeView(buf[i], "id");
                if (!attr.has_value() || *attr != pipe.id_value) continue;
              }
              cands.push_back(buf[i]);
            }
            if (ctx != nullptr) {
              st = ctx->Check();
              if (!st.ok()) break;
            }
          }
          if (!st.ok()) break;
        }
      }
      constexpr size_t kBatch = 256;
      for (size_t off = 0; st.ok() && off < cands.size(); off += kBatch) {
        const size_t n = std::min(kBatch, cands.size() - off);
        st = FlushFused(cx, emit, cands.data() + off, n, &out, ctx, stats);
      }
      break;
    }
    case CompiledPipeline::Scan::kDescendants: {
      for (NodeHandle p : level) {
        DescendantCursor cur;
        store->OpenDescendantCursor(p, ChildFilter::kTag, pipe.scan_tag, &cur);
        ++stats->descendant_scans;
        st = DrainDescCursor(cx, emit, &cur, &out, ctx, stats);
        if (!st.ok()) break;
      }
      break;
    }
  }

  if (pipe.emit == CompiledPipeline::Emit::kCount) {
    // Each emitted count is one descendant cursor drain of its binding's
    // subtree.
    stats->descendant_scans += static_cast<int64_t>(out.size());
  }
  if (!st.ok()) return st;
  return out;
}

// ---------------------------------------------------------------------------
// HashJoinExec
// ---------------------------------------------------------------------------

Status HashJoinExec::Build(const HashJoinPlan& plan, size_t slot_count,
                           const EvalFn& eval, EvalStats* stats) {
  if (XMARK_FAULT_POINT("exec/hash_join_build")) {
    return Status::ResourceExhausted("fault injection: exec/hash_join_build");
  }
  Environment inner_env(slot_count);
  XMARK_ASSIGN_OR_RETURN(Sequence bindings,
                         eval(*plan.in_expr, inner_env, nullptr));
  bindings_ = std::move(bindings);
  for (size_t i = 0; i < bindings_.size(); ++i) {
    inner_env.Push(plan.var_slot, Sequence{bindings_[i]});
    XMARK_ASSIGN_OR_RETURN(Sequence keys,
                           eval(*plan.inner_key, inner_env, nullptr));
    inner_env.Pop();
    for (const Item& k : keys) {
      index_.emplace(ItemStringValue(k), i);
    }
  }
  ++stats->hash_joins_built;
  return Status::OK();
}

void HashJoinExec::Probe(std::string_view key,
                         std::vector<size_t>* rows) const {
  auto [begin, end] = index_.equal_range(key);
  for (auto m = begin; m != end; ++m) rows->push_back(m->second);
}

// ---------------------------------------------------------------------------
// BandJoinIndex
// ---------------------------------------------------------------------------

std::optional<double> BandNumericValue(const Item& item,
                                       std::string* scratch) {
  if (item.is_number()) return item.number();
  if (item.is_boolean()) return item.boolean() ? 1.0 : 0.0;
  return ParseDouble(ItemStringView(item, scratch));
}

Status BandJoinIndex::Build(const BandJoinPlan& plan, size_t slot_count,
                            const EvalFn& eval, EvalStats* stats) {
  if (XMARK_FAULT_POINT("exec/band_join_build")) {
    return Status::ResourceExhausted("fault injection: exec/band_join_build");
  }
  valid_ = false;
  keys_.clear();
  Environment inner_env(slot_count);
  XMARK_ASSIGN_OR_RETURN(Sequence domain,
                         eval(*plan.domain, inner_env, nullptr));
  raw_domain_size_ = domain.size();
  keys_.reserve(domain.size());
  std::string scratch;
  for (const Item& binding : domain) {
    inner_env.Push(plan.var_slot, Sequence{binding});
    auto value = eval(*plan.inner_expr, inner_env, nullptr);
    inner_env.Pop();
    if (!value.ok()) return Status::OK();  // invalid: nested-loop fallback
    if (value->empty()) continue;  // empty inner side never matches
    const auto num = BandNumericValue(value->front(), &scratch);
    if (!num.has_value()) return Status::OK();  // non-numeric: fall back
    if (std::isnan(*num)) continue;  // NaN compares false against anything
    keys_.push_back(*num);
  }
  // Keys are plain doubles (NaNs already dropped): any sort orders them
  // identically.
  std::stable_sort(keys_.begin(), keys_.end());
  valid_ = true;
  ++stats->band_joins_built;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ConstructExec
// ---------------------------------------------------------------------------

namespace {

// Separator between adjacent atomics of one enclosed expression (XQuery
// construction rules). Static storage: safe as a node's text forever.
constexpr std::string_view kAtomicSeparator = " ";

}  // namespace

ConstructedNode* ConstructExec::NewTextNode(std::string_view interned_text) {
  ConstructedNode* node = arena_->AllocateNode();
  node->text = interned_text;
  return node;
}

const ConstructExec::Interned& ConstructExec::Intern(
    const ConstructPlan& plan) {
  if (plan.template_id >= interned_.size()) {
    interned_.resize(plan.template_id + 1);
  }
  std::unique_ptr<Interned>& slot = interned_[plan.template_id];
  if (slot == nullptr) {
    // First instantiation of this template this run: intern every constant
    // string once; all instantiations share the arena copies. (Views must
    // point into the arena, never into the ConstructPlan — results outlive
    // the plan.)
    slot = std::make_unique<Interned>();
    slot->elements.reserve(plan.elements.size());
    for (const ConstructPlan::Element& el : plan.elements) {
      Interned::Element& out = slot->elements.emplace_back();
      out.tag = arena_->InternText(el.tag);
      out.attrs.reserve(el.attrs.size());
      for (const ConstructPlan::Attr& attr : el.attrs) {
        out.attrs.push_back({arena_->InternText(attr.name),
                             arena_->InternText(attr.const_value)});
      }
    }
    slot->texts.reserve(plan.const_texts.size());
    for (const std::string& text : plan.const_texts) {
      slot->texts.push_back(arena_->InternText(text));
    }
  }
  return *slot;
}

StatusOr<ConstructedNode*> ConstructExec::BuildElement(
    const ConstructPlan& plan, size_t element_index, const Interned& interned,
    Environment& env, const Focus* focus, const EvalFn& eval,
    bool copy_results) {
  const ConstructPlan::Element& el = plan.elements[element_index];
  const Interned::Element& shell = interned.elements[element_index];
  if (XMARK_FAULT_POINT("exec/construct")) {
    return Status::ResourceExhausted("fault injection: exec/construct");
  }
  ConstructedNode* node = arena_->AllocateNode();
  node->tag = shell.tag;

  if (!el.attrs.empty()) node->attributes.reserve(el.attrs.size());
  for (size_t a = 0; a < el.attrs.size(); ++a) {
    const AttrConstructor* src = el.attrs[a].src;
    if (src == nullptr) {
      node->attributes.push_back(shell.attrs[a]);
      continue;
    }
    const size_t base = attr_scratch_.size();
    for (const AttrPart& part : src->parts) {
      if (part.expr == nullptr) {
        attr_scratch_ += part.text;
        continue;
      }
      XMARK_ASSIGN_OR_RETURN(Sequence items, eval(*part.expr, env, focus));
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) attr_scratch_ += ' ';
        attr_scratch_ += ItemStringView(items[i], &scratch_);
      }
    }
    node->attributes.push_back(
        {shell.attrs[a].name,
         arena_->InternText(std::string_view(attr_scratch_).substr(base))});
    attr_scratch_.resize(base);
  }

  arena_->ReserveChildren(node, el.children.size());
  for (const ConstructPlan::Child& child : el.children) {
    switch (child.kind) {
      case ConstructPlan::Child::Kind::kConstText:
        arena_->AppendChild(node, NewTextNode(interned.texts[child.index]));
        break;
      case ConstructPlan::Child::Kind::kElement: {
        XMARK_ASSIGN_OR_RETURN(
            ConstructedNode * nested,
            BuildElement(plan, child.index, interned, env, focus, eval,
                         copy_results));
        arena_->AppendChild(node, nested);
        break;
      }
      case ConstructPlan::Child::Kind::kHole: {
        XMARK_ASSIGN_OR_RETURN(Sequence items,
                               eval(*child.expr, env, focus));
        // Reserve for the hole's actual cardinality (plus the remaining
        // static slots): the pool's deallocate is a no-op, so every
        // outgrown intermediate buffer would stay dead in the arena.
        arena_->ReserveChildren(
            node, items.size() + (el.children.size() - 1 -
                                  static_cast<size_t>(&child -
                                                      el.children.data())));
        bool prev_atomic = false;
        for (Item& item : items) {
          if (item.is_atomic()) {
            // Adjacent atomics from one enclosed expression merge into
            // space-separated text nodes (XQuery construction rules); the
            // text bytes land in the arena's shared buffer instead of
            // a std::string per node.
            if (prev_atomic) {
              arena_->AppendChild(node, NewTextNode(kAtomicSeparator));
            }
            const std::string_view text = ItemStringView(item, &scratch_);
            arena_->AppendChild(node, NewTextNode(arena_->InternText(text)));
            prev_atomic = true;
            continue;
          }
          prev_atomic = false;
          if (item.is_node() && copy_results) {
            arena_->AppendChild(node, DeepCopyNode(item.node(), *arena_));
          } else {
            // A stored node, or a constructed tree such as Q10's {$p}
            // personne items.
            arena_->AppendChild(node, std::move(item));
          }
        }
        break;
      }
    }
  }
  return node;
}

StatusOr<Item> ConstructExec::Instantiate(const ConstructPlan& plan,
                                          Environment& env,
                                          const Focus* focus,
                                          const EvalFn& eval,
                                          bool copy_results) {
  const Interned& interned = Intern(plan);
  XMARK_ASSIGN_OR_RETURN(
      ConstructedNode * root,
      BuildElement(plan, 0, interned, env, focus, eval, copy_results));
  return Item(ConstructedPtr(arena_, root));
}

int64_t BandJoinIndex::ProbeCount(double probe, BinaryOp op) const {
  if (std::isnan(probe)) return 0;
  const auto lower =
      std::lower_bound(keys_.begin(), keys_.end(), probe) - keys_.begin();
  const auto upper =
      std::upper_bound(keys_.begin(), keys_.end(), probe) - keys_.begin();
  const auto n = static_cast<int64_t>(keys_.size());
  switch (op) {
    case BinaryOp::kGt:  // probe > key: keys strictly below the probe
      return lower;
    case BinaryOp::kGe:
      return upper;
    case BinaryOp::kLt:  // probe < key: keys strictly above the probe
      return n - upper;
    case BinaryOp::kLe:
      return n - lower;
    default:
      return 0;
  }
}

}  // namespace xmark::query

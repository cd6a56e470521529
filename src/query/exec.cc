#include "query/exec.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/fault_injection.h"
#include "util/string_util.h"

namespace xmark::query {

// ---------------------------------------------------------------------------
// NodeScan
// ---------------------------------------------------------------------------

void NodeScan::Open(const StorageAdapter* store, NodeHandle base, Axis axis,
                    ChildFilter filter, xml::NameId tag, EvalStats* stats) {
  stats_ = stats;
  descendant_ = axis == Axis::kDescendant || axis == Axis::kDescendantOrSelf;
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

bool ChainStartItems(const ChildPath& chain, Environment& env,
                     const Focus* focus, const Item** begin,
                     const Item** end) {
  if (chain.var_slot < 0) {
    if (focus == nullptr) return false;
    *begin = &focus->item;
    *end = *begin + 1;
  } else {
    const Environment::Binding* binding = env.Find(chain.var_slot);
    if (binding == nullptr || !binding->evaluated) return false;
    *begin = binding->value.begin();
    *end = binding->value.end();
  }
  for (const Item* item = *begin; item != *end; ++item) {
    if (item->is_constructed()) return false;
  }
  return true;
}

void ChildPathWalker::Open(size_t depth, NodeHandle parent,
                           ChildCursor* cursor) const {
  if (depth == path_.steps.size()) {
    store_->OpenChildCursor(parent, ChildFilter::kText, xml::kInvalidName,
                            cursor);
  } else {
    store_->OpenChildCursor(parent, ChildFilter::kTag, path_.steps[depth].tag,
                            cursor);
  }
  ++stats_->cursor_scans;
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
  if (plan.source->plan_slot >= interned_.size()) {
    interned_.resize(plan.source->plan_slot + 1);
  }
  std::unique_ptr<Interned>& slot = interned_[plan.source->plan_slot];
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
    for (size_t p = 0; p < src->parts.size(); ++p) {
      const AttrPart& part = src->parts[p];
      if (part.expr == nullptr) {
        attr_scratch_ += part.text;
        continue;
      }
      if (const ChildPath* chain = el.attrs[a].chains[p]) {
        // The selected values, space-separated like the part's items.
        bool first = true;
        XMARK_ASSIGN_OR_RETURN(
            const std::optional<bool> walked,
            WalkChain(store_, *chain, env, focus, stats_, ctx_,
                      [&](const ChildPathHit& hit) {
                        if (!first) attr_scratch_ += ' ';
                        first = false;
                        attr_scratch_ +=
                            ChildPathValue(store_, *chain, hit, &scratch_);
                        return false;
                      }));
        if (walked.has_value()) continue;
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
        const size_t remaining =
            el.children.size() - 1 -
            static_cast<size_t>(&child - el.children.data());
        if (child.chain != nullptr) {
          XMARK_ASSIGN_OR_RETURN(
              const bool walked,
              WalkHole(*child.chain, env, focus, node, remaining,
                       copy_results));
          if (walked) break;
        }
        XMARK_ASSIGN_OR_RETURN(Sequence items,
                               eval(*child.expr, env, focus));
        // Reserve for the hole's actual cardinality (plus the remaining
        // static slots): the pool's deallocate is a no-op, so every
        // outgrown intermediate buffer would stay dead in the arena.
        arena_->ReserveChildren(node, items.size() + remaining);
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

StatusOr<bool> ConstructExec::WalkHole(const ChildPath& chain,
                                       Environment& env, const Focus* focus,
                                       ConstructedNode* node, size_t remaining,
                                       bool copy_results) {
  hits_.clear();
  XMARK_ASSIGN_OR_RETURN(const std::optional<bool> walked,
                         WalkChain(store_, chain, env, focus, stats_, ctx_,
                                   [&](const ChildPathHit& hit) {
                                     hits_.push_back(hit);
                                     return false;
                                   }));
  if (!walked.has_value()) return false;
  if (chain.terminal == ChildPath::Terminal::kAttribute) {
    // Adjacent atomics of one enclosed expression: space-separated text.
    arena_->ReserveChildren(
        node, (hits_.empty() ? 0 : 2 * hits_.size() - 1) + remaining);
    for (size_t i = 0; i < hits_.size(); ++i) {
      if (i > 0) arena_->AppendChild(node, NewTextNode(kAtomicSeparator));
      arena_->AppendChild(
          node, NewTextNode(arena_->InternText(hits_[i].attribute)));
    }
    return true;
  }
  arena_->ReserveChildren(node, hits_.size() + remaining);
  for (const ChildPathHit& hit : hits_) {
    const NodeRef ref{store_, hit.node};
    if (copy_results) {
      arena_->AppendChild(node, DeepCopyNode(ref, *arena_));
    } else {
      arena_->AppendChild(node, Item(ref));
    }
  }
  return true;
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

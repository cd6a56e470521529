#include <string>
#include <unordered_map>
#include <vector>

#include "query/ast.h"

namespace xmark::query {
namespace {

class SlotResolver {
 public:
  explicit SlotResolver(std::vector<std::string>* names) : names_(names) {}

  int SlotOf(const std::string& name) {
    const auto it = slots_.find(name);
    if (it != slots_.end()) return it->second;
    const int slot = static_cast<int>(slots_.size());
    slots_.emplace(name, slot);
    names_->push_back(name);
    return slot;
  }

  void Visit(AstNode& node) {
    if (node.kind == AstKind::kVarRef) {
      node.var_slot = SlotOf(node.str_value);
    }
    if (node.start) Visit(*node.start);
    for (Step& s : node.steps) {
      for (AstPtr& p : s.predicates) Visit(*p);
    }
    for (ForLetClause& c : node.clauses) {
      c.var_slot = SlotOf(c.var);
      if (c.expr) Visit(*c.expr);
    }
    if (node.where) Visit(*node.where);
    for (OrderSpec& o : node.order_by) Visit(*o.key);
    if (node.ret) Visit(*node.ret);
    for (AstPtr& a : node.args) Visit(*a);
    for (AttrConstructor& attr : node.attrs) {
      for (AttrPart& part : attr.parts) {
        if (part.expr) Visit(*part.expr);
      }
    }
    for (AstPtr& c : node.content) Visit(*c);
  }

 private:
  std::unordered_map<std::string, int> slots_;
  std::vector<std::string>* names_;
};

}  // namespace

void ResolveVariableSlots(ParsedQuery& query) {
  query.var_names.clear();
  SlotResolver resolver(&query.var_names);
  for (FunctionDecl& f : query.functions) {
    f.param_slots.clear();
    for (const std::string& p : f.params) {
      f.param_slots.push_back(resolver.SlotOf(p));
    }
    if (f.body) resolver.Visit(*f.body);
  }
  if (query.body) resolver.Visit(*query.body);
  query.slots_resolved = true;
}

}  // namespace xmark::query

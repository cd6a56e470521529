#ifndef XMARK_STORE_BULKLOAD_H_
#define XMARK_STORE_BULKLOAD_H_

// Pieces every store's Load shares: the parallel passes (a load runs
// each one as a ForkJoin on the shared pool, at most
// LoadOptions::EffectiveThreads() wide and inline at one thread) and the
// reads of the parsed document's attribute columns that the mappings
// index.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "store/load_options.h"
#include "util/thread_pool.h"
#include "xml/dom.h"

namespace xmark::store {

/// First attribute row of `n`, or the row count when it has none — the
/// owner-row lookup the relational mappings store per node.
inline uint32_t FirstAttributeRow(const xml::Document& doc, xml::NodeId n) {
  const uint32_t begin = doc.attribute_begin(n);
  return begin < doc.attribute_begin(n + 1)
             ? begin
             : static_cast<uint32_t>(doc.num_attributes());
}

/// (value, owner) of every `id_attr` attribute, in document order and
/// sized exactly.
template <typename Handle>
std::vector<std::pair<std::string, Handle>> CollectIdValues(
    const xml::Document& doc, xml::NameId id_attr) {
  std::vector<std::pair<std::string, Handle>> out;
  if (id_attr == xml::kInvalidName) return out;
  size_t count = 0;
  for (size_t a = 0; a < doc.num_attributes(); ++a) {
    count += doc.attribute_row(a).name == id_attr;
  }
  out.reserve(count);
  for (xml::NodeId n = 0; n < doc.num_nodes() && out.size() < count; ++n) {
    for (const xml::DomAttribute& attr : doc.attributes(n)) {
      if (attr.name == id_attr) {
        out.emplace_back(std::string(attr.value), static_cast<Handle>(n));
      }
    }
  }
  return out;
}

}  // namespace xmark::store

#endif  // XMARK_STORE_BULKLOAD_H_

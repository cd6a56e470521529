// Chunked parallel XML parse — the front end of the parallel bulkload
// pipeline (Table 1 of the paper makes bulkload time a first-class
// metric). The serial SAX+DOM pass is still most of every store's Load:
// at sf 0.05 on one thread, 66-70% of A's, 64-69% of B's, 63-65% of C's,
// 64-73% of D's and 71-76% of E's (4-vCPU Xeon container, gcc 12).
//
// No serial pass reads the whole input. Two phases:
//   1. Speculative chunks (Pan, Zhang and Chiu, "Simultaneous Transducers
//      for Data-Parallel XML Parsing", IPDPS 2008): chunk k >= 1 starts at
//      the first '<' followed by a name-start byte at or after its byte
//      target k * size / chunks. The chunks are SAX-parsed as one ForkJoin
//      on the shared pool, at most ParseOptions::threads wide, each by a
//      DomBuilder into a chunk-local Document (columns, attribute rows,
//      heap and name table). Every chunk but the first starts at a depth
//      it does not know (SaxFragment::inside): an end tag that closes
//      nothing it opened goes to its builder, which records the name and
//      the node count, and its top-level nodes record a marker for their
//      enclosing element.
//   2. A sequential seam walk over those records, not over the text,
//      checks each chunk's outer end tags against the elements open where
//      it starts (by spelling, so no name is interned out of order),
//      resolves the markers to ids and sets the subtree end of every
//      element that a later chunk closes. Then the chunk columns and heaps
//      are concatenated into columns sized without value-initialisation, a
//      second ForkJoin, so that write is the first to each page.
//
// Any doubt falls back to the serial Document::Parse, which then returns
// the document or the serial error text, line number included: a chunk
// that fails, an outer end tag whose name or depth does not match, a chunk
// k >= 1 that starts outside the document element, or nodes after the
// root closed. A byte target inside a comment, CDATA section, PI or
// DOCTYPE (which may hold "<a>") leaves the chunk before it unterminated,
// so that chunk fails. So does CDATA, or text that decodes to whitespace
// only, at a chunk's top level (see SaxFragment).
//
// Determinism: chunk starts depend only on the input bytes and the
// requested thread count (never on the pool's size), chunks are
// concatenated in chunk order, and local name tables merge in chunk order
// (which reproduces the serial first-occurrence interning order), so the
// resulting Document is identical to the serial parse — same preorder
// ids, same NameIds, same bytes — for any thread count.

#include <algorithm>
#include <memory>
#include <utility>

#include "util/thread_pool.h"
#include "xml/byte_class.h"
#include "xml/dom.h"

namespace xmark::xml {
namespace {

// Chunk starts: 0, then the first start tag at or after each byte target.
// Targets that find the same tag make one chunk; a search starts no
// earlier than the last tag found, so each byte is read at most once.
std::vector<size_t> ChunkStarts(std::string_view in, size_t chunks) {
  std::vector<size_t> starts{0};
  for (size_t k = 1; k < chunks; ++k) {
    size_t p = std::max(k * in.size() / chunks, starts.back());
    while ((p = in.find('<', p)) != std::string_view::npos &&
           (p + 1 == in.size() || !IsNameStartByte(in[p + 1]))) {
      ++p;
    }
    if (p == std::string_view::npos) break;
    if (p != starts.back()) starts.push_back(p);
  }
  return starts;
}

}  // namespace

/// Stitches chunk-local documents into one (friend of Document).
class ParallelDomParser {
 public:
  static StatusOr<Document> Parse(std::string_view input,
                                  const ParseOptions& options);
};

StatusOr<Document> Document::Parse(std::string_view input,
                                   const ParseOptions& options) {
  return ParallelDomParser::Parse(input, options);
}

StatusOr<Document> ParallelDomParser::Parse(std::string_view input,
                                            const ParseOptions& options) {
  const unsigned threads = options.threads;
  constexpr size_t kMinParallelBytes = 1 << 16;
  const auto serial = [&] {
    return Document::Parse(input, options.keep_whitespace);
  };
  if (threads <= 1 || input.size() < kMinParallelBytes) return serial();
  const std::vector<size_t> starts = ChunkStarts(input, threads * size_t{4});
  const size_t chunks = starts.size();
  if (chunks < 2) return serial();

  // Phase 1: parse every chunk concurrently into its own document.
  struct Chunk {
    Document doc;
    std::unique_ptr<DomBuilder> builder;
    Status status;
  };
  std::vector<Chunk> parts(chunks);
  ForkJoinShared(threads, chunks, [&](size_t k) {
    Chunk& part = parts[k];
    const size_t end = k + 1 < chunks ? starts[k + 1] : input.size();
    const std::string_view text = input.substr(starts[k], end - starts[k]);
    part.doc.Reserve(text.size());
    part.builder = std::make_unique<DomBuilder>(
        &part.doc, options.keep_whitespace, /*inside=*/k > 0);
    SaxFragment fragment;
    fragment.inside = k > 0;
    fragment.allow_open_end = true;
    part.status =
        SaxParser().ParseFragment(text, part.builder.get(), fragment);
  });
  for (const Chunk& part : parts) {
    if (!part.status.ok()) return serial();
  }

  // Phase 2a: sequential seam walk. `context` holds the elements open at
  // the seam, outermost first; outer_ids[k][j] is the id behind chunk k's
  // marker kOpenBase + j (innermost first).
  struct Open {
    NodeId id;
    std::string_view name;
  };
  std::vector<Open> context;
  std::vector<size_t> node_base(chunks + 1, 0);
  std::vector<size_t> attr_base(chunks + 1, 0);
  std::vector<size_t> heap_base(chunks + 1, 0);
  std::vector<std::vector<NodeId>> outer_ids(chunks);
  std::vector<std::pair<NodeId, NodeId>> seam_ends;  // (id, subtree end)
  for (size_t k = 0; k < chunks; ++k) {
    const Document& local = parts[k].doc;
    const DomBuilder& b = *parts[k].builder;
    const std::vector<DomBuilder::OuterEnd>& ends = b.outer_ends();
    node_base[k + 1] = node_base[k] + local.num_nodes();
    attr_base[k + 1] = attr_base[k] + local.num_attributes();
    heap_base[k + 1] = heap_base[k] + local.heap_.size();
    if ((k > 0 && context.empty()) || ends.size() > context.size()) {
      return serial();
    }
    for (auto it = context.rbegin(); it != context.rend(); ++it) {
      outer_ids[k].push_back(it->id);
    }
    for (size_t j = 0; j < ends.size(); ++j) {
      const Open& closed = context[context.size() - 1 - j];
      if (ends[j].name != closed.name) return serial();
      seam_ends.emplace_back(
          closed.id, static_cast<NodeId>(node_base[k] + ends[j].nodes));
    }
    context.resize(context.size() - ends.size());
    if (context.empty() && !ends.empty() &&
        local.num_nodes() > ends.back().nodes) {
      return serial();  // nodes after the root closed
    }
    for (const NodeId id : b.stack()) {
      if (id >= DomBuilder::kOpenBase) continue;
      context.push_back(
          Open{static_cast<NodeId>(node_base[k] + id), local.tag(id)});
    }
  }
  if (!context.empty()) return serial();

  // Phase 2b: ordered name-table merge, then the parallel concatenation
  // with id/offset/name fixups. Index 0 appends the heaps in chunk order;
  // index k + 1 writes chunk k's slice of every column.
  Document doc;
  std::vector<std::vector<NameId>> remap(chunks);
  for (size_t k = 0; k < chunks; ++k) {
    const NameTable& local = parts[k].doc.names_;
    remap[k].resize(local.size());
    for (NameId i = 0; i < local.size(); ++i) {
      remap[k][i] = doc.names_.Intern(local.Spelling(i));
    }
  }
  const size_t num_nodes = node_base[chunks];
  doc.tag_.resize(num_nodes);
  doc.parent_.resize(num_nodes);
  doc.subtree_end_.resize(num_nodes);
  doc.attr_begin_.resize(num_nodes + 1);
  doc.heap_begin_.resize(num_nodes + 1);
  doc.attrs_.resize(attr_base[chunks]);
  doc.heap_.reserve(heap_base[chunks]);
  ForkJoinShared(threads, chunks + 1, [&](size_t i) {
    if (i == 0) {
      for (const Chunk& part : parts) doc.heap_.append(part.doc.heap_);
      return;
    }
    const size_t k = i - 1;
    const Document& local = parts[k].doc;
    const std::vector<NameId>& names = remap[k];
    const NodeId nb = static_cast<NodeId>(node_base[k]);
    const uint32_t ab = static_cast<uint32_t>(attr_base[k]);
    const uint32_t hb = static_cast<uint32_t>(heap_base[k]);
    for (size_t n = 0; n < local.num_nodes(); ++n) {
      const size_t g = nb + n;
      const NameId tag = local.tag_[n];
      doc.tag_[g] = tag == kInvalidName ? tag : names[tag];
      const NodeId p = local.parent_[n];
      doc.parent_[g] = p == kInvalidNode ? p
                       : p >= DomBuilder::kOpenBase
                           ? outer_ids[k][p - DomBuilder::kOpenBase]
                           : p + nb;
      const NodeId end = local.subtree_end_[n];
      doc.subtree_end_[g] = end == kInvalidNode ? end : end + nb;
      doc.attr_begin_[g] = local.attr_begin_[n] + ab;
      doc.heap_begin_[g] = local.heap_begin_[n] + hb;
    }
    for (size_t r = 0; r < local.attrs_.size(); ++r) {
      const AttributeRow& row = local.attrs_[r];
      doc.attrs_[ab + r] =
          AttributeRow{names[row.name], row.offset + hb, row.length};
    }
  });
  doc.attr_begin_[num_nodes] = static_cast<uint32_t>(attr_base[chunks]);
  doc.heap_begin_[num_nodes] = static_cast<uint32_t>(heap_base[chunks]);
  for (const auto& [id, end] : seam_ends) doc.subtree_end_[id] = end;
  return doc;
}

}  // namespace xmark::xml

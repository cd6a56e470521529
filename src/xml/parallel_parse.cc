// Chunked parallel XML parse — the front end of the parallel bulkload
// pipeline (Table 1 of the paper makes bulkload time a first-class
// metric, and the serial SAX+DOM pass dominates every store's Load).
//
// Three phases:
//   1. A sequential structural pre-scan walks only the markup (no entity
//      decoding, no attribute parsing, no node construction) and picks
//      split points: start tags at shallow depth nearest to evenly spaced
//      byte targets, each recorded with its open-element context.
//   2. The chunks are SAX-parsed concurrently, each by a DomBuilder into
//      a chunk-local Document (columns, attribute rows, heap and name
//      table); elements opened before the chunk are represented by
//      markers resolved at stitch time.
//   3. A cheap sequential walk threads the chunk contexts together (the
//      ids behind the markers, the subtree ends of elements that close in
//      a later chunk), then the chunk columns and heaps are concatenated
//      into the final document in parallel with id/offset/name fixups.
//
// Determinism: chunk boundaries depend only on the input bytes, chunks
// are concatenated in chunk order, and local name tables merge in chunk
// order (which reproduces the serial first-occurrence interning order),
// so the resulting Document is identical to the serial parse — same
// preorder ids, same NameIds, same bytes — for any worker count.

#include <cctype>
#include <cstring>
#include <memory>
#include <utility>

#include "util/thread_pool.h"
#include "xml/dom.h"

namespace xmark::xml {
namespace {

struct ChunkBoundary {
  size_t offset = 0;
  std::vector<std::string> open_tags;  // outermost first
};

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || std::isdigit(static_cast<unsigned char>(c)) ||
         c == '-' || c == '.';
}

// Structural pre-scan: splits `in` into ~`chunks` ranges, each starting at
// a start tag whose enclosing depth is at most kMaxSplitDepth. Returns
// false when the markup cannot be classified safely (the caller falls back
// to the serial parser, which produces the real error message if the
// document is malformed).
bool ScanChunkBoundaries(std::string_view in, size_t chunks,
                         std::vector<ChunkBoundary>* out) {
  constexpr size_t kMaxSplitDepth = 4;
  out->clear();
  out->push_back(ChunkBoundary{});  // chunk 0: offset 0, no open elements
  std::vector<std::pair<size_t, size_t>> stack;  // (name offset, length)
  size_t next_target = in.size() / chunks;
  size_t pos = 0;
  while (pos < in.size()) {
    const void* lt = std::memchr(in.data() + pos, '<', in.size() - pos);
    if (lt == nullptr) break;
    pos = static_cast<size_t>(static_cast<const char*>(lt) - in.data());
    if (pos + 1 >= in.size()) return false;
    const char next = in[pos + 1];
    if (next == '/') {
      if (stack.empty()) return false;
      stack.pop_back();
      const size_t end = in.find('>', pos + 2);
      if (end == std::string_view::npos) return false;
      pos = end + 1;
      continue;
    }
    if (next == '!') {
      if (in.compare(pos, 4, "<!--") == 0) {
        const size_t end = in.find("-->", pos + 4);
        if (end == std::string_view::npos) return false;
        pos = end + 3;
        continue;
      }
      if (in.compare(pos, 9, "<![CDATA[") == 0) {
        const size_t end = in.find("]]>", pos + 9);
        if (end == std::string_view::npos) return false;
        pos = end + 3;
        continue;
      }
      if (in.compare(pos, 9, "<!DOCTYPE") == 0) {
        int depth = 0;
        size_t p = pos + 9;
        for (; p < in.size(); ++p) {
          if (in[p] == '[') ++depth;
          if (in[p] == ']') --depth;
          if (in[p] == '>' && depth <= 0) break;
        }
        if (p >= in.size()) return false;
        pos = p + 1;
        continue;
      }
      return false;
    }
    if (next == '?') {
      const size_t end = in.find("?>", pos + 2);
      if (end == std::string_view::npos) return false;
      pos = end + 2;
      continue;
    }
    if (!IsNameStartChar(next)) return false;
    // Start tag: name span, then scan to '>' skipping quoted values.
    const size_t name_start = pos + 1;
    size_t p = name_start;
    while (p < in.size() && IsNameChar(in[p])) ++p;
    const size_t name_len = p - name_start;
    bool self_closing = false;
    while (p < in.size()) {
      const char c = in[p];
      if (c == '"' || c == '\'') {
        const void* q = std::memchr(in.data() + p + 1, c, in.size() - p - 1);
        if (q == nullptr) return false;
        p = static_cast<size_t>(static_cast<const char*>(q) - in.data()) + 1;
        continue;
      }
      if (c == '>') {
        self_closing = p > name_start && in[p - 1] == '/';
        break;
      }
      ++p;
    }
    if (p >= in.size()) return false;
    if (pos >= next_target && pos > 0 && stack.size() <= kMaxSplitDepth) {
      ChunkBoundary b;
      b.offset = pos;
      b.open_tags.reserve(stack.size());
      for (const auto& [off, len] : stack) {
        b.open_tags.emplace_back(in.substr(off, len));
      }
      out->push_back(std::move(b));
      next_target = (out->size()) * in.size() / chunks;
      if (out->size() >= chunks) next_target = in.size();  // no more splits
    }
    if (!self_closing) stack.emplace_back(name_start, name_len);
    pos = p + 1;
  }
  return out->size() >= 2;
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
  ThreadPool* pool = options.pool;
  constexpr size_t kMinParallelBytes = 1 << 16;
  std::vector<ChunkBoundary> bounds;
  if (pool == nullptr || pool->worker_count() <= 1 ||
      input.size() < kMinParallelBytes ||
      !ScanChunkBoundaries(input, pool->worker_count() * size_t{4},
                           &bounds)) {
    return Document::Parse(input, options.keep_whitespace);
  }
  const size_t chunks = bounds.size();

  // Phase 2: parse every chunk concurrently into its own document.
  struct Chunk {
    Document doc;
    std::unique_ptr<DomBuilder> builder;
    Status status;
  };
  std::vector<Chunk> parts(chunks);
  for (size_t k = 0; k < chunks; ++k) {
    pool->Submit([&, k] {
      Chunk& part = parts[k];
      const size_t end =
          k + 1 < chunks ? bounds[k + 1].offset : input.size();
      const std::string_view text =
          input.substr(bounds[k].offset, end - bounds[k].offset);
      part.doc.Reserve(text.size());
      part.builder = std::make_unique<DomBuilder>(
          &part.doc, options.keep_whitespace, bounds[k].open_tags.size());
      SaxFragment fragment;
      fragment.open_tags = bounds[k].open_tags;
      fragment.allow_open_end = true;
      SaxParser parser;
      part.status = parser.ParseFragment(text, part.builder.get(), fragment);
    });
  }
  pool->Wait();
  for (const Chunk& part : parts) XMARK_RETURN_IF_ERROR(part.status);

  // Phase 3a: prefix sums and ordered name-table merge.
  Document doc;
  std::vector<size_t> node_base(chunks + 1, 0);
  std::vector<size_t> attr_base(chunks + 1, 0);
  std::vector<size_t> heap_base(chunks + 1, 0);
  for (size_t k = 0; k < chunks; ++k) {
    const Document& local = parts[k].doc;
    node_base[k + 1] = node_base[k] + local.num_nodes();
    attr_base[k + 1] = attr_base[k] + local.num_attributes();
    heap_base[k + 1] = heap_base[k] + local.heap_.size();
  }
  std::vector<std::vector<NameId>> remap(chunks);
  for (size_t k = 0; k < chunks; ++k) {
    const NameTable& local = parts[k].doc.names_;
    remap[k].resize(local.size());
    for (NameId i = 0; i < local.size(); ++i) {
      remap[k][i] = doc.names_.Intern(local.Spelling(i));
    }
  }

  // Phase 3b: sequential context walk. Tracks, across chunk seams, the
  // global id of the element open at each depth; resolves each chunk's
  // markers to those ids and records the subtree end of every element
  // that a later chunk closes.
  std::vector<NodeId> context;  // outermost first
  std::vector<std::vector<NodeId>> outer_ids(chunks);
  std::vector<std::pair<NodeId, NodeId>> seam_ends;  // (id, subtree end)
  for (size_t k = 0; k < chunks; ++k) {
    const DomBuilder& b = *parts[k].builder;
    const std::vector<NodeId>& open_end = b.open_end();
    // A chunk entered at depth 0 after earlier nodes holds a second
    // document element; the serial parser reports either malformation.
    if (context.size() != open_end.size() ||
        (context.empty() && node_base[k] > 0 &&
         parts[k].doc.num_nodes() > 0)) {
      return Document::Parse(input, options.keep_whitespace);
    }
    outer_ids[k] = context;
    size_t still_open = 0;
    while (still_open < b.stack().size() &&
           b.stack()[still_open] >= DomBuilder::kOpenBase) {
      ++still_open;
    }
    for (size_t d = still_open; d < open_end.size(); ++d) {
      seam_ends.emplace_back(
          context[d], static_cast<NodeId>(node_base[k] + open_end[d]));
    }
    context.resize(still_open);
    for (size_t s = still_open; s < b.stack().size(); ++s) {
      context.push_back(static_cast<NodeId>(node_base[k] + b.stack()[s]));
    }
  }
  if (!context.empty()) {
    return Status::ParseError("unclosed element at end of input");
  }
  const size_t num_nodes = node_base[chunks];
  if (num_nodes == 0) return Status::ParseError("document has no element");

  // Phase 3c: parallel concatenation with id/offset/name fixups; the
  // columns and heap are sized exactly once.
  doc.tag_.resize(num_nodes);
  doc.parent_.resize(num_nodes);
  doc.subtree_end_.resize(num_nodes);
  doc.attr_begin_.resize(num_nodes + 1);
  doc.heap_begin_.resize(num_nodes + 1);
  doc.attrs_.resize(attr_base[chunks]);
  doc.heap_.resize(heap_base[chunks]);
  for (size_t k = 0; k < chunks; ++k) {
    pool->Submit([&, k] {
      const Document& local = parts[k].doc;
      const std::vector<NameId>& names = remap[k];
      const NodeId nb = static_cast<NodeId>(node_base[k]);
      const uint32_t ab = static_cast<uint32_t>(attr_base[k]);
      const uint32_t hb = static_cast<uint32_t>(heap_base[k]);
      for (size_t i = 0; i < local.num_nodes(); ++i) {
        const size_t g = nb + i;
        const NameId tag = local.tag_[i];
        doc.tag_[g] = tag == kInvalidName ? tag : names[tag];
        const NodeId p = local.parent_[i];
        doc.parent_[g] = p == kInvalidNode ? p
                         : p >= DomBuilder::kOpenBase
                             ? outer_ids[k][p - DomBuilder::kOpenBase]
                             : p + nb;
        const NodeId end = local.subtree_end_[i];
        doc.subtree_end_[g] = end == kInvalidNode ? end : end + nb;
        doc.attr_begin_[g] = local.attr_begin_[i] + ab;
        doc.heap_begin_[g] = local.heap_begin_[i] + hb;
      }
      for (size_t i = 0; i < local.attrs_.size(); ++i) {
        const AttributeRow& row = local.attrs_[i];
        doc.attrs_[ab + i] =
            AttributeRow{names[row.name], row.offset + hb, row.length};
      }
      std::memcpy(doc.heap_.data() + hb, local.heap_.data(),
                  local.heap_.size());
    });
  }
  pool->Wait();
  doc.attr_begin_[num_nodes] = static_cast<uint32_t>(attr_base[chunks]);
  doc.heap_begin_[num_nodes] = static_cast<uint32_t>(heap_base[chunks]);
  for (const auto& [id, end] : seam_ends) doc.subtree_end_[id] = end;
  return doc;
}

}  // namespace xmark::xml

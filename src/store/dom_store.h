#ifndef XMARK_STORE_DOM_STORE_H_
#define XMARK_STORE_DOM_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/storage.h"
#include "store/load_options.h"
#include "util/status.h"
#include "util/string_util.h"
#include "xml/dom.h"

namespace xmark::store {

/// Native main-memory mapping: the document tree itself, optionally
/// augmented with access structures. This is the architecture of the
/// paper's systems D-G:
///   D — full index set (tag index, id index, structural summary);
///   E — id index only;
///   F — bare tree;
///   G — bare tree inside an embedded processor (copy semantics and
///       per-query loading are modeled at the engine layer).
class DomStore : public query::StorageAdapter {
 public:
  struct Options {
    bool build_tag_index = true;
    bool build_id_index = true;
    bool build_path_summary = true;
  };

  /// Parses `xml` and builds the selected indexes. More than one thread
  /// parses in parallel and builds the tag/id/summary indexes
  /// concurrently, with byte-identical results.
  static StatusOr<std::unique_ptr<DomStore>> Load(
      std::string_view xml, const Options& options,
      const LoadOptions& load_options = {});

  /// Canonical serialization of the document and every index, for the
  /// bulkload determinism test.
  void DumpState(std::string* out) const override;

  // StorageAdapter:
  std::string_view mapping_name() const override { return "native DOM"; }
  const xml::NameTable& names() const override { return doc_.names(); }
  query::NodeHandle Root() const override { return doc_.root(); }
  bool IsElement(query::NodeHandle n) const override {
    return doc_.IsElement(static_cast<xml::NodeId>(n));
  }
  xml::NameId NameOf(query::NodeHandle n) const override {
    return doc_.name(static_cast<xml::NodeId>(n));
  }
  query::NodeHandle Parent(query::NodeHandle n) const override {
    return AsHandle(doc_.parent(static_cast<xml::NodeId>(n)));
  }
  query::NodeHandle FirstChild(query::NodeHandle n) const override {
    return AsHandle(doc_.first_child(static_cast<xml::NodeId>(n)));
  }
  query::NodeHandle NextSibling(query::NodeHandle n) const override {
    return AsHandle(doc_.next_sibling(static_cast<xml::NodeId>(n)));
  }
  std::string_view TextView(query::NodeHandle n) const override {
    return doc_.text(static_cast<xml::NodeId>(n));
  }
  void AppendStringValue(query::NodeHandle n,
                         std::string* out) const override {
    // Preorder ids make the subtree a contiguous id range; one linear scan
    // collects every descendant text node without recursion.
    const xml::NodeId end = doc_.SubtreeEnd(static_cast<xml::NodeId>(n));
    for (xml::NodeId i = static_cast<xml::NodeId>(n); i < end; ++i) {
      if (!doc_.IsElement(i)) out->append(doc_.text(i));
    }
  }
  std::optional<std::string_view> AttributeView(
      query::NodeHandle n, std::string_view name) const override {
    return doc_.attribute(static_cast<xml::NodeId>(n), name);
  }
  std::vector<std::pair<std::string, std::string>> Attributes(
      query::NodeHandle n) const override;
  // Sibling walk over the document's subtree-end column: one 4-byte read
  // per hop, bounded by the parent's subtree end.
  void OpenChildCursor(query::NodeHandle parent, query::ChildFilter filter,
                       xml::NameId tag,
                       query::ChildCursor* cur) const override;
  size_t AdvanceChildCursor(query::ChildCursor* cur, query::NodeHandle* out,
                            size_t cap) const override;
  // Preorder ids make the subtree the id interval (n, SubtreeEnd(n)): a
  // tag-filtered scan slices the tag index when one was built, otherwise it
  // streams the dense node table across that interval.
  void OpenDescendantCursor(query::NodeHandle base, query::ChildFilter filter,
                            xml::NameId tag,
                            query::DescendantCursor* cur) const override;
  size_t AdvanceDescendantCursor(query::DescendantCursor* cur,
                                 query::NodeHandle* out,
                                 size_t cap) const override;
  // Both cursor modes (dense id interval, tag-index slice) iterate a
  // monotone [u0, u1) position space, so clamped copies partition cleanly.
  bool DescendantCursorPartitionable(
      const query::DescendantCursor& /*cur*/) const override {
    return true;
  }
  bool Before(query::NodeHandle a, query::NodeHandle b) const override {
    return a < b;
  }

  bool SupportsIdLookup() const override { return !id_index_.empty(); }
  query::NodeHandle NodeById(std::string_view id) const override;

  bool SupportsTagIndex() const override { return options_.build_tag_index; }
  const std::vector<query::NodeHandle>* NodesByTag(
      xml::NameId tag) const override;
  std::optional<std::vector<query::NodeHandle>> DescendantsByTag(
      query::NodeHandle n, xml::NameId tag) const override;

  bool SupportsPathIndex() const override {
    return options_.build_path_summary;
  }
  std::optional<std::vector<query::NodeHandle>> PathExtent(
      const std::vector<xml::NameId>& path) const override;
  std::optional<int64_t> PathCount(
      const std::vector<xml::NameId>& path) const override;

  query::StorageCapabilities Capabilities() const override {
    query::StorageCapabilities caps;
    caps.id_lookup = SupportsIdLookup();
    caps.tag_index = options_.build_tag_index;
    caps.path_index = options_.build_path_summary;
    caps.interval_descendants = true;  // dense preorder node table
    return caps;
  }

  size_t StorageBytes() const override;
  size_t CatalogEntries() const override;
  size_t NodeCount() const override { return doc_.num_nodes(); }

  /// Number of distinct root-to-node tag paths (DataGuide size).
  size_t SummaryPaths() const { return summary_.size(); }

  const xml::Document& document() const { return doc_; }

 private:
  // Structural summary (strong DataGuide): one entry per distinct
  // root-to-node tag path, with its extent in document order.
  struct SummaryNode {
    xml::NameId tag = xml::kInvalidName;
    std::unordered_map<xml::NameId, size_t> children;
    std::vector<query::NodeHandle> extent;
  };

  explicit DomStore(xml::Document doc, const Options& options)
      : doc_(std::move(doc)), options_(options) {}

  static query::NodeHandle AsHandle(xml::NodeId id) {
    return id == xml::kInvalidNode ? query::kInvalidHandle
                                   : static_cast<query::NodeHandle>(id);
  }

  // Builds the selected indexes; `pool` may be null (inline).
  void BuildIndexes(ThreadPool* pool);
  void BuildSummary();

  xml::Document doc_;
  Options options_;
  std::unordered_map<xml::NameId, std::vector<query::NodeHandle>> tag_index_;
  // Transparent hash/eq: NodeById probes with the caller's string_view.
  std::unordered_map<std::string, query::NodeHandle, TransparentStringHash,
                     std::equal_to<>>
      id_index_;
  std::vector<SummaryNode> summary_;  // [0] is the root path
};

}  // namespace xmark::store

#endif  // XMARK_STORE_DOM_STORE_H_

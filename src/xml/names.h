#ifndef XMARK_XML_NAMES_H_
#define XMARK_XML_NAMES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/string_util.h"

namespace xmark::xml {

/// Integer id for an interned element/attribute name.
using NameId = uint32_t;

inline constexpr NameId kInvalidName = 0xffffffffu;

/// Interning table mapping tag and attribute names to dense ids. All
/// navigation and index structures work on NameIds instead of strings.
class NameTable {
 public:
  /// Returns the id for `name`, interning it on first sight.
  NameId Intern(std::string_view name);

  /// Returns the id for `name` or kInvalidName when never interned.
  NameId Lookup(std::string_view name) const;

  /// Returns the spelling of `id`; id must be valid.
  const std::string& Spelling(NameId id) const { return spellings_[id]; }

  size_t size() const { return spellings_.size(); }

 private:
  // Transparent hash/eq: Lookup and Intern probe with the caller's
  // string_view directly — no per-probe std::string (every plan resolves
  // its tag and attribute names through here).
  std::unordered_map<std::string, NameId, TransparentStringHash,
                     std::equal_to<>>
      map_;
  std::vector<std::string> spellings_;
};

}  // namespace xmark::xml

#endif  // XMARK_XML_NAMES_H_

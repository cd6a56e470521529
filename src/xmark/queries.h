#ifndef XMARK_XMARK_QUERIES_H_
#define XMARK_XMARK_QUERIES_H_

#include <array>
#include <string_view>

namespace xmark::bench {

/// One of the twenty XMark benchmark queries (paper §6).
struct QuerySpec {
  int number;                  // 1..20
  std::string_view category;   // the §6 subsection heading
  std::string_view statement;  // the natural-language query statement
  std::string_view text;       // XQuery source
};

/// All twenty queries, in order. The texts follow the published query set,
/// adapted to this repository's XQuery subset and DTD (income is an
/// element under profile per the paper's Figure 1 — see xml::kAuctionDtd
/// in xml/dtd.h).
const std::array<QuerySpec, 20>& AllQueries();

/// Returns the query with the given 1-based number.
const QuerySpec& GetQuery(int number);

}  // namespace xmark::bench

#endif  // XMARK_XMARK_QUERIES_H_

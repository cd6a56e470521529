// Differential harness for the chunked parallel parse
// (xml/parallel_parse.cc) against the serial Document::Parse.
//
// The input is placed at the chunk byte targets of a well-formed
// document of at least 64 KiB — blocks of `<e a="1">t</e>` inside
// `<r>…</r>` — so every split lands on or beside fuzzed bytes: an
// unterminated comment, a stray end tag, a second root, a CDATA section
// at a chunk's top. A second document also ends with the input, after
// the root's end tag, where the serial parse accepts only whitespace,
// comments and PIs. Each document is parsed serially and at threads
// 2/4/8, and the harness aborts unless the full column dumps (or the
// status messages) are equal.
//
// Build: -DBUILD_FUZZERS=ON. With clang the binary is a real libFuzzer
// fuzzer; elsewhere fuzz/standalone_driver.cc turns it into a corpus
// regression runner (see that file).

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "xml/dom.h"

namespace {

constexpr size_t kBlocks = 5000;  // 14 bytes each: 70,000 bytes of blocks
constexpr unsigned kMaxThreads = 8;

// Every column the Document exposes, and its exact size.
std::string Dump(const xmark::xml::Document& doc) {
  std::string out = std::to_string(doc.num_nodes()) + " " +
                    std::to_string(doc.MemoryBytes()) + "\n";
  for (xmark::xml::NodeId n = 0; n <= doc.num_nodes(); ++n) {
    out += std::to_string(doc.heap_offset(n)) + " " +
           std::to_string(doc.attribute_begin(n));
    if (n < doc.num_nodes()) {
      out += " " + std::to_string(doc.name(n)) + " " +
             std::to_string(doc.parent(n)) + " " +
             std::to_string(doc.SubtreeEnd(n)) + " [" +
             std::string(doc.text(n)) + "]";
      for (const xmark::xml::DomAttribute& a : doc.attributes(n)) {
        out += " @" + std::to_string(a.name) + "=" + std::string(a.value);
      }
    }
    out += "\n";
  }
  for (xmark::xml::NameId i = 0; i < doc.names().size(); ++i) {
    out += doc.names().Spelling(i) + "\n";
  }
  return out;
}

std::string Result(const xmark::StatusOr<xmark::xml::Document>& parsed) {
  return parsed.ok() ? Dump(*parsed) : "error: " + parsed.status().message();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);
  if (input.size() > 4096) return 0;
  // One copy of the input ends at or just past each 8-thread chunk
  // target (which include the 2- and 4-thread ones), so every split meets
  // it at every width.
  const std::string block = "<e a=\"1\">t</e>";
  const size_t chunks = size_t{kMaxThreads} * 4;
  const size_t total = 3 + kBlocks * block.size() + 4 + (chunks - 1) * size;
  std::string doc = "<r>";
  doc.reserve(total);
  size_t next = 1;
  for (size_t b = 0; b < kBlocks; ++b) {
    while (next < chunks && doc.size() + size >= next * total / chunks) {
      doc.append(input);
      ++next;
    }
    doc += block;
  }
  while (next++ < chunks) doc.append(input);
  doc += "</r>";

  for (const bool input_after_root : {false, true}) {
    if (input_after_root) doc.append(input);
    const std::string serial = Result(xmark::xml::Document::Parse(doc));
    for (unsigned threads : {2u, 4u, kMaxThreads}) {
      xmark::xml::ParseOptions options;
      options.threads = threads;
      const std::string parallel =
          Result(xmark::xml::Document::Parse(doc, options));
      if (parallel != serial) {
        std::fprintf(stderr,
                     "threads=%u differs from the serial parse:\n%.300s\n"
                     "--- serial:\n%.300s\n",
                     threads, parallel.c_str(), serial.c_str());
        std::abort();
      }
    }
  }
  return 0;
}

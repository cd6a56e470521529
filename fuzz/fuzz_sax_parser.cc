// libFuzzer harness for the streaming XML parser (xml/sax_parser.h).
//
// The SAX layer is the outermost attack surface of the bulkload path:
// every byte of every document flows through its tokenizer, entity
// decoder and well-formedness checks before any store sees it. The
// harness drives both the whole-document and the fragment entry points
// (the parallel bulkload hands byte ranges cut at start tags to
// ParseFragment, so mid-token cuts must be handled, not assumed away).
//
// Build: -DBUILD_FUZZERS=ON. With clang the binary is a real libFuzzer
// fuzzer; elsewhere fuzz/standalone_driver.cc turns it into a corpus
// regression runner (see that file).

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "util/status.h"
#include "xml/sax_parser.h"

namespace {

// Touches every byte of every view the parser hands out, so a view into
// freed or out-of-bounds memory becomes an ASan fault instead of a
// silently wrong pointer. The checksum is kept (volatile) so the reads
// cannot be optimized away.
class TouchingHandler : public xmark::xml::SaxHandler {
 public:
  xmark::Status OnStartElement(
      std::string_view name,
      const std::vector<xmark::xml::SaxAttribute>& attributes) override {
    Touch(name);
    for (const auto& attr : attributes) {
      Touch(attr.name);
      Touch(attr.value);
    }
    ++depth_;
    // Adversarial inputs can nest arbitrarily deep; the DOM builder has
    // its own limits, so the harness just bounds its own walk.
    if (depth_ > 100000) {
      return xmark::Status::InvalidArgument("fuzz depth limit");
    }
    return xmark::Status::OK();
  }
  xmark::Status OnEndElement(std::string_view name) override {
    Touch(name);
    --depth_;
    return xmark::Status::OK();
  }
  xmark::Status OnCharacters(std::string_view text) override {
    Touch(text);
    return xmark::Status::OK();
  }
  xmark::Status OnComment(std::string_view text) override {
    Touch(text);
    return xmark::Status::OK();
  }
  xmark::Status OnProcessingInstruction(std::string_view target,
                                              std::string_view data) override {
    Touch(target);
    Touch(data);
    return xmark::Status::OK();
  }

 private:
  void Touch(std::string_view s) {
    uint32_t h = 2166136261u;
    for (char c : s) h = (h ^ static_cast<uint8_t>(c)) * 16777619u;
    sink_ = h;
  }

  volatile uint32_t sink_ = 0;
  int depth_ = 0;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);

  {
    xmark::xml::SaxParser parser;
    TouchingHandler handler;
    (void)parser.Parse(input, &handler);  // errors are expected, crashes not
  }
  {
    // Fragment mode: the input is treated as a byte range cut from a
    // larger document at an unknown depth, open end allowed — exactly
    // what the parallel bulkload's chunk workers after the first see.
    xmark::xml::SaxParser parser;
    TouchingHandler handler;
    xmark::xml::SaxFragment fragment;
    fragment.inside = true;
    fragment.allow_open_end = true;
    (void)parser.ParseFragment(input, &handler, fragment);
  }
  return 0;
}

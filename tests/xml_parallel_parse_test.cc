// The chunked parallel parse must be indistinguishable from the serial
// parser: same node table (ids, kinds, names, links), same attribute
// table, same text — for documents that use the full markup repertoire
// (comments, CDATA, PIs, entities, self-closing tags) at and around
// chunk boundaries.

#include <gtest/gtest.h>

#include <string>

#include "xml/dom.h"

namespace xmark::xml {
namespace {

// Canonical serialization of everything the Document exposes.
std::string Canon(const Document& doc) {
  std::string out;
  out += "nodes " + std::to_string(doc.num_nodes()) + "\n";
  for (NodeId n = 0; n < doc.num_nodes(); ++n) {
    out += std::to_string(n) + ": " +
           (doc.IsElement(n) ? "elem " + std::to_string(doc.name(n)) + "/" +
                                   doc.tag(n)
                             : "text") +
           " p=" + std::to_string(doc.parent(n)) +
           " fc=" + std::to_string(doc.first_child(n)) +
           " ns=" + std::to_string(doc.next_sibling(n)) +
           " end=" + std::to_string(doc.SubtreeEnd(n)) +
           " heap=" + std::to_string(doc.heap_offset(n)) +
           " attr=" + std::to_string(doc.attribute_begin(n)) + " [" +
           std::string(doc.text(n)) + "]";
    for (const DomAttribute& a : doc.attributes(n)) {
      out += " @" + std::to_string(a.name) + "=" + std::string(a.value);
    }
    out += "\n";
  }
  const NodeId close = static_cast<NodeId>(doc.num_nodes());
  out += "closing heap=" + std::to_string(doc.heap_offset(close)) +
         " attr=" + std::to_string(doc.attribute_begin(close)) + "\n";
  out += "names " + std::to_string(doc.names().size()) + "\n";
  for (NameId i = 0; i < doc.names().size(); ++i) {
    out += doc.names().Spelling(i) + "\n";
  }
  return out;
}

// A document well past the parallel-parse threshold, salted with markup
// that must not confuse the structural pre-scan: comments, CDATA,
// processing instructions, entities (also in attributes), quoted '>' in
// attribute values, and self-closing elements.
std::string BigDocument() {
  std::string doc = "<?xml version=\"1.0\"?>\n<site>\n";
  const char* const sections[] = {"people", "regions", "auctions"};
  for (const char* section : sections) {
    doc += "<" + std::string(section) + ">\n";
    for (int i = 0; i < 900; ++i) {
      const std::string id = std::string(section) + std::to_string(i);
      doc += "<entry id=\"" + id + "\" note=\"a &amp; b > c\">";
      doc += "<name>Name &lt;" + id + "&gt;</name>";
      doc += "<!-- comment between siblings -->";
      doc += "<desc>text <![CDATA[raw <markup> here]]> tail</desc>";
      doc += "<empty/>";
      doc += "<?pi data?>";
      doc += "trailing &#65; text";
      doc += "</entry>\n";
    }
    doc += "</" + std::string(section) + ">\n";
  }
  doc += "</site>\n";
  return doc;
}

TEST(ParallelParseTest, MatchesSerialParse) {
  const std::string text = BigDocument();
  ASSERT_GT(text.size(), 65536u) << "document too small to chunk";
  auto serial = Document::Parse(text);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (unsigned threads : {2u, 3u, 8u}) {
    ParseOptions opts;
    opts.threads = threads;
    auto parallel = Document::Parse(text, opts);
    ASSERT_TRUE(parallel.ok())
        << "threads=" << threads << ": " << parallel.status().ToString();
    EXPECT_EQ(Canon(*serial), Canon(*parallel)) << "threads=" << threads;
    // Both parses size their columns and heap exactly.
    EXPECT_EQ(serial->MemoryBytes(), parallel->MemoryBytes())
        << "threads=" << threads;
  }
}

TEST(ParallelParseTest, KeepWhitespaceMatches) {
  const std::string text = BigDocument();
  auto serial = Document::Parse(text, /*keep_whitespace=*/true);
  ASSERT_TRUE(serial.ok());
  ParseOptions opts;
  opts.keep_whitespace = true;
  opts.threads = 4;
  auto parallel = Document::Parse(text, opts);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(Canon(*serial), Canon(*parallel));
}

TEST(ParallelParseTest, SmallDocumentFallsBackToSerial) {
  ParseOptions opts;
  opts.threads = 4;
  auto doc = Document::Parse("<a><b x=\"1\">t</b></a>", opts);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->num_nodes(), 3u);
}

TEST(ParallelParseTest, MalformedDocumentStillFails) {
  // Unbalanced tags in a large document: some chunk (or the stitcher)
  // must report the error rather than produce a broken tree.
  std::string text = "<site>";
  for (int i = 0; i < 20000; ++i) {
    text += "<entry id=\"e" + std::to_string(i) + "\"><name>x</name></entry>";
  }
  text += "<unclosed>";
  text += "</site>";
  ParseOptions opts;
  opts.threads = 4;
  EXPECT_FALSE(Document::Parse(text, opts).ok());
}

TEST(ParallelParseTest, SecondDocumentElementFails) {
  // The SAX parser rejects a second top-level element in a chunk that
  // holds the document element or closes its outer tags; a chunk that
  // starts at depth 0 cannot see the root before it, so the stitch
  // rejects that one. Either way the serial parse names the error.
  const std::string text = BigDocument() + "<extra><x/></extra>";
  EXPECT_FALSE(Document::Parse(text).ok());
  ParseOptions opts;
  opts.threads = 4;
  EXPECT_FALSE(Document::Parse(text, opts).ok());
  EXPECT_EQ(Document::Parse(text, opts).status().message(),
            Document::Parse(text).status().message());
}

TEST(ParallelParseTest, ErrorsNameTheDocumentLine) {
  // A malformation deep in a multi-line document is reported with the
  // serial parse's line, whether a chunk or the stitch finds it.
  std::string doc = "<site>\n";
  for (int i = 0; i < 20000; ++i) {
    doc += "<entry id=\"e" + std::to_string(i) + "\"><name>x</name></entry>\n";
  }
  const struct {
    std::string text;
    std::string message;
  } cases[] = {
      {doc + "<bad></wrong>\n</site>\n",
       "line 20002: mismatched end tag </wrong>"},
      {doc + "<unclosed>\n</site>\n", "line 20003: mismatched end tag </site>"},
      {doc, "line 20002: unclosed element <site>"},
  };
  for (const auto& c : cases) {
    ASSERT_GT(c.text.size(), 65536u) << "document too small to chunk";
    EXPECT_EQ(Document::Parse(c.text).status().message(), c.message);
    for (unsigned threads : {2u, 4u, 8u}) {
      ParseOptions opts;
      opts.threads = threads;
      EXPECT_EQ(Document::Parse(c.text, opts).status().message(), c.message)
          << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace xmark::xml

// The chunked parallel parse must be indistinguishable from the serial
// parser: same node table (ids, kinds, names, links), same attribute
// table, same text — for documents that use the full markup repertoire
// (comments, CDATA, PIs, entities, self-closing tags) at and around
// chunk boundaries.

#include <gtest/gtest.h>

#include <string>

#include "util/thread_pool.h"
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
    ThreadPool pool(threads);
    ParseOptions opts;
    opts.pool = &pool;
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
  ThreadPool pool(4);
  ParseOptions opts;
  opts.keep_whitespace = true;
  opts.pool = &pool;
  auto parallel = Document::Parse(text, opts);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(Canon(*serial), Canon(*parallel));
}

TEST(ParallelParseTest, SmallDocumentFallsBackToSerial) {
  ThreadPool pool(4);
  ParseOptions opts;
  opts.pool = &pool;
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
  ThreadPool pool(4);
  ParseOptions opts;
  opts.pool = &pool;
  EXPECT_FALSE(Document::Parse(text, opts).ok());
}

TEST(ParallelParseTest, SecondDocumentElementFails) {
  // The SAX parser accepts a second top-level element; the builders must
  // reject it in whichever chunk it lands.
  const std::string text = BigDocument() + "<extra><x/></extra>";
  EXPECT_FALSE(Document::Parse(text).ok());
  ThreadPool pool(4);
  ParseOptions opts;
  opts.pool = &pool;
  EXPECT_FALSE(Document::Parse(text, opts).ok());
}

}  // namespace
}  // namespace xmark::xml

// The chunked parallel parse must be indistinguishable from the serial
// parser: same node table (ids, kinds, names, links), same attribute
// table, same text, same error message — for documents that use the full
// markup repertoire (comments, CDATA, PIs, entities, self-closing tags,
// DOCTYPE) at and around chunk boundaries.

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
// that must not confuse the chunk split: comments, CDATA,
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

// Chunk k's byte target in a `size`-byte input at `threads`, computed as
// the parser does: threads * 4 chunks, target k * size / chunks.
size_t Target(size_t size, unsigned threads, size_t k) {
  return k * size / (size_t{threads} * 4);
}

// `bytes` bytes of blocks of `<e a="1">t</e>`, padded with spaces.
std::string Blocks(size_t bytes) {
  const std::string block = "<e a=\"1\">t</e>";
  std::string out;
  while (out.size() + block.size() <= bytes) out += block;
  out.append(bytes - out.size(), ' ');
  return out;
}

constexpr size_t kSize = 96 * 1024;

// A `kSize`-byte document: `head`, blocks, `construct` starting at byte
// `at`, blocks, `tail`.
std::string PlaceAt(size_t at, const std::string& construct,
                    const std::string& head = "<r>",
                    const std::string& tail = "</r>") {
  std::string doc = head + Blocks(at - head.size()) + construct;
  return doc + Blocks(kSize - doc.size() - tail.size()) + tail;
}

// The parallel parse gives the serial parse's Canon and MemoryBytes, or
// its exact error message, at threads 2/3/4/8 and in both whitespace
// modes. `make(threads)` builds the input for one thread count.
template <typename Make>
void ExpectSerialResult(const Make& make) {
  for (unsigned threads : {2u, 3u, 4u, 8u}) {
    const std::string text = make(threads);
    ASSERT_EQ(text.size(), kSize) << "threads=" << threads;
    for (bool keep_whitespace : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " keep_whitespace=" + std::to_string(keep_whitespace));
      auto serial = Document::Parse(text, keep_whitespace);
      ParseOptions opts;
      opts.threads = threads;
      opts.keep_whitespace = keep_whitespace;
      auto parallel = Document::Parse(text, opts);
      if (!serial.ok()) {
        EXPECT_EQ(parallel.status().message(), serial.status().message());
        continue;
      }
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(Canon(*serial), Canon(*parallel));
      EXPECT_EQ(serial->MemoryBytes(), parallel->MemoryBytes());
    }
  }
}

TEST(ParallelSeamTest, TargetInsideCommentCdataOrPi) {
  // Each holds "<a>" just past chunk 1's target, where the split would
  // start a chunk; the chunk before is left unterminated.
  for (const std::string construct :
       {"<!-- x <a> y -->", "<![CDATA[ x <a> y ]]>", "<?pi x <a> y ?>"}) {
    SCOPED_TRACE(construct);
    ExpectSerialResult([&](unsigned threads) {
      return PlaceAt(Target(kSize, threads, 1) - 3, construct);
    });
  }
}

TEST(ParallelSeamTest, TargetInsideEscapedText) {
  ExpectSerialResult([](unsigned threads) {
    return PlaceAt(Target(kSize, threads, 2) - 6, "<e>xx &lt;a yy</e>");
  });
}

TEST(ParallelSeamTest, SplitsDeeperThanFourLevels) {
  // Seven open elements at every target after the first.
  ExpectSerialResult([](unsigned threads) {
    const std::string open = "<d1><d2><d3><d4><d5><d6>";
    const std::string close = "</d6></d5></d4></d3></d2></d1>";
    const size_t at = Target(kSize, threads, 1) - 30;
    return PlaceAt(at, open + Blocks(kSize - at - 200) + close);
  });
}

TEST(ParallelSeamTest, WrongEndTagTwoChunksAfterItsStartTag) {
  ExpectSerialResult([](unsigned threads) {
    const size_t at = Target(kSize, threads, 1) - 10;
    const size_t span = Target(kSize, threads, 3) - at;
    return PlaceAt(at, "<w>" + Blocks(span) + "</x>");
  });
}

TEST(ParallelSeamTest, StartTagAfterTheRootInALaterChunk) {
  // The root closes in chunk 1; a start tag, text or CDATA follows in
  // that chunk or in a chunk that starts after the root.
  for (const std::string late : {"<late/>", "text", "<![CDATA[ ]]>"}) {
    for (const bool same_chunk : {true, false}) {
      SCOPED_TRACE(late + (same_chunk ? " in the same chunk" : " later"));
      ExpectSerialResult([&](unsigned threads) {
        const size_t close = Target(kSize, threads, 1) + 20;
        const size_t at =
            same_chunk ? close + 40 : Target(kSize, threads, 3) - 2;
        std::string doc = "<r>" + Blocks(close - 3) + "</r>";
        doc.append(at - doc.size(), '\n');
        doc += late + "<late/>";
        return doc + std::string(kSize - doc.size(), ' ');
      });
    }
  }
}

TEST(ParallelSeamTest, WhitespaceReferenceAfterTheRoot) {
  // The root closes in the last chunk, which started inside it, and a
  // reference that decodes to whitespace follows: the builder would drop
  // it, and the serial parse rejects it.
  for (const std::string ref : {"&#32;", "&#10;", "&#x9;"}) {
    SCOPED_TRACE(ref);
    ExpectSerialResult([&](unsigned) {
      const std::string tail = "</r>" + ref + "   ";
      return "<r>" + Blocks(kSize - 3 - tail.size()) + tail;
    });
  }
  // Between the root's children the same reference is ignorable text.
  ExpectSerialResult([](unsigned threads) {
    return PlaceAt(Target(kSize, threads, 2) - 8, "&#32;");
  });
}

TEST(ParallelSeamTest, MiscAfterTheRoot) {
  // Whitespace, comments (one holding "<a>") and PIs after the root,
  // across chunk targets, which the serial parse accepts.
  ExpectSerialResult([](unsigned threads) {
    std::string doc = "<r>" + Blocks(Target(kSize, threads, 2)) + "</r>\n";
    const std::string misc = "<!-- c <a> --> <?pi x?>\n  ";
    while (doc.size() + misc.size() <= kSize) doc += misc;
    return doc + std::string(kSize - doc.size(), '\n');
  });
}

TEST(ParallelSeamTest, DoctypeLongerThanAChunk) {
  for (const std::string decl :
       {"<!ENTITY e 'x'>\n", "<!ENTITY e '<b>x</b>'>\n"}) {
    SCOPED_TRACE(decl);
    ExpectSerialResult([&](unsigned threads) {
      std::string head = "<?xml version=\"1.0\"?>\n<!DOCTYPE r [\n";
      while (head.size() < Target(kSize, threads, 2)) head += decl;
      head += "]>\n<r>";
      return PlaceAt(head.size(), "", head);
    });
  }
}

TEST(ParallelSeamTest, UnclosedElementAcrossChunks) {
  ExpectSerialResult([](unsigned threads) {
    return PlaceAt(Target(kSize, threads, 1) - 10, "<open>");
  });
}

}  // namespace
}  // namespace xmark::xml

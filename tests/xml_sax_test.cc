#include "xml/sax_parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "xml/byte_class.h"

namespace xmark::xml {
namespace {

/// Records events as strings for easy assertions.
class RecordingHandler : public SaxHandler {
 public:
  Status OnStartElement(std::string_view name,
                        const std::vector<SaxAttribute>& attrs) override {
    std::string e = "start:" + std::string(name);
    for (const auto& a : attrs) {
      e += " " + std::string(a.name) + "=" + std::string(a.value);
    }
    events.push_back(e);
    return Status::OK();
  }
  Status OnEndElement(std::string_view name) override {
    events.push_back("end:" + std::string(name));
    return Status::OK();
  }
  Status OnCharacters(std::string_view text) override {
    events.push_back("text:" + std::string(text));
    return Status::OK();
  }
  Status OnComment(std::string_view text) override {
    events.push_back("comment:" + std::string(text));
    return Status::OK();
  }
  Status OnProcessingInstruction(std::string_view target,
                                 std::string_view data) override {
    events.push_back("pi:" + std::string(target) + ":" + std::string(data));
    return Status::OK();
  }

  std::vector<std::string> events;
};

Status ParseInto(std::string_view doc, RecordingHandler* h) {
  SaxParser parser;
  return parser.Parse(doc, h);
}

TEST(SaxTest, SimpleElement) {
  RecordingHandler h;
  ASSERT_TRUE(ParseInto("<a>hi</a>", &h).ok());
  ASSERT_EQ(h.events.size(), 3u);
  EXPECT_EQ(h.events[0], "start:a");
  EXPECT_EQ(h.events[1], "text:hi");
  EXPECT_EQ(h.events[2], "end:a");
}

TEST(SaxTest, NestedElements) {
  RecordingHandler h;
  ASSERT_TRUE(ParseInto("<a><b><c/></b></a>", &h).ok());
  EXPECT_EQ(h.events, (std::vector<std::string>{"start:a", "start:b",
                                                "start:c", "end:c", "end:b",
                                                "end:a"}));
}

TEST(SaxTest, Attributes) {
  RecordingHandler h;
  ASSERT_TRUE(
      ParseInto("<person id=\"person0\" featured='yes'/>", &h).ok());
  EXPECT_EQ(h.events[0], "start:person id=person0 featured=yes");
}

TEST(SaxTest, AttributeEntityDecoding) {
  RecordingHandler h;
  ASSERT_TRUE(ParseInto("<a t=\"x &amp; y &lt;z&gt;\"/>", &h).ok());
  EXPECT_EQ(h.events[0], "start:a t=x & y <z>");
  // Decoded values share one buffer with values read in place.
  RecordingHandler h2;
  ASSERT_TRUE(
      ParseInto("<a p='x' q=\"&amp;1\" r=\"\" s='&lt;&#62;' t=\"y\"/>", &h2)
          .ok());
  EXPECT_EQ(h2.events[0], "start:a p=x q=&1 r= s=<> t=y");
}

TEST(SaxTest, TextEntityDecoding) {
  RecordingHandler h;
  ASSERT_TRUE(ParseInto("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>", &h).ok());
  EXPECT_EQ(h.events[1], "text:1 < 2 && 3 > 2");
}

TEST(SaxTest, NumericCharacterReferences) {
  RecordingHandler h;
  ASSERT_TRUE(ParseInto("<a>&#65;&#x42;</a>", &h).ok());
  EXPECT_EQ(h.events[1], "text:AB");
}

TEST(SaxTest, CommentsReported) {
  RecordingHandler h;
  ASSERT_TRUE(ParseInto("<a><!-- note --></a>", &h).ok());
  EXPECT_EQ(h.events[1], "comment: note ");
}

TEST(SaxTest, XmlDeclarationSkipped) {
  RecordingHandler h;
  ASSERT_TRUE(
      ParseInto("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>", &h).ok());
  EXPECT_EQ(h.events[0], "start:a");
}

TEST(SaxTest, ProcessingInstructionReported) {
  RecordingHandler h;
  ASSERT_TRUE(ParseInto("<a><?target some data?></a>", &h).ok());
  EXPECT_EQ(h.events[1], "pi:target:some data");
}

TEST(SaxTest, DoctypeSkipped) {
  RecordingHandler h;
  ASSERT_TRUE(ParseInto(
      "<!DOCTYPE site SYSTEM \"auction.dtd\" [<!ENTITY x \"y\">]><a/>", &h)
          .ok());
  EXPECT_EQ(h.events[0], "start:a");
}

TEST(SaxTest, CdataPassedThrough) {
  RecordingHandler h;
  ASSERT_TRUE(ParseInto("<a><![CDATA[<raw> & text]]></a>", &h).ok());
  EXPECT_EQ(h.events[1], "text:<raw> & text");
}

TEST(SaxTest, MismatchedTagsRejected) {
  RecordingHandler h;
  Status st = ParseInto("<a><b></a></b>", &h);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(SaxTest, UnclosedElementRejected) {
  RecordingHandler h;
  EXPECT_FALSE(ParseInto("<a><b></b>", &h).ok());
}

TEST(SaxTest, CharacterDataOutsideRootRejected) {
  RecordingHandler h;
  EXPECT_FALSE(ParseInto("hello<a/>", &h).ok());
  RecordingHandler h2;
  EXPECT_FALSE(ParseInto("<a/>junk", &h2).ok());
}

TEST(SaxTest, WhitespaceOutsideRootAllowed) {
  RecordingHandler h;
  EXPECT_TRUE(ParseInto("\n  <a/>\n", &h).ok());
}

TEST(SaxTest, MalformedEntityRejected) {
  RecordingHandler h;
  EXPECT_FALSE(ParseInto("<a>&bogus;</a>", &h).ok());
  RecordingHandler h2;
  EXPECT_FALSE(ParseInto("<a>&amp</a>", &h2).ok());
}

TEST(SaxTest, UnquotedAttributeRejected) {
  RecordingHandler h;
  EXPECT_FALSE(ParseInto("<a x=1/>", &h).ok());
}

TEST(SaxTest, ErrorsReportLineNumbers) {
  RecordingHandler h;
  Status st = ParseInto("<a>\n\n<b></c>\n</a>", &h);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 3"), std::string::npos);

  // Newlines between an attribute name, '=' and the quote count too.
  RecordingHandler h2;
  EXPECT_EQ(ParseInto("<a x\n=\n'1'>\n</b>", &h2).message(),
            "line 4: mismatched end tag </b>");
  // A CRLF line break is one line.
  RecordingHandler h3;
  EXPECT_EQ(ParseInto("<a>\r\n<b y='1'\r\n/>\r\n</c>", &h3).message(),
            "line 4: mismatched end tag </c>");
  // The lines of a comment count.
  RecordingHandler h4;
  EXPECT_EQ(ParseInto("<a><!-- one\ntwo\nthree -->\n<b></a>", &h4).message(),
            "line 4: mismatched end tag </a>");
  // An error inside a value is on the value's line.
  RecordingHandler h5;
  EXPECT_EQ(ParseInto("<a x='1\n2<'/>", &h5).message(),
            "line 2: '<' in attribute value");
}

TEST(SaxTest, MixedContent) {
  RecordingHandler h;
  ASSERT_TRUE(ParseInto("<t>one <b>two</b> three</t>", &h).ok());
  EXPECT_EQ(h.events, (std::vector<std::string>{
                          "start:t", "text:one ", "start:b", "text:two",
                          "end:b", "text: three", "end:t"}));
}

TEST(SaxTest, HandlerErrorPropagates) {
  class FailingHandler : public RecordingHandler {
   public:
    Status OnCharacters(std::string_view) override {
      return Status::Internal("handler says no");
    }
  };
  FailingHandler h;
  SaxParser parser;
  Status st = parser.Parse("<a>x</a>", &h);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(SaxTest, DeeplyNestedDocument) {
  std::string doc;
  constexpr int kDepth = 2000;
  for (int i = 0; i < kDepth; ++i) doc += "<d>";
  doc += "x";
  for (int i = 0; i < kDepth; ++i) doc += "</d>";
  RecordingHandler h;
  EXPECT_TRUE(ParseInto(doc, &h).ok());
  EXPECT_EQ(h.events.size(), 2 * kDepth + 1u);
}

TEST(SaxTest, SecondDocumentElementRejected) {
  RecordingHandler h;
  EXPECT_EQ(ParseInto("<a></a>\n<b/>", &h).message(),
            "line 2: content after the document element");
  RecordingHandler h2;
  EXPECT_EQ(ParseInto("<a/><b>x</b>", &h2).message(),
            "line 1: content after the document element");
  // Comments, PIs and whitespace may follow the document element.
  RecordingHandler h3;
  EXPECT_TRUE(ParseInto("<a/>\n<!-- c -->\n<?pi x?>\n", &h3).ok());

  // A fragment inside its document element cannot tell a start tag after
  // the elements open at its start from one inside them, so it parses;
  // the parallel parse's seam walk decides (xml_parallel_parse_test).
  SaxParser parser;
  RecordingHandler h4;
  SaxFragment inside;
  inside.inside = true;
  EXPECT_TRUE(parser.ParseFragment("<x/></site><y/>", &h4, inside).ok());
  // A fragment that starts outside every element may open one.
  RecordingHandler h5;
  SaxFragment outside;
  outside.allow_open_end = true;
  EXPECT_TRUE(parser.ParseFragment("<x><y/>", &h5, outside).ok());
  RecordingHandler h6;
  EXPECT_FALSE(parser.ParseFragment("<x/><y/>", &h6, outside).ok());
}

TEST(SaxTest, ByteClassesAreTheCLocales) {
  for (int c = 0; c < 256; ++c) {
    const char b = static_cast<char>(c);
    const bool start = std::isalpha(c) || c == '_' || c == ':';
    EXPECT_EQ(IsNameStartByte(b), start) << c;
    EXPECT_EQ(IsNameByte(b),
              start || std::isdigit(c) || c == '-' || c == '.')
        << c;
    EXPECT_EQ(IsSpaceByte(b), c == ' ' || c == '\t' || c == '\n' || c == '\r')
        << c;
  }
}

// The tokenizer's paths, each run as a whole document and as a fragment
// inside its document element whose end tags close the document's two
// outer elements, as a chunk of the parallel parse sees them. The
// fragment's events are the document's without the outer start tags, and
// both fail alike.
TEST(SaxTest, FragmentsTokenizeLikeDocuments) {
  struct Case {
    const char* body;
    const char* error;  // nullptr: parses
    // The fragment's error, when it differs from `error`: CDATA at its
    // top level cannot be placed inside or after the document element.
    const char* chunk_error = nullptr;
  };
  const Case cases[] = {
      {"<i id=\"i0\" name='plain' note=\"a &amp; b\" alt='&lt;y&gt; &#65;'/>",
       nullptr},
      {"<i q=\"it&apos;s\" q2='say &quot;hi&quot;' e=\"\" m='\"'>x</i>",
       nullptr},
      {"<i\n  id\n  =\n  'p0' n\t=\t\"1\"\n>t</i>", nullptr},
      {"<i a=\"1 < 2\"/>", "line 1: '<' in attribute value"},
      {"<i a=\"open\n<b>text</b>", "line 2: '<' in attribute value"},
      {"<i a=\"&bogus;\"/>", "line 1: malformed entity in attribute"},
      {"<!-- a<b --><![CDATA[<c> & d]]><?pi <data>?>", nullptr,
       "line 1: CDATA outside document element"},
      {"<i>one\r\ntwo</i>\r\n<j x='1'\r\n/>", nullptr},
      {"<i>\r\n\r\n</j>", "line 3: mismatched end tag </j>"},
      {"<!-- one\ntwo -->\n<i></j>", "line 3: mismatched end tag </j>"},
      {"<i x\n=\n'1'>\n</j>", "line 4: mismatched end tag </j>"},
  };
  const std::string close = "</regions></site>";
  for (const Case& c : cases) {
    SCOPED_TRACE(c.body);
    const std::string body = c.body;
    RecordingHandler whole;
    const Status doc_status =
        ParseInto("<site><regions>" + body + close, &whole);
    SaxFragment chunk;
    chunk.inside = true;
    chunk.allow_open_end = true;
    SaxParser parser;
    RecordingHandler part;
    const Status chunk_status = parser.ParseFragment(body + close, &part, chunk);
    if (c.chunk_error != nullptr) {
      EXPECT_EQ(chunk_status.message(), c.chunk_error);
    }
    if (c.error != nullptr) {
      EXPECT_EQ(doc_status.message(), c.error);
      EXPECT_EQ(chunk_status.message(), c.error);
      continue;
    }
    ASSERT_TRUE(doc_status.ok()) << doc_status.ToString();
    if (c.chunk_error != nullptr) continue;
    ASSERT_TRUE(chunk_status.ok()) << chunk_status.ToString();
    ASSERT_GE(whole.events.size(), 2u);
    EXPECT_EQ(std::vector<std::string>(whole.events.begin() + 2,
                                       whole.events.end()),
              part.events);
    // A start tag after the outer elements close may still be inside the
    // document element; the parallel parse's seam walk decides.
    RecordingHandler after;
    EXPECT_TRUE(
        parser.ParseFragment(body + close + "<x/>", &after, chunk).ok());
  }
}

// At its top level a fragment inside its document element fails on text
// that a DOM builder would drop there but the serial parse rejects after
// the root: it is not whitespace, yet decodes to whitespace only.
TEST(SaxTest, InsideFragmentRejectsTopLevelWhitespaceReferences) {
  SaxParser parser;
  SaxFragment inside;
  inside.inside = true;
  inside.allow_open_end = true;
  for (const char* tail : {"&#32;", "&#10;", " &#x9; "}) {
    SCOPED_TRACE(tail);
    RecordingHandler h;
    EXPECT_EQ(parser.ParseFragment(std::string("</r>") + tail, &h, inside)
                  .message(),
              "line 1: character data outside the document element");
  }
  // Whitespace, text that decodes to more, and any text inside one of the
  // fragment's own elements reach the handler.
  for (const char* ok : {"</r>\n ", "</r>&#65;", "<x>&#32;</x>"}) {
    SCOPED_TRACE(ok);
    RecordingHandler h;
    EXPECT_TRUE(parser.ParseFragment(ok, &h, inside).ok());
  }
}

}  // namespace
}  // namespace xmark::xml

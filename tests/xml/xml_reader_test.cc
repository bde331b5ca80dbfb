#include "xml/xml_reader.h"

#include <gtest/gtest.h>

namespace rased {
namespace {

// Drains all events into a compact trace string for easy assertions:
// "S:name" start, "E:name" end, "T:text" text, "$" eof.
std::string Trace(std::string_view xml) {
  XmlReader reader(xml);
  std::string trace;
  for (;;) {
    auto ev = reader.Next();
    if (!ev.ok()) return "ERROR:" + ev.status().ToString();
    switch (ev.value()) {
      case XmlEvent::kStartElement:
        trace += "S:" + std::string(reader.name()) + ";";
        break;
      case XmlEvent::kEndElement:
        trace += "E:" + std::string(reader.name()) + ";";
        break;
      case XmlEvent::kText:
        trace += "T:" + std::string(reader.text()) + ";";
        break;
      case XmlEvent::kEof:
        trace += "$";
        return trace;
    }
  }
}

TEST(XmlReaderTest, SimpleElement) {
  EXPECT_EQ(Trace("<a></a>"), "S:a;E:a;$");
}

TEST(XmlReaderTest, SelfClosingSynthesizesEnd) {
  EXPECT_EQ(Trace("<a/>"), "S:a;E:a;$");
  EXPECT_EQ(Trace("<a><b/><c/></a>"), "S:a;S:b;E:b;S:c;E:c;E:a;$");
}

TEST(XmlReaderTest, NestedElements) {
  EXPECT_EQ(Trace("<a><b><c/></b></a>"), "S:a;S:b;S:c;E:c;E:b;E:a;$");
}

TEST(XmlReaderTest, TextContent) {
  EXPECT_EQ(Trace("<a>hello</a>"), "S:a;T:hello;E:a;$");
}

TEST(XmlReaderTest, IgnorableWhitespaceSkipped) {
  EXPECT_EQ(Trace("<a>\n  <b/>\n</a>"), "S:a;S:b;E:b;E:a;$");
}

TEST(XmlReaderTest, DeclarationAndCommentsSkipped) {
  EXPECT_EQ(Trace("<?xml version=\"1.0\"?><!-- note --><a/>"), "S:a;E:a;$");
  EXPECT_EQ(Trace("<a><!-- <b/> not real --></a>"), "S:a;E:a;$");
}

TEST(XmlReaderTest, DoctypeSkipped) {
  EXPECT_EQ(Trace("<!DOCTYPE osm><a/>"), "S:a;E:a;$");
}

TEST(XmlReaderTest, Attributes) {
  XmlReader reader("<node id=\"42\" lat=\"1.5\" lon='-2.25'/>");
  ASSERT_TRUE(reader.Next().ok());
  EXPECT_EQ(reader.name(), "node");
  ASSERT_EQ(reader.attributes().size(), 3u);
  ASSERT_NE(reader.FindAttr("id"), nullptr);
  EXPECT_EQ(*reader.FindAttr("id"), "42");
  EXPECT_EQ(*reader.FindAttr("lat"), "1.5");
  EXPECT_EQ(*reader.FindAttr("lon"), "-2.25");
  EXPECT_EQ(reader.FindAttr("missing"), nullptr);
}

TEST(XmlReaderTest, EntityDecodingInAttributesAndText) {
  XmlReader reader("<tag v=\"a &amp; b &lt;&gt; &quot;&apos;\">x &amp; y</tag>");
  ASSERT_TRUE(reader.Next().ok());
  EXPECT_EQ(*reader.FindAttr("v"), "a & b <> \"'");
  auto ev = reader.Next();
  ASSERT_TRUE(ev.ok());
  ASSERT_EQ(ev.value(), XmlEvent::kText);
  EXPECT_EQ(reader.text(), "x & y");
}

TEST(XmlReaderTest, NumericCharacterReferences) {
  XmlReader reader("<t v=\"&#65;&#x42;&#xe9;\"/>");
  ASSERT_TRUE(reader.Next().ok());
  EXPECT_EQ(*reader.FindAttr("v"), "AB\xc3\xa9");  // A, B, e-acute (UTF-8)
}

TEST(XmlReaderTest, RejectsUnknownEntity) {
  EXPECT_NE(Trace("<a>&bogus;</a>").find("ERROR"), std::string::npos);
}

TEST(XmlReaderTest, RejectsMismatchedTags) {
  EXPECT_NE(Trace("<a></b>").find("ERROR"), std::string::npos) << "note: "
      << "well-formedness by nesting depth only";
}

TEST(XmlReaderTest, RejectsUnterminatedInput) {
  EXPECT_NE(Trace("<a><b>").find("ERROR"), std::string::npos);
  EXPECT_NE(Trace("<a attr=\"x").find("ERROR"), std::string::npos);
}

TEST(XmlReaderTest, RejectsEndWithoutStart) {
  EXPECT_NE(Trace("</a>").find("ERROR"), std::string::npos);
}

TEST(XmlReaderTest, EmptyDocumentIsEof) {
  EXPECT_EQ(Trace(""), "$");
  EXPECT_EQ(Trace("   \n "), "$");
}

TEST(XmlReaderTest, SkipElementConsumesSubtree) {
  XmlReader reader("<a><skip><deep><deeper/></deep>text</skip><keep/></a>");
  ASSERT_TRUE(reader.Next().ok());  // <a>
  ASSERT_TRUE(reader.Next().ok());  // <skip>
  EXPECT_EQ(reader.name(), "skip");
  ASSERT_TRUE(reader.SkipElement().ok());
  auto ev = reader.Next();
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value(), XmlEvent::kStartElement);
  EXPECT_EQ(reader.name(), "keep");
}

TEST(XmlReaderTest, SkipElementOnSelfClosing) {
  XmlReader reader("<a><b/><c/></a>");
  ASSERT_TRUE(reader.Next().ok());  // a
  ASSERT_TRUE(reader.Next().ok());  // b (self-closing, pending end)
  ASSERT_TRUE(reader.SkipElement().ok());
  auto ev = reader.Next();
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(reader.name(), "c");
}

TEST(XmlReaderTest, LineNumbersAdvance) {
  XmlReader reader("<a>\n<b>\n<unclosed\n");
  ASSERT_TRUE(reader.Next().ok());
  ASSERT_TRUE(reader.Next().ok());
  auto ev = reader.Next();
  ASSERT_FALSE(ev.ok());
  EXPECT_NE(ev.status().ToString().find("line"), std::string::npos);
}

// Error text for the first failing event of `doc` ("" when it parses).
std::string FirstError(const std::string& doc) {
  XmlReader reader(doc);
  for (;;) {
    auto ev = reader.Next();
    if (!ev.ok()) return ev.status().ToString();
    if (ev.value() == XmlEvent::kEof) return "";
  }
}

// A document of `rows` well-formed lines under an open <root> (line 1), so
// the next line written is line rows + 2.
std::string RowsUnderRoot(int rows) {
  std::string doc = "<root>\n";
  for (int i = 0; i < rows; ++i) doc += "  <r a=\"1\" b='x &amp; y'/>\n";
  return doc;
}

TEST(XmlReaderTest, DeepErrorReportsItsLine) {
  // The line is the one the reader stands on when it gives up: after the
  // closing '>' of an end tag, after the closing quote of a value whose
  // entity is bad, at the '<' that ends bad character data.
  EXPECT_NE(FirstError(RowsUnderRoot(299) + "<x></y>\n</root>")
                .find("line 301: mismatched end tag </y>, expected </x>"),
            std::string::npos);
  EXPECT_NE(FirstError(RowsUnderRoot(499) + "<r v=\"a\nb &bogus; c\"/>\n</root>")
                .find("line 502: unknown entity '&bogus;'"),
            std::string::npos);
  EXPECT_NE(FirstError(RowsUnderRoot(99) + "<r v=\"a\n<b\"/>\n</root>")
                .find("line 102: '<' in attribute value"),
            std::string::npos);
  EXPECT_NE(FirstError(RowsUnderRoot(9) + "\n\nx &nope; y\n\n</root>")
                .find("line 15: unknown entity '&nope;'"),
            std::string::npos);
  EXPECT_NE(FirstError(RowsUnderRoot(41) + "< bad/>\n</root>")
                .find("line 43: expected name"),
            std::string::npos);
  EXPECT_NE(FirstError(RowsUnderRoot(7) + "<!-- open\n\n")
                .find("line 11: unexpected end of input while scanning for "
                      "'-->'"),
            std::string::npos);
  EXPECT_NE(FirstError(RowsUnderRoot(3) + "<a b=\"1\"")
                .find("line 5: unterminated start tag"),
            std::string::npos);
  EXPECT_NE(FirstError(RowsUnderRoot(3)).find("line 5: unexpected end of input"),
            std::string::npos);
  EXPECT_EQ(FirstError(RowsUnderRoot(3) + "</root>"), "");
}

TEST(XmlReaderTest, MixedQuotesAndWhitespaceInTags) {
  XmlReader reader("<n   a = \"1\"   b\t=\t'2'  />");
  ASSERT_TRUE(reader.Next().ok());
  EXPECT_EQ(*reader.FindAttr("a"), "1");
  EXPECT_EQ(*reader.FindAttr("b"), "2");
}

TEST(XmlReaderTest, OsmChangeShapedDocument) {
  const char* doc = R"(<?xml version="1.0" encoding="UTF-8"?>
<osmChange version="0.6" generator="test">
  <create>
    <node id="1" version="1" timestamp="2021-01-01T00:00:00Z"
          changeset="7" lat="45.0" lon="-93.2">
      <tag k="highway" v="traffic_signals"/>
    </node>
  </create>
  <modify>
    <way id="2" version="3" timestamp="2021-01-01T08:30:00Z" changeset="8">
      <nd ref="1"/><nd ref="5"/>
      <tag k="highway" v="residential"/>
    </way>
  </modify>
</osmChange>)";
  EXPECT_EQ(Trace(doc),
            "S:osmChange;S:create;S:node;S:tag;E:tag;E:node;E:create;"
            "S:modify;S:way;S:nd;E:nd;S:nd;E:nd;S:tag;E:tag;E:way;E:modify;"
            "E:osmChange;$");
}

}  // namespace
}  // namespace rased

#include <string>

#include <gtest/gtest.h>

#include "osm/changeset.h"
#include "osm/history.h"
#include "osm/osc.h"
#include "util/random.h"
#include "util/str_util.h"
#include "xml/xml_reader.h"

namespace rased {
namespace {

// Robustness property: no input — however mangled — may crash, hang, or
// leave the parsers in an undefined state. Every outcome must be either a
// clean parse or a clean error Status.

const char kSeedDoc[] = R"(<?xml version="1.0" encoding="UTF-8"?>
<osmChange version="0.6" generator="fuzz">
  <create>
    <node id="1" version="1" timestamp="2021-01-01T00:00:00Z"
          changeset="7" uid="3" user="a&amp;b" lat="45.0" lon="-93.2">
      <tag k="highway" v="residential"/>
    </node>
    <way id="2" version="3" timestamp="2021-01-02T10:30:00Z" changeset="8">
      <nd ref="1"/><nd ref="5"/>
      <tag k="highway" v="service"/>
    </way>
  </create>
  <modify>
    <relation id="3" version="2" timestamp="2021-01-03T04:05:06Z"
              changeset="9">
      <member type="way" ref="2" role="outer"/>
    </relation>
  </modify>
</osmChange>)";

std::string Mutate(const std::string& doc, Rng& rng) {
  std::string out = doc;
  int mutations = 1 + static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < mutations && !out.empty(); ++i) {
    size_t pos = rng.Uniform(out.size());
    switch (rng.Uniform(5)) {
      case 0:  // flip a byte
        out[pos] = static_cast<char>(rng.Uniform(256));
        break;
      case 1:  // delete a span
        out.erase(pos, 1 + rng.Uniform(16));
        break;
      case 2:  // duplicate a span
        out.insert(pos, out.substr(pos, 1 + rng.Uniform(16)));
        break;
      case 3:  // inject markup-ish noise
        out.insert(pos, "<&\"/>");
        break;
      case 4:  // truncate
        out.resize(pos);
        break;
    }
  }
  return out;
}

// Error text of the first failing event, or "" when `doc` parses.
std::string FirstErrorOf(std::string_view doc) {
  XmlReader reader(doc);
  for (;;) {
    auto ev = reader.Next();
    if (!ev.ok()) return ev.status().ToString();
    if (ev.value() == XmlEvent::kEof) return "";
  }
}

TEST(XmlFuzzTest, ReaderNeverCrashesOnMutatedInput) {
  Rng rng(20260704);
  for (int trial = 0; trial < 500; ++trial) {
    std::string doc = Mutate(kSeedDoc, rng);
    XmlReader reader(doc);
    int events = 0;
    for (;;) {
      auto ev = reader.Next();
      if (!ev.ok()) break;  // clean error
      if (ev.value() == XmlEvent::kEof) break;
      // A mangled document must still terminate in bounded events.
      ASSERT_LT(++events, 100000) << "parser failed to terminate";
    }
  }
}

TEST(XmlFuzzTest, OscReaderNeverCrashesOnMutatedInput) {
  Rng rng(777);
  int parsed_ok = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string doc = Mutate(kSeedDoc, rng);
    auto changes = OscReader::ParseAll(doc);
    if (changes.ok()) ++parsed_ok;  // rare but possible (benign mutations)
  }
  // The specific count is irrelevant; surviving 300 hostile inputs is the
  // assertion. parsed_ok is used so the loop is not optimized away.
  EXPECT_GE(parsed_ok, 0);
}

TEST(XmlFuzzTest, ChangesetAndHistoryReadersSurviveMutations) {
  const char kChangesetDoc[] = R"(<osm>
    <changeset id="5" created_at="2021-01-01T00:00:00Z" open="false"
               min_lat="1.0" min_lon="2.0" max_lat="3.0" max_lon="4.0">
      <tag k="comment" v="x"/>
    </changeset>
  </osm>)";
  Rng rng(888);
  for (int trial = 0; trial < 300; ++trial) {
    std::string doc = Mutate(kChangesetDoc, rng);
    // NOLINT-RASED(status-discard): fuzzing only checks for crashes/hangs;
    (void)ChangesetReader::ParseAll(doc);
    // NOLINT-RASED(status-discard): mutated input is expected to fail parse
    (void)HistoryReader::ParseAll(doc);
  }
}

// Attribute values dense with named and numeric entities, including a
// highway value the crawlers must see decoded.
const char kEntityDoc[] = R"(<?xml version="1.0" encoding="UTF-8"?>
<osmChange version="0.6" generator="fuzz &amp; more">
  <modify>
    <node id="4" version="2" timestamp="2021-01-01T00:00:00Z"
          changeset="7" user="&#x41;&#66;&quot;&apos;&lt;&gt;" lat="45.0"
          lon="-93.2">
      <tag k="highway" v="primary&amp;link"/>
      <tag k="name" v="Caf&#xe9; &#8364;&#x1F600;"/>
    </node>
    <way id="5" version="1" timestamp="2021-01-02T10:30:00Z" changeset="8">
      <nd ref="4"/><nd ref="6"/>
      <tag k="highway" v="&#115;ervice"/>
    </way>
    <relation id="6" version="2" timestamp="2021-01-03T04:05:06Z"
              changeset="9">
      <member type="way" ref="5" role="&lt;outer&gt;"/>
    </relation>
  </modify>
</osmChange>)";

// Both element forms (owned Element, crawler ElementVersion) read through
// one parse: on any input they must fail alike or agree on every crawled
// field.
std::string CrawledFields(const std::string& doc, bool owned) {
  OscReader reader(doc);
  std::string out;
  for (;;) {
    ChangeAction action;
    Element element;
    ElementVersion version;
    Result<bool> more = owned ? reader.Next(&action, &element)
                              : reader.Next(&action, &version);
    if (!more.ok()) return out + "error: " + more.status().ToString();
    if (!more.value()) return out;
    if (owned) {
      version.type = element.type;
      version.id = element.meta.id;
      version.version = element.meta.version;
      version.timestamp = element.meta.timestamp;
      version.changeset = element.meta.changeset;
      version.visible = element.meta.visible;
      version.lat = element.lat;
      version.lon = element.lon;
      const std::string* highway = element.FindTag("highway");
      version.has_highway = highway != nullptr;
      if (highway != nullptr) version.highway = *highway;
      version.node_refs = element.node_refs;
      for (const RelationMember& m : element.members) {
        version.members.push_back(
            {m.type, m.ref, static_cast<uint32_t>(version.roles.size()),
             static_cast<uint32_t>(m.role.size())});
        version.roles += m.role;
      }
    }
    out += StrFormat("%d/%lld/%d/%s/%llu/%d/%.17g/%.17g/%d:%s/%zu/",
                     static_cast<int>(action),
                     static_cast<long long>(version.id), version.version,
                     version.timestamp.ToString().c_str(),
                     static_cast<unsigned long long>(version.changeset),
                     version.visible, version.lat, version.lon,
                     version.has_highway, version.highway.c_str(),
                     version.node_refs.size());
    for (int64_t ref : version.node_refs) out += std::to_string(ref) + ",";
    for (const ElementVersion::Member& m : version.members) {
      out += std::to_string(m.ref) + std::string(version.role(m)) + ",";
    }
    out += "\n";
  }
}

TEST(XmlFuzzTest, EntityBearingAttributesDecode) {
  XmlReader reader(kEntityDoc);
  ASSERT_TRUE(reader.Next().ok());  // <osmChange>
  EXPECT_EQ(*reader.FindAttr("generator"), "fuzz & more");

  auto changes = OscReader::ParseAll(kEntityDoc);
  ASSERT_TRUE(changes.ok()) << changes.status().ToString();
  ASSERT_EQ(changes.value().size(), 3u);
  const Element& node = changes.value()[0].element;
  EXPECT_EQ(node.meta.user, "AB\"'<>");
  EXPECT_EQ(*node.FindTag("highway"), "primary&link");
  EXPECT_EQ(*node.FindTag("name"), "Caf\xc3\xa9 \xe2\x82\xac\xf0\x9f\x98\x80");
  EXPECT_EQ(*changes.value()[1].element.FindTag("highway"), "service");
  EXPECT_EQ(changes.value()[2].element.members[0].role, "<outer>");

  // The crawler's record holds the same decoded values.
  OscReader versions(kEntityDoc);
  ChangeAction action;
  ElementVersion version;
  ASSERT_TRUE(versions.Next(&action, &version).value());
  EXPECT_EQ(version.highway, "primary&link");
  ASSERT_TRUE(versions.Next(&action, &version).value());
  EXPECT_EQ(version.highway, "service");
  ASSERT_TRUE(versions.Next(&action, &version).value());
  EXPECT_EQ(version.role(version.members[0]), "<outer>");
  EXPECT_FALSE(versions.Next(&action, &version).value());

  EXPECT_EQ(CrawledFields(kEntityDoc, true), CrawledFields(kEntityDoc, false));
}

TEST(XmlFuzzTest, ElementFormsAgreeOnMutatedInput) {
  Rng rng(4242);
  for (int trial = 0; trial < 600; ++trial) {
    std::string doc = Mutate(trial % 2 == 0 ? kEntityDoc : kSeedDoc, rng);
    ASSERT_EQ(CrawledFields(doc, true), CrawledFields(doc, false)) << doc;
  }
}

TEST(XmlFuzzTest, TruncatedInputFailsCleanly) {
  // Every proper prefix that reaches into the root is an incomplete
  // document (a shorter one is empty, which is fine): it must fail, and
  // both element forms must fail the same way.
  const std::string doc = kEntityDoc;
  for (size_t cut = doc.find("<osmChange") + 1; cut < doc.size(); ++cut) {
    std::string prefix = doc.substr(0, cut);
    ASSERT_FALSE(OscReader::ParseAll(prefix).ok()) << cut;
    ASSERT_EQ(CrawledFields(prefix, true), CrawledFields(prefix, false))
        << cut;
  }

  auto error_of = [](std::string_view prefix) {
    return FirstErrorOf(prefix);
  };
  const size_t attr = doc.find("primary&amp;link");
  // Cut mid-attribute value, mid-entity, mid-tag and inside an end tag.
  EXPECT_NE(error_of(doc.substr(0, attr + 3)).find("unterminated attribute"),
            std::string::npos);
  EXPECT_NE(error_of(doc.substr(0, attr + 10)).find("unterminated attribute"),
            std::string::npos);
  EXPECT_NE(error_of(doc.substr(0, attr - 4)).find("unterminated start tag"),
            std::string::npos);
  EXPECT_NE(error_of(doc.substr(0, doc.find("</modify>") + 4))
                .find("malformed end tag"),
            std::string::npos);
  // An entity cut inside a closed value is its own error.
  EXPECT_NE(error_of("<a v=\"x&am\"/>").find("unterminated entity"),
            std::string::npos);
  EXPECT_NE(error_of("<a v=\"x&#x\"/>").find("unterminated entity"),
            std::string::npos);
  EXPECT_NE(error_of("<a v=\"x&#x;\"/>").find("empty character reference"),
            std::string::npos);
}

TEST(XmlFuzzTest, DeeplyNestedInputTerminates) {
  // Pathological nesting must not blow the stack or hang.
  std::string doc;
  for (int i = 0; i < 5000; ++i) doc += "<a>";
  XmlReader reader(doc);
  for (;;) {
    auto ev = reader.Next();
    if (!ev.ok() || ev.value() == XmlEvent::kEof) break;
  }
  SUCCEED();
}

TEST(XmlFuzzTest, HugeAttributeAndEntityFlood) {
  std::string doc = "<a v=\"" + std::string(100000, 'x') + "\"/>";
  XmlReader reader(doc);
  auto ev = reader.Next();
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(reader.FindAttr("v")->size(), 100000u);

  std::string entities = "<a>";
  for (int i = 0; i < 10000; ++i) entities += "&amp;";
  entities += "</a>";
  XmlReader reader2(entities);
  ASSERT_TRUE(reader2.Next().ok());
  auto text = reader2.Next();
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(reader2.text().size(), 10000u);
}

}  // namespace
}  // namespace rased

#include "osm/element_xml.h"

#include "util/str_util.h"

namespace rased {
namespace internal_osm {

namespace {

Status MissingAttr(const XmlReader& reader, const char* attr) {
  return Status::Corruption(StrFormat(
      "<%.*s> missing attribute '%s' (line %d)",
      static_cast<int>(reader.name().size()), reader.name().data(), attr,
      reader.line()));
}

// Where the two output forms differ: the owned Element keeps everything,
// ElementVersion keeps the crawled fields in reused buffers. Type,
// coordinates and node refs have the same names in both.
void Reset(Element* out) { *out = Element(); }
void Reset(ElementVersion* out) { out->Clear(); }

void SetMeta(Element* out, int64_t id, int32_t version, OsmTimestamp ts,
             uint64_t changeset, uint64_t uid, std::string_view user,
             bool visible) {
  out->meta.id = id;
  out->meta.version = version;
  out->meta.timestamp = ts;
  out->meta.changeset = changeset;
  out->meta.uid = uid;
  out->meta.user = user;
  out->meta.visible = visible;
}
void SetMeta(ElementVersion* out, int64_t id, int32_t version,
             OsmTimestamp ts, uint64_t changeset, uint64_t /*uid*/,
             std::string_view /*user*/, bool visible) {
  out->id = id;
  out->version = version;
  out->timestamp = ts;
  out->changeset = changeset;
  out->visible = visible;
}

void AddTag(Element* out, std::string_view k, std::string_view v) {
  out->tags.push_back(Tag{std::string(k), std::string(v)});
}
void AddTag(ElementVersion* out, std::string_view k, std::string_view v) {
  if (out->has_highway || k != "highway") return;
  out->has_highway = true;
  out->highway.assign(v);
}

void AddMember(Element* out, ElementType type, int64_t ref,
               std::string_view role) {
  out->members.push_back(RelationMember{type, ref, std::string(role)});
}
void AddMember(ElementVersion* out, ElementType type, int64_t ref,
               std::string_view role) {
  out->members.push_back(
      ElementVersion::Member{type, ref, static_cast<uint32_t>(out->roles.size()),
                             static_cast<uint32_t>(role.size())});
  out->roles.append(role);
}

template <typename Out>
Status ParseVersion(XmlReader& reader, Out* out) {
  Reset(out);
  RASED_ASSIGN_OR_RETURN(out->type, ParseElementType(reader.name()));

  const std::string_view* id = reader.FindAttr("id");
  if (id == nullptr) return MissingAttr(reader, "id");
  RASED_ASSIGN_OR_RETURN(int64_t id_value, ParseInt(*id));
  int32_t version = 1;
  if (const std::string_view* v = reader.FindAttr("version")) {
    RASED_ASSIGN_OR_RETURN(int64_t ver, ParseInt(*v));
    version = static_cast<int32_t>(ver);
  }
  OsmTimestamp timestamp;
  if (const std::string_view* ts = reader.FindAttr("timestamp")) {
    RASED_ASSIGN_OR_RETURN(timestamp, OsmTimestamp::Parse(*ts));
  }
  uint64_t changeset = 0;
  if (const std::string_view* cs = reader.FindAttr("changeset")) {
    RASED_ASSIGN_OR_RETURN(changeset, ParseUint(*cs));
  }
  uint64_t uid = 0;
  if (const std::string_view* u = reader.FindAttr("uid")) {
    RASED_ASSIGN_OR_RETURN(uid, ParseUint(*u));
  }
  const std::string_view* user = reader.FindAttr("user");
  const std::string_view* visible_attr = reader.FindAttr("visible");
  const bool visible = visible_attr == nullptr || *visible_attr != "false";
  SetMeta(out, id_value, version, timestamp, changeset, uid,
          user != nullptr ? *user : std::string_view(), visible);

  if (out->type == ElementType::kNode) {
    // Deleted node versions in full-history files may omit coordinates.
    const std::string_view* lat = reader.FindAttr("lat");
    const std::string_view* lon = reader.FindAttr("lon");
    if (lat != nullptr && lon != nullptr) {
      RASED_ASSIGN_OR_RETURN(out->lat, ParseDouble(*lat));
      RASED_ASSIGN_OR_RETURN(out->lon, ParseDouble(*lon));
    } else if (visible) {
      return MissingAttr(reader, "lat/lon");
    }
  }

  // Children: <tag/>, <nd/>, <member/> until the element's end tag.
  for (;;) {
    RASED_ASSIGN_OR_RETURN(XmlEvent ev, reader.Next());
    if (ev == XmlEvent::kEndElement) break;
    if (ev == XmlEvent::kEof) return Status::Corruption("EOF inside element");
    if (ev == XmlEvent::kText) continue;
    // kStartElement
    std::string_view child = reader.name();
    if (child == "tag") {
      const std::string_view* k = reader.FindAttr("k");
      const std::string_view* v = reader.FindAttr("v");
      if (k == nullptr || v == nullptr) return MissingAttr(reader, "k/v");
      AddTag(out, *k, *v);
    } else if (child == "nd") {
      const std::string_view* ref = reader.FindAttr("ref");
      if (ref == nullptr) return MissingAttr(reader, "ref");
      RASED_ASSIGN_OR_RETURN(int64_t r, ParseInt(*ref));
      out->node_refs.push_back(r);
    } else if (child == "member") {
      const std::string_view* type = reader.FindAttr("type");
      const std::string_view* ref = reader.FindAttr("ref");
      if (type == nullptr || ref == nullptr) {
        return MissingAttr(reader, "type/ref");
      }
      RASED_ASSIGN_OR_RETURN(ElementType member_type, ParseElementType(*type));
      RASED_ASSIGN_OR_RETURN(int64_t member_ref, ParseInt(*ref));
      const std::string_view* role = reader.FindAttr("role");
      AddMember(out, member_type, member_ref,
                role != nullptr ? *role : std::string_view());
    }
    // Unknown children are tolerated and skipped like the known ones.
    RASED_RETURN_IF_ERROR(reader.SkipElement());
  }
  return Status::OK();
}

}  // namespace

Status ParseElement(XmlReader& reader, Element* out) {
  return ParseVersion(reader, out);
}

Status ParseElement(XmlReader& reader, ElementVersion* out) {
  return ParseVersion(reader, out);
}

void WriteTags(XmlWriter& writer, const std::vector<Tag>& tags) {
  for (const Tag& t : tags) {
    writer.StartElement("tag");
    writer.Attribute("k", t.key);
    writer.Attribute("v", t.value);
    writer.EndElement();
  }
}

void WriteElement(XmlWriter& writer, const Element& element) {
  writer.StartElement(ElementTypeName(element.type));
  writer.Attribute("id", element.meta.id);
  writer.Attribute("version", static_cast<int64_t>(element.meta.version));
  writer.Attribute("timestamp", element.meta.timestamp.ToString());
  writer.Attribute("changeset", element.meta.changeset);
  writer.Attribute("uid", element.meta.uid);
  if (!element.meta.user.empty()) writer.Attribute("user", element.meta.user);
  if (!element.meta.visible) writer.Attribute("visible", "false");
  if (element.type == ElementType::kNode && element.meta.visible) {
    writer.AttributeCoord("lat", element.lat);
    writer.AttributeCoord("lon", element.lon);
  }
  for (int64_t ref : element.node_refs) {
    writer.StartElement("nd");
    writer.Attribute("ref", ref);
    writer.EndElement();
  }
  for (const RelationMember& m : element.members) {
    writer.StartElement("member");
    writer.Attribute("type", ElementTypeName(m.type));
    writer.Attribute("ref", m.ref);
    writer.Attribute("role", m.role);
    writer.EndElement();
  }
  WriteTags(writer, element.tags);
  writer.EndElement();
}

}  // namespace internal_osm
}  // namespace rased

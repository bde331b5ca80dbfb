#include "osm/changeset.h"

#include "osm/element_xml.h"
#include "util/str_util.h"

namespace rased {

namespace {

// Where the two output forms differ: the full Changeset keeps everything,
// ChangesetCentre only the id and the box centre.
void SetFields(Changeset* out, uint64_t id, OsmTimestamp created_at,
               OsmTimestamp closed_at, bool open, uint64_t uid,
               std::string_view user, uint32_t num_changes) {
  *out = Changeset();
  out->id = id;
  out->created_at = created_at;
  out->closed_at = closed_at;
  out->open = open;
  out->uid = uid;
  out->user = user;
  out->num_changes = num_changes;
}
void SetFields(ChangesetCentre* out, uint64_t id, OsmTimestamp, OsmTimestamp,
               bool, uint64_t, std::string_view, uint32_t) {
  *out = ChangesetCentre();
  out->id = id;
}

void SetBox(Changeset* out, double min_lat, double min_lon, double max_lat,
            double max_lon) {
  out->has_bbox = true;
  out->min_lat = min_lat;
  out->min_lon = min_lon;
  out->max_lat = max_lat;
  out->max_lon = max_lon;
}
void SetBox(ChangesetCentre* out, double min_lat, double min_lon,
            double max_lat, double max_lon) {
  out->has_bbox = true;
  out->lat = (min_lat + max_lat) / 2.0;  // as Changeset::center_lat()
  out->lon = (min_lon + max_lon) / 2.0;
}

void AddTag(Changeset* out, std::string_view k, std::string_view v) {
  out->tags.push_back(Tag{std::string(k), std::string(v)});
}
void AddTag(ChangesetCentre*, std::string_view, std::string_view) {}

template <typename Out>
Status ParseOneChangeset(XmlReader& reader, Out* out) {
  const std::string_view* id = reader.FindAttr("id");
  if (id == nullptr) {
    return Status::Corruption(
        StrFormat("<changeset> missing id (line %d)", reader.line()));
  }
  RASED_ASSIGN_OR_RETURN(uint64_t id_value, ParseUint(*id));
  OsmTimestamp created_at, closed_at;
  if (const std::string_view* v = reader.FindAttr("created_at")) {
    RASED_ASSIGN_OR_RETURN(created_at, OsmTimestamp::Parse(*v));
  }
  if (const std::string_view* v = reader.FindAttr("closed_at")) {
    RASED_ASSIGN_OR_RETURN(closed_at, OsmTimestamp::Parse(*v));
  }
  const std::string_view* open = reader.FindAttr("open");
  uint64_t uid = 0;
  if (const std::string_view* v = reader.FindAttr("uid")) {
    RASED_ASSIGN_OR_RETURN(uid, ParseUint(*v));
  }
  const std::string_view* user = reader.FindAttr("user");
  uint64_t num_changes = 0;
  if (const std::string_view* v = reader.FindAttr("num_changes")) {
    RASED_ASSIGN_OR_RETURN(num_changes, ParseUint(*v));
  }
  SetFields(out, id_value, created_at, closed_at,
            open != nullptr && *open == "true", uid,
            user != nullptr ? *user : std::string_view(),
            static_cast<uint32_t>(num_changes));
  const std::string_view* min_lat = reader.FindAttr("min_lat");
  const std::string_view* min_lon = reader.FindAttr("min_lon");
  const std::string_view* max_lat = reader.FindAttr("max_lat");
  const std::string_view* max_lon = reader.FindAttr("max_lon");
  if (min_lat != nullptr && min_lon != nullptr && max_lat != nullptr &&
      max_lon != nullptr) {
    RASED_ASSIGN_OR_RETURN(double min_lat_value, ParseDouble(*min_lat));
    RASED_ASSIGN_OR_RETURN(double min_lon_value, ParseDouble(*min_lon));
    RASED_ASSIGN_OR_RETURN(double max_lat_value, ParseDouble(*max_lat));
    RASED_ASSIGN_OR_RETURN(double max_lon_value, ParseDouble(*max_lon));
    SetBox(out, min_lat_value, min_lon_value, max_lat_value, max_lon_value);
  }

  // Children: <tag k v/> and (ignored) discussion elements.
  for (;;) {
    RASED_ASSIGN_OR_RETURN(XmlEvent ev, reader.Next());
    if (ev == XmlEvent::kEndElement) break;
    if (ev == XmlEvent::kEof) {
      return Status::Corruption("EOF inside <changeset>");
    }
    if (ev != XmlEvent::kStartElement) continue;
    if (reader.name() == "tag") {
      const std::string_view* k = reader.FindAttr("k");
      const std::string_view* v = reader.FindAttr("v");
      if (k != nullptr && v != nullptr) AddTag(out, *k, *v);
    }
    RASED_RETURN_IF_ERROR(reader.SkipElement());
  }
  return Status::OK();
}

}  // namespace

ChangesetCentre ChangesetCentre::Of(const Changeset& changeset) {
  ChangesetCentre c;
  c.id = changeset.id;
  c.has_bbox = changeset.has_bbox;
  if (changeset.has_bbox) {
    c.lat = changeset.center_lat();
    c.lon = changeset.center_lon();
  }
  return c;
}

template <typename Out>
Result<bool> ChangesetReader::NextChangeset(Out* out) {
  while (!done_ && !in_root_) {
    RASED_ASSIGN_OR_RETURN(XmlEvent ev, reader_.Next());
    if (ev == XmlEvent::kEof) {
      done_ = true;
    } else if (ev == XmlEvent::kStartElement) {
      if (reader_.name() != "osm") {
        return Status::Corruption("expected <osm> root, got <" +
                                  std::string(reader_.name()) + ">");
      }
      in_root_ = true;
    }
  }
  while (!done_) {
    RASED_ASSIGN_OR_RETURN(XmlEvent ev, reader_.Next());
    if (ev == XmlEvent::kEndElement || ev == XmlEvent::kEof) {
      done_ = true;
      break;
    }
    if (ev != XmlEvent::kStartElement) continue;
    if (reader_.name() != "changeset") {
      RASED_RETURN_IF_ERROR(reader_.SkipElement());
      continue;
    }
    RASED_RETURN_IF_ERROR(ParseOneChangeset(reader_, out));
    return true;
  }
  return false;
}

Result<bool> ChangesetReader::Next(Changeset* changeset) {
  return NextChangeset(changeset);
}

Result<bool> ChangesetReader::Next(ChangesetCentre* centre) {
  return NextChangeset(centre);
}

Status ChangesetReader::Parse(std::string_view xml, const Callback& cb) {
  ChangesetReader reader(xml);
  Changeset changeset;
  for (;;) {
    RASED_ASSIGN_OR_RETURN(bool more, reader.Next(&changeset));
    if (!more) return Status::OK();
    RASED_RETURN_IF_ERROR(cb(changeset));
  }
}

Result<std::vector<Changeset>> ChangesetReader::ParseAll(
    std::string_view xml) {
  std::vector<Changeset> out;
  Status s = Parse(xml, [&out](const Changeset& cs) {
    out.push_back(cs);
    return Status::OK();
  });
  if (!s.ok()) return s;
  return out;
}

ChangesetWriter::ChangesetWriter() : writer_(&buffer_) {
  writer_.WriteDeclaration();
  writer_.StartElement("osm");
  writer_.Attribute("version", "0.6");
  writer_.Attribute("generator", "rased-synth");
}

void ChangesetWriter::Add(const Changeset& changeset) {
  writer_.StartElement("changeset");
  writer_.Attribute("id", changeset.id);
  writer_.Attribute("created_at", changeset.created_at.ToString());
  if (!changeset.open) {
    writer_.Attribute("closed_at", changeset.closed_at.ToString());
  }
  writer_.Attribute("open", changeset.open ? "true" : "false");
  writer_.Attribute("uid", changeset.uid);
  if (!changeset.user.empty()) writer_.Attribute("user", changeset.user);
  writer_.Attribute("num_changes",
                    static_cast<uint64_t>(changeset.num_changes));
  if (changeset.has_bbox) {
    writer_.AttributeCoord("min_lat", changeset.min_lat);
    writer_.AttributeCoord("min_lon", changeset.min_lon);
    writer_.AttributeCoord("max_lat", changeset.max_lat);
    writer_.AttributeCoord("max_lon", changeset.max_lon);
  }
  internal_osm::WriteTags(writer_, changeset.tags);
  writer_.EndElement();
}

std::string ChangesetWriter::Finish() {
  if (!finished_) {
    writer_.EndElement();  // osm
    finished_ = true;
  }
  return std::move(buffer_);
}

}  // namespace rased

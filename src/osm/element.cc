#include "osm/element.h"

#include <algorithm>

#include "util/str_util.h"

namespace rased {

std::string_view ElementTypeName(ElementType type) {
  switch (type) {
    case ElementType::kNode:
      return "node";
    case ElementType::kWay:
      return "way";
    case ElementType::kRelation:
      return "relation";
  }
  return "?";
}

Result<ElementType> ParseElementType(std::string_view name) {
  if (name == "node") return ElementType::kNode;
  if (name == "way") return ElementType::kWay;
  if (name == "relation") return ElementType::kRelation;
  return Status::InvalidArgument("unknown element type '" + std::string(name) +
                                 "'");
}

Result<OsmTimestamp> OsmTimestamp::Parse(std::string_view text) {
  // "YYYY-MM-DDTHH:MM:SSZ"
  if (text.size() < 20 || text[10] != 'T' || text.back() != 'Z') {
    return Status::InvalidArgument("bad OSM timestamp '" + std::string(text) +
                                   "'");
  }
  auto date = Date::Parse(text.substr(0, 10));
  if (!date.ok()) return date.status();
  // The time is read as sscanf(hms, "%d:%d:%d") reads the 8 bytes after
  // the 'T': up to their first NUL, ignoring whatever follows the seconds.
  std::string_view hms = text.substr(11, 8);
  hms = hms.substr(0, hms.find('\0'));
  int h = 0, m = 0, s = 0;
  auto field = [&hms](int* out, bool colon_after) {
    if (!ConsumeScanfInt(&hms, out)) return false;
    if (!colon_after) return true;
    if (hms.empty() || hms.front() != ':') return false;
    hms.remove_prefix(1);
    return true;
  };
  if (!field(&h, true) || !field(&m, true) || !field(&s, false) || h < 0 ||
      h > 23 || m < 0 || m > 59 || s < 0 || s > 60) {
    return Status::InvalidArgument("bad OSM time '" + std::string(text) + "'");
  }
  OsmTimestamp ts;
  ts.date = date.value();
  ts.sec_of_day = h * 3600 + m * 60 + s;
  return ts;
}

std::string OsmTimestamp::ToString() const {
  int h = sec_of_day / 3600;
  int m = (sec_of_day / 60) % 60;
  int s = sec_of_day % 60;
  return StrFormat("%sT%02d:%02d:%02dZ", date.ToString().c_str(), h, m, s);
}

const std::string* Element::FindTag(std::string_view key) const {
  for (const Tag& t : tags) {
    if (t.key == key) return &t.value;
  }
  return nullptr;
}

bool Element::GeometryDiffers(const Element& a, const Element& b) {
  if (a.type != b.type) return true;
  switch (a.type) {
    case ElementType::kNode:
      return a.lat != b.lat || a.lon != b.lon;
    case ElementType::kWay:
      return a.node_refs != b.node_refs;
    case ElementType::kRelation:
      return !(a.members == b.members);
  }
  return false;
}

void ElementVersion::Clear() {
  type = ElementType::kNode;
  id = 0;
  version = 1;
  timestamp = OsmTimestamp();
  changeset = 0;
  visible = true;
  lat = 0.0;
  lon = 0.0;
  has_highway = false;
  highway.clear();
  node_refs.clear();
  members.clear();
  roles.clear();
}

bool ElementVersion::GeometryDiffers(const ElementVersion& a,
                                     const ElementVersion& b) {
  if (a.type != b.type) return true;
  switch (a.type) {
    case ElementType::kNode:
      return a.lat != b.lat || a.lon != b.lon;
    case ElementType::kWay:
      return a.node_refs != b.node_refs;
    case ElementType::kRelation:
      if (a.members.size() != b.members.size()) return true;
      for (size_t i = 0; i < a.members.size(); ++i) {
        const Member& x = a.members[i];
        const Member& y = b.members[i];
        if (x.type != y.type || x.ref != y.ref || a.role(x) != b.role(y)) {
          return true;
        }
      }
      return false;
  }
  return false;
}

bool Element::TagsDiffer(const Element& a, const Element& b) {
  if (a.tags.size() != b.tags.size()) return true;
  // Tag order is not semantically meaningful; compare as sorted sets.
  auto sorted = [](const std::vector<Tag>& tags) {
    std::vector<Tag> copy = tags;
    std::sort(copy.begin(), copy.end(), [](const Tag& x, const Tag& y) {
      return x.key != y.key ? x.key < y.key : x.value < y.value;
    });
    return copy;
  };
  return !(sorted(a.tags) == sorted(b.tags));
}

}  // namespace rased

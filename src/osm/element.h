#ifndef RASED_OSM_ELEMENT_H_
#define RASED_OSM_ELEMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/date.h"
#include "util/result.h"

namespace rased {

/// The three OSM element kinds (Section II-A of the paper).
enum class ElementType : uint8_t { kNode = 0, kWay = 1, kRelation = 2 };
inline constexpr int kNumElementTypes = 3;

/// Short lowercase name ("node"/"way"/"relation") as used in OSM XML.
std::string_view ElementTypeName(ElementType type);

/// Inverse of ElementTypeName. InvalidArgument for anything else.
Result<ElementType> ParseElementType(std::string_view name);

/// One key=value tag.
struct Tag {
  std::string key;
  std::string value;

  friend bool operator==(const Tag& a, const Tag& b) {
    return a.key == b.key && a.value == b.value;
  }
};

/// Second-resolution UTC timestamp as used in OSM XML
/// ("YYYY-MM-DDTHH:MM:SSZ"). RASED's cubes only ever consume the Date part,
/// but the file formats round-trip the full value.
struct OsmTimestamp {
  Date date;
  int32_t sec_of_day = 0;  // 0..86399

  static Result<OsmTimestamp> Parse(std::string_view text);
  std::string ToString() const;

  friend bool operator==(const OsmTimestamp& a, const OsmTimestamp& b) {
    return a.date == b.date && a.sec_of_day == b.sec_of_day;
  }
  friend bool operator<(const OsmTimestamp& a, const OsmTimestamp& b) {
    return a.date != b.date ? a.date < b.date : a.sec_of_day < b.sec_of_day;
  }
};

/// Version metadata common to every element version.
struct ElementMeta {
  int64_t id = 0;
  int32_t version = 1;
  OsmTimestamp timestamp;
  uint64_t changeset = 0;
  uint64_t uid = 0;
  std::string user;
  /// False marks a deletion version in full-history files.
  bool visible = true;
};

/// Member of a relation.
struct RelationMember {
  ElementType type = ElementType::kNode;
  int64_t ref = 0;
  std::string role;

  friend bool operator==(const RelationMember& a, const RelationMember& b) {
    return a.type == b.type && a.ref == b.ref && a.role == b.role;
  }
};

/// A single OSM element version of any type. One struct (rather than a
/// class hierarchy) keeps streaming parsers allocation-friendly; the
/// type-specific fields are simply unused for the other kinds.
struct Element {
  ElementType type = ElementType::kNode;
  ElementMeta meta;

  // Node-only.
  double lat = 0.0;
  double lon = 0.0;

  // Way-only.
  std::vector<int64_t> node_refs;

  // Relation-only.
  std::vector<RelationMember> members;

  std::vector<Tag> tags;

  /// Value of the tag with the given key, or nullptr.
  const std::string* FindTag(std::string_view key) const;

  /// True when the element carries a highway=* tag, i.e. is part of the
  /// road network RASED monitors.
  bool IsRoad() const { return FindTag("highway") != nullptr; }

  /// True when the two versions differ in geometry: node coordinates, way
  /// node list, or relation member list (Section V, monthly crawler).
  static bool GeometryDiffers(const Element& a, const Element& b);

  /// True when the two versions differ in their tag sets.
  static bool TagsDiffer(const Element& a, const Element& b);
};

/// The fields of one element version that the crawlers read: version
/// metadata, node coordinates, the first highway=* value, and the way
/// nodes and relation members that GeometryDiffers compares. Readers fill
/// a caller-owned record in place, so a crawl that reuses one (or swaps
/// two) allocates nothing once its buffers have grown.
struct ElementVersion {
  struct Member {
    ElementType type = ElementType::kNode;
    int64_t ref = 0;
    uint32_t role_offset = 0;  // into `roles`
    uint32_t role_size = 0;
  };

  ElementType type = ElementType::kNode;
  int64_t id = 0;
  int32_t version = 1;
  OsmTimestamp timestamp;
  uint64_t changeset = 0;
  /// False marks a deletion version in full-history files.
  bool visible = true;
  double lat = 0.0;  // nodes
  double lon = 0.0;
  bool has_highway = false;
  std::string highway;             // valid when has_highway
  std::vector<int64_t> node_refs;  // ways
  std::vector<Member> members;     // relations
  std::string roles;               // member roles, back to back

  /// Empties the record for the next version, keeping its buffers.
  void Clear();

  /// The highway=* value, or nullptr when the version has none.
  const std::string* FindHighway() const {
    return has_highway ? &highway : nullptr;
  }

  std::string_view role(const Member& m) const {
    return std::string_view(roles).substr(m.role_offset, m.role_size);
  }

  /// Element::GeometryDiffers on the fields kept here.
  static bool GeometryDiffers(const ElementVersion& a,
                              const ElementVersion& b);
};

}  // namespace rased

#endif  // RASED_OSM_ELEMENT_H_

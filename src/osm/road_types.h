#ifndef RASED_OSM_ROAD_TYPES_H_
#define RASED_OSM_ROAD_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rased {

/// Integer id of a road type (a value of OSM's highway=* tag). Id 0 is
/// reserved for "(none)": elements that are not part of the road network
/// (e.g. a POI node) still produce UpdateList tuples but carry no road type.
using RoadTypeId = uint16_t;
inline constexpr RoadTypeId kRoadTypeNone = 0;

/// RoadTypeTable maps highway=* tag values to the dense RoadType dimension
/// of the data cubes (Section VI-A lists 150 possible road types).
///
/// The table is fixed when it is constructed: "(none)" (id 0), the
/// catch-all "other" (id 1), then the canonical OSM highway taxonomy
/// (motorway .. razed) in its stable order, as far as `capacity` allows.
/// Every other value, and a canonical value past the capacity, maps to
/// "other". So an id depends only on the value and the capacity, never on
/// what was crawled before: a crawl is a pure function of its input, and
/// the fragments of one document can be crawled at once.
///
/// Threading contract: immutable after construction, so every method is
/// safe from any thread without a lock.
class RoadTypeTable {
 public:
  /// `capacity` is the cube dimension size, including slot 0 ("(none)")
  /// and the "other" bucket. The paper uses 150.
  explicit RoadTypeTable(size_t capacity = 150);

  /// Id for a highway tag value: kRoadTypeNone for an empty value, the
  /// "other" bucket for a value the table does not hold.
  RoadTypeId Lookup(std::string_view highway_value) const;

  /// Name for an id ("(none)", "residential", "other", ...).
  const std::string& Name(RoadTypeId id) const;

  /// Number of named ids (including "(none)" and "other"); at most
  /// capacity().
  size_t size() const { return names_.size(); }
  size_t capacity() const { return capacity_; }

  RoadTypeId other_id() const { return kOtherId; }

  /// FNV-1a hash of the names in id order. rased.meta records it, so an
  /// index is never opened against a table that keys its cells otherwise.
  uint64_t Fingerprint() const { return fingerprint_; }

  /// The canonical seed taxonomy (without "(none)"/"other"), in seed order.
  static const std::vector<std::string>& CanonicalHighwayValues();

 private:
  static constexpr RoadTypeId kOtherId = 1;

  const size_t capacity_;
  std::vector<std::string> names_;
  /// Hashes std::string and std::string_view alike, so lookups by view
  /// build no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>()(name);
    }
  };
  std::unordered_map<std::string, RoadTypeId, NameHash, std::equal_to<>>
      index_;
  uint64_t fingerprint_ = 0;
};

}  // namespace rased

#endif  // RASED_OSM_ROAD_TYPES_H_

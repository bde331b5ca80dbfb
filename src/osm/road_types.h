#ifndef RASED_OSM_ROAD_TYPES_H_
#define RASED_OSM_ROAD_TYPES_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/thread_annotations.h"

namespace rased {

/// Integer id of a road type (a value of OSM's highway=* tag). Id 0 is
/// reserved for "(none)": elements that are not part of the road network
/// (e.g. a POI node) still produce UpdateList tuples but carry no road type.
using RoadTypeId = uint16_t;
inline constexpr RoadTypeId kRoadTypeNone = 0;

/// RoadTypeTable maps highway=* tag values to the dense RoadType dimension
/// of the data cubes (Section VI-A lists 150 possible road types).
///
/// The table is pre-seeded with the canonical OSM highway taxonomy
/// (motorway .. bus_stop) and grows on demand: an unseen highway value is
/// assigned the next id until `capacity` is reached, after which it falls
/// into the catch-all "other" bucket. This mirrors how a production RASED
/// would pin the cube dimension while the OSM folksonomy keeps inventing
/// values.
///
/// Threading contract: internally synchronized. Dashboard workers resolve
/// names (Lookup/Name) concurrently while a crawl thread may be interning
/// new values; Name therefore returns by value, never a reference into
/// the growing table.
class RoadTypeTable {
 public:
  /// `capacity` is the cube dimension size, including slot 0 ("(none)")
  /// and the "other" bucket. The paper uses 150.
  explicit RoadTypeTable(size_t capacity = 150);

  /// Id for a highway tag value, interning it if there is room.
  RoadTypeId Intern(std::string_view highway_value) RASED_EXCLUDES(mu_);

  /// Id for a value without interning; returns the "other" bucket when the
  /// value is unknown.
  RoadTypeId Lookup(std::string_view highway_value) const
      RASED_EXCLUDES(mu_);

  /// Name for an id ("(none)", "residential", "other", ...).
  std::string Name(RoadTypeId id) const RASED_EXCLUDES(mu_);

  /// Number of assigned ids (including "(none)" and "other").
  size_t size() const RASED_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return names_.size();
  }
  size_t capacity() const { return capacity_; }

  RoadTypeId other_id() const { return other_id_; }

  /// The canonical seed taxonomy (without "(none)"/"other"), in seed order.
  static const std::vector<std::string>& CanonicalHighwayValues();

 private:
  const size_t capacity_;
  /// Guards the growing name table; held only for map/vector surgery.
  mutable Mutex mu_;
  std::vector<std::string> names_ RASED_GUARDED_BY(mu_);
  /// Hashes std::string and std::string_view alike, so lookups by view
  /// build no std::string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>()(name);
    }
  };
  std::unordered_map<std::string, RoadTypeId, NameHash, std::equal_to<>>
      index_ RASED_GUARDED_BY(mu_);
  RoadTypeId other_id_ RASED_CONST_AFTER_INIT;  // fixed in the constructor
};

}  // namespace rased

#endif  // RASED_OSM_ROAD_TYPES_H_

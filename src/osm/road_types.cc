#include "osm/road_types.h"

#include "util/logging.h"

namespace rased {

const std::vector<std::string>& RoadTypeTable::CanonicalHighwayValues() {
  // The core OSM highway taxonomy: principal road classes, their link
  // roads, paths, lifecycle prefixes, and common road-related point
  // features. Order is stable because cube cells are keyed by these ids.
  static const std::vector<std::string>* kValues = new std::vector<std::string>{
      "motorway",       "trunk",          "primary",
      "secondary",      "tertiary",       "unclassified",
      "residential",    "service",        "motorway_link",
      "trunk_link",     "primary_link",   "secondary_link",
      "tertiary_link",  "living_street",  "pedestrian",
      "track",          "bus_guideway",   "escape",
      "raceway",        "road",           "busway",
      "footway",        "bridleway",      "steps",
      "corridor",       "path",           "cycleway",
      "construction",   "proposed",       "planned",
      "platform",       "services",       "rest_area",
      "turning_circle", "turning_loop",   "mini_roundabout",
      "motorway_junction",               "passing_place",
      "traffic_signals","stop",           "give_way",
      "crossing",       "bus_stop",       "speed_camera",
      "street_lamp",    "elevator",       "emergency_bay",
      "emergency_access_point",          "milestone",
      "trailhead",      "toll_gantry",    "traffic_mirror",
      "disused",        "abandoned",      "razed",
  };
  return *kValues;
}

RoadTypeTable::RoadTypeTable(size_t capacity) : capacity_(capacity) {
  RASED_CHECK(capacity_ >= 3) << "need room for (none), other, and one type";
  names_.push_back("(none)");  // slot 0: not a road
  names_.push_back("other");   // slot 1: catch-all bucket
  for (const std::string& v : CanonicalHighwayValues()) {
    if (names_.size() >= capacity_) break;
    names_.push_back(v);
  }
  // "(none)" is reached only by an empty value, never by name.
  fingerprint_ = 14695981039346656037ull;
  for (size_t id = 0; id < names_.size(); ++id) {
    if (id > 0) index_.emplace(names_[id], static_cast<RoadTypeId>(id));
    for (char c : names_[id] + '\n') {
      fingerprint_ ^= static_cast<unsigned char>(c);
      fingerprint_ *= 1099511628211ull;
    }
  }
}

RoadTypeId RoadTypeTable::Lookup(std::string_view highway_value) const {
  if (highway_value.empty()) return kRoadTypeNone;
  auto it = index_.find(highway_value);
  return it != index_.end() ? it->second : kOtherId;
}

const std::string& RoadTypeTable::Name(RoadTypeId id) const {
  RASED_CHECK(id < names_.size()) << "road type id " << id << " out of range";
  return names_[id];
}

}  // namespace rased

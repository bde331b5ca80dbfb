#ifndef RASED_GEO_LATLON_H_
#define RASED_GEO_LATLON_H_

#include <string>

namespace rased {

/// A WGS84-style coordinate. RASED never needs geodesy — only containment
/// tests against axis-aligned boxes — so latitude/longitude are treated as
/// plain planar coordinates in [-90,90] x [-180,180].
struct LatLon {
  double lat = 0.0;
  double lon = 0.0;

  bool IsValid() const {
    return lat >= -90.0 && lat <= 90.0 && lon >= -180.0 && lon <= 180.0;
  }

  std::string ToString() const;

  friend bool operator==(const LatLon& a, const LatLon& b) {
    return a.lat == b.lat && a.lon == b.lon;
  }
};

/// Axis-aligned geographic bounding box (closed on all sides).
struct BoundingBox {
  double min_lat = 0.0;
  double min_lon = 0.0;
  double max_lat = 0.0;
  double max_lon = 0.0;

  static BoundingBox FromPoint(const LatLon& p) {
    return BoundingBox{p.lat, p.lon, p.lat, p.lon};
  }

  /// An explicitly empty (invalid) box; Extend/Union treat it as identity.
  static BoundingBox Empty() { return BoundingBox{1.0, 1.0, -1.0, -1.0}; }

  bool IsValid() const { return min_lat <= max_lat && min_lon <= max_lon; }

  bool Contains(const LatLon& p) const {
    return p.lat >= min_lat && p.lat <= max_lat && p.lon >= min_lon &&
           p.lon <= max_lon;
  }

  bool Contains(const BoundingBox& other) const {
    return other.min_lat >= min_lat && other.max_lat <= max_lat &&
           other.min_lon >= min_lon && other.max_lon <= max_lon;
  }

  bool Intersects(const BoundingBox& other) const {
    return min_lat <= other.max_lat && other.min_lat <= max_lat &&
           min_lon <= other.max_lon && other.min_lon <= max_lon;
  }

  LatLon Center() const {
    return LatLon{(min_lat + max_lat) / 2.0, (min_lon + max_lon) / 2.0};
  }

  /// Planar area in squared degrees (0 for an empty box).
  double Area() const {
    return IsValid() ? (max_lat - min_lat) * (max_lon - min_lon) : 0.0;
  }

  /// Smallest box containing both boxes.
  BoundingBox Union(const BoundingBox& other) const;

  /// Grows the box to include the point.
  void Extend(const LatLon& p);

  std::string ToString() const;

  friend bool operator==(const BoundingBox& a, const BoundingBox& b) {
    return a.min_lat == b.min_lat && a.min_lon == b.min_lon &&
           a.max_lat == b.max_lat && a.max_lon == b.max_lon;
  }
};

}  // namespace rased

#endif  // RASED_GEO_LATLON_H_

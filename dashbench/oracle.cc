#include "oracle.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "dashboard/json_writer.h"
#include "osm/element.h"

namespace dashbench {

using rased::AnalysisQuery;
using rased::Date;
using rased::DateRange;

namespace {

template <typename T>
bool Allowed(const std::vector<T>& filter, uint32_t value) {
  if (filter.empty()) return true;
  for (T v : filter) {
    if (static_cast<uint32_t>(v) == value) return true;
  }
  return false;
}

}  // namespace

rased::Result<Oracle> Oracle::Load(const rased::Rased& rased,
                                   const DateRange& days) {
  Oracle oracle;
  oracle.schema_ = rased.options().schema;
  oracle.days_ = days;
  oracle.ctx_.world = &rased.world();
  oracle.ctx_.road_types = rased.road_types();
  oracle.in_partition_.assign(oracle.schema_.num_countries, false);
  oracle.in_partition_[rased::kZoneUnknown] = true;
  for (rased::ZoneId id : rased.world().country_ids()) {
    oracle.in_partition_[id] = true;
  }
  const rased::CubeSchema& s = oracle.schema_;
  for (Date d = days.first; d <= days.last; d = d.next()) {
    RASED_ASSIGN_OR_RETURN(
        rased::DataCube cube,
        rased.index()->ReadCube(rased::CubeKey::Daily(d)));
    std::vector<Cell>& cells = oracle.cells_.emplace_back();
    cube.ForEachCell(rased::CubeSlice{}, [&](uint32_t et, uint32_t co,
                                             uint32_t rt, uint32_t ut,
                                             uint64_t count) {
      if (count == 0) return;
      uint32_t coords =
          ((et * s.num_countries + co) * s.num_road_types + rt) *
              s.num_update_types + ut;
      cells.push_back(Cell{coords, static_cast<uint32_t>(count)});
    });
  }
  return oracle;
}

std::string Oracle::RowsJson(const AnalysisQuery& q) const {
  const rased::CubeSchema& s = schema_;
  DateRange window = q.range.Intersect(days_);
  // Key order (element, date, country, road, update), -1 when ungrouped:
  // the dashboard's row order.
  std::map<std::array<int32_t, 5>, uint64_t> groups;
  for (Date d = window.first; d <= window.last; d = d.next()) {
    for (const Cell& cell : cells_[static_cast<size_t>(d - days_.first)]) {
      uint32_t c = cell.coords;
      uint32_t ut = c % s.num_update_types;
      c /= s.num_update_types;
      uint32_t rt = c % s.num_road_types;
      c /= s.num_road_types;
      uint32_t co = c % s.num_countries;
      uint32_t et = c / s.num_countries;
      bool country_ok = q.countries.empty() ? bool(in_partition_[co])
                                            : Allowed(q.countries, co);
      if (!country_ok || !Allowed(q.element_types, et) ||
          !Allowed(q.road_types, rt) || !Allowed(q.update_types, ut)) {
        continue;
      }
      std::array<int32_t, 5> key = {
          q.group_element_type ? static_cast<int32_t>(et) : -1,
          q.group_date ? d.days_since_epoch() : -1,
          q.group_country ? static_cast<int32_t>(co) : -1,
          q.group_road_type ? static_cast<int32_t>(rt) : -1,
          q.group_update_type ? static_cast<int32_t>(ut) : -1};
      groups[key] += cell.count;
    }
  }
  rased::JsonWriter w;
  w.BeginArray();
  for (const auto& [key, count] : groups) {
    w.BeginObject();
    if (q.group_country) {
      w.KV("country", std::string_view(ctx_.CountryName(key[2])));
    }
    if (q.group_date) {
      w.KV("date", std::string_view(Date::FromDays(key[1]).ToString()));
    }
    if (q.group_element_type) {
      w.KV("element_type",
           rased::ElementTypeName(static_cast<rased::ElementType>(key[0])));
    }
    if (q.group_road_type) {
      w.KV("road_type", std::string_view(ctx_.RoadTypeName(key[3])));
    }
    if (q.group_update_type) {
      w.KV("update_type",
           rased::UpdateTypeName(static_cast<rased::UpdateType>(key[4])));
    }
    w.KV("count", count);
    w.EndObject();
  }
  w.EndArray();
  return std::move(w).Finish();
}

uint64_t Oracle::Total(const DateRange& range) const {
  AnalysisQuery q;
  q.range = range;
  DateRange window = q.range.Intersect(days_);
  uint64_t total = 0;
  for (Date d = window.first; d <= window.last; d = d.next()) {
    for (const Cell& cell : cells_[static_cast<size_t>(d - days_.first)]) {
      uint32_t co = (cell.coords / (schema_.num_update_types *
                                    schema_.num_road_types)) %
                    schema_.num_countries;
      if (in_partition_[co]) total += cell.count;
    }
  }
  return total;
}

std::string_view RowsOf(std::string_view body) {
  constexpr std::string_view kHead = "{\"rows\":";
  constexpr std::string_view kStats = ",\"stats\":";
  if (body.substr(0, kHead.size()) != kHead) return {};
  size_t stats = body.rfind(kStats);
  if (stats == std::string_view::npos || stats < kHead.size()) return {};
  return body.substr(kHead.size(), stats - kHead.size());
}

bool SamplesInside(std::string_view body, const rased::BoundingBox& box,
                   size_t* count) {
  *count = 0;
  if (body.substr(0, 12) != "{\"samples\":[") return false;
  // The dashboard prints coordinates to six significant digits (three
  // decimals for a longitude of 100 or more); allow for that rounding at
  // the box edges.
  constexpr double kSlack = 1e-3;
  size_t pos = 0;
  while ((pos = body.find("\"lat\":", pos)) != std::string_view::npos) {
    std::string lat_text(body.substr(pos + 6, 32));
    size_t lon_pos = body.find("\"lon\":", pos);
    if (lon_pos == std::string_view::npos) return false;
    std::string lon_text(body.substr(lon_pos + 6, 32));
    double lat = std::strtod(lat_text.c_str(), nullptr);
    double lon = std::strtod(lon_text.c_str(), nullptr);
    if (lat < box.min_lat - kSlack || lat > box.max_lat + kSlack ||
        lon < box.min_lon - kSlack || lon > box.max_lon + kSlack) {
      std::fprintf(stderr, "[dashbench] sample (%g, %g) outside its box\n",
                   lat, lon);
      return false;
    }
    ++*count;
    pos = lon_pos;
  }
  return true;
}

}  // namespace dashbench

#include "index/cube_builder.h"

#include "util/logging.h"

namespace rased {

CubeBuilder::CubeBuilder(const CubeSchema& schema, const WorldMap* world)
    : schema_(schema), world_(world) {
  RASED_CHECK(world_->num_zones() == schema_.num_countries)
      << "world map has " << world_->num_zones() << " zones but schema's "
      << "Country dimension is " << schema_.num_countries;
}

template <typename Visit>
void CubeBuilder::ForEachCell(const UpdateRecord& record,
                              Visit&& visit) const {
  uint32_t et = static_cast<uint32_t>(record.element_type);
  uint32_t ut = static_cast<uint32_t>(record.update_type);
  // Road types beyond the schema's dimension collapse into the "other"
  // bucket (id 1), mirroring RoadTypeTable's capacity behaviour.
  uint32_t rt = record.road_type < schema_.num_road_types ? record.road_type
                                                          : 1u;
  RASED_DCHECK(schema_.InRange(et, 0, rt, ut))
      << "record coordinate out of range";
  WorldMap::ZoneSet zones = world_->ZonesForCountry(
      record.country, LatLon{record.lat, record.lon});
  if (zones.count == 0) {
    // Unlocatable update: counted under the (unknown) zone.
    visit(schema_.CellIndex(et, kZoneUnknown, rt, ut));
    return;
  }
  for (int i = 0; i < zones.count; ++i) {
    visit(schema_.CellIndex(et, zones.ids[i], rt, ut));
  }
}

void CubeBuilder::AddRecord(const UpdateRecord& record,
                            std::vector<CubeCell>* pairs) const {
  ForEachCell(record, [pairs](size_t cell) {
    pairs->push_back(CubeCell{cell, 1});
  });
}

void CubeBuilder::AddRecord(const UpdateRecord& record,
                            DataCube* cube) const {
  uint64_t* cells = cube->mutable_cells();
  ForEachCell(record, [cells](size_t cell) { ++cells[cell]; });
}

SparseCube CubeBuilder::BuildSparseCube(
    const std::vector<UpdateRecord>& records) const {
  std::vector<CubeCell> pairs;
  for (const UpdateRecord& r : records) AddRecord(r, &pairs);
  return SparseCube::FromPairs(schema_, std::move(pairs));
}

std::map<Date, SparseCube> CubeBuilder::BuildSparseDailyCubes(
    std::span<const std::vector<UpdateRecord>> parts) const {
  std::map<Date, std::vector<CubeCell>> pairs;
  for (const std::vector<UpdateRecord>& part : parts) {
    for (const UpdateRecord& r : part) AddRecord(r, &pairs[r.date]);
  }
  std::map<Date, SparseCube> cubes;
  for (auto& [day, day_pairs] : pairs) {
    cubes.emplace(day, SparseCube::FromPairs(schema_, std::move(day_pairs)));
  }
  return cubes;
}

DataCube CubeBuilder::BuildCube(
    const std::vector<UpdateRecord>& records) const {
  return BuildSparseCube(records).ToDense();
}

std::map<Date, DataCube> CubeBuilder::BuildDailyCubes(
    const std::vector<UpdateRecord>& records) const {
  std::map<Date, DataCube> cubes;
  for (const auto& [day, cube] : BuildSparseDailyCubes(records)) {
    cubes.emplace(day, cube.ToDense());
  }
  return cubes;
}

}  // namespace rased

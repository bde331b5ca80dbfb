#ifndef RASED_INDEX_CUBE_BUILDER_H_
#define RASED_INDEX_CUBE_BUILDER_H_

#include <map>
#include <span>
#include <vector>

#include "collect/update_record.h"
#include "cube/data_cube.h"
#include "cube/sparse_cube.h"
#include "geo/world_map.h"
#include "util/date.h"
#include "util/result.h"

namespace rased {

/// Turns UpdateList tuples into data-cube increments. One update increments
/// the cell of its country *and* of every zone of interest containing it
/// (continent, US state), so the aggregate zones the paper exposes in the
/// Country dimension stay consistent with their members.
///
/// The ingest paths build SparseCubes (the write form, cube/sparse_cube.h):
/// each record becomes one (cell, 1) pair per zone, and the pairs are
/// sorted and coalesced once per cube. The DataCube overloads map records
/// to the same cells and serve callers that want the dense image.
class CubeBuilder {
 public:
  /// The world map's zone count must equal schema.num_countries (zone ids
  /// are used directly as Country-dimension coordinates).
  CubeBuilder(const CubeSchema& schema, const WorldMap* world);

  const CubeSchema& schema() const { return schema_; }

  /// Appends one (cell, 1) pair per cell the record increments. The
  /// record's date is not checked — callers route records to the cube of
  /// the right day, then build it with SparseCube::FromPairs.
  void AddRecord(const UpdateRecord& record,
                 std::vector<CubeCell>* pairs) const;

  /// Adds one record to a dense cube (the same cells).
  void AddRecord(const UpdateRecord& record, DataCube* cube) const;

  /// Builds one cube from all records (regardless of date) — the daily
  /// maintenance path, where the input is one day's UpdateList.
  SparseCube BuildSparseCube(const std::vector<UpdateRecord>& records) const;

  /// Groups records by date into per-day cubes (missing days absent) — the
  /// monthly rebuild path.
  std::map<Date, SparseCube> BuildSparseDailyCubes(
      const std::vector<UpdateRecord>& records) const {
    return BuildSparseDailyCubes({&records, 1});
  }
  /// The same over one crawl's tuples in parts, taken in order.
  std::map<Date, SparseCube> BuildSparseDailyCubes(
      std::span<const std::vector<UpdateRecord>> parts) const;

  /// Dense images of BuildSparseCube / BuildSparseDailyCubes.
  DataCube BuildCube(const std::vector<UpdateRecord>& records) const;
  std::map<Date, DataCube> BuildDailyCubes(
      const std::vector<UpdateRecord>& records) const;

 private:
  /// Calls visit(cell_index) once per cell `record` increments.
  template <typename Visit>
  void ForEachCell(const UpdateRecord& record, Visit&& visit) const;

  CubeSchema schema_;
  const WorldMap* world_;
};

}  // namespace rased

#endif  // RASED_INDEX_CUBE_BUILDER_H_

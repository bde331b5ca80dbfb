#ifndef RASED_CUBE_DATA_CUBE_H_
#define RASED_CUBE_DATA_CUBE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "cube/cube_schema.h"
#include "util/result.h"

namespace rased {

/// Visits one non-zero cell during slice iteration.
using CubeCellVisitor =
    std::function<void(uint32_t element_type, uint32_t country,
                       uint32_t road_type, uint32_t update_type,
                       uint64_t count)>;

/// Which dimensions a GROUP BY keeps. Ungrouped dimensions collapse into
/// one accumulator slot.
struct GroupBySpec {
  bool element_type = false;
  bool country = false;
  bool road_type = false;
  bool update_type = false;
};

/// Number of slots a flat dense group-by accumulator needs for `spec`
/// under `schema`: the product of the grouped dimension sizes (>= 1).
/// Slot order is row-major over the grouped dimensions in schema order
/// (element_type, country, road_type, update_type) — the same order cube
/// cells are laid out in, so a fully grouped accumulator is cell order.
size_t GroupAccumulatorSize(const CubeSchema& schema, const GroupBySpec& spec);

/// Non-owning, read-only view of one cube's cells — the zero-copy
/// aggregation handle. A DataCube yields one via View(); a CubeBatch
/// yields one per fetched cube, so cubes read from a page buffer are
/// aggregated without an intermediate deserialize copy. The view borrows
/// both the schema and the cells; the owner must outlive it.
///
/// All methods are const and touch only the borrowed immutable cells, so
/// any number of threads may aggregate through views concurrently.
class ConstCubeRef {
 public:
  ConstCubeRef(const CubeSchema* schema, const uint64_t* cells)
      : schema_(schema), cells_(cells) {}

  const CubeSchema& schema() const { return *schema_; }
  const uint64_t* cells() const { return cells_; }

  uint64_t Get(uint32_t element_type, uint32_t country, uint32_t road_type,
               uint32_t update_type) const;

  /// Sum of every cell.
  uint64_t Total() const;

  /// Sum of the cells selected by `slice` (empty dimension list = all).
  uint64_t SumSlice(const CubeSlice& slice) const;

  /// The dense group-by kernel: folds every cell selected by `slice` into
  /// `acc`, a flat accumulator of GroupAccumulatorSize(schema, spec)
  /// slots indexed by the packed grouped coordinates. Innermost
  /// dimensions that are neither constrained nor grouped are reduced with
  /// contiguous strided sums instead of per-cell visits. `slice` must be
  /// Normalized (sorted, deduplicated).
  void SumSliceInto(const CubeSlice& slice, const GroupBySpec& spec,
                    uint64_t* acc) const;

  /// Visits every *non-zero* cell selected by `slice` — the naive
  /// reference the kernels are property-tested against.
  void ForEachCell(const CubeSlice& slice, const CubeCellVisitor& visit) const;

 private:
  const CubeSchema* schema_;
  const uint64_t* cells_;
};

/// A dense 4-D array of update counters — one index node's precomputed
/// statistics (Section VI-A) laid out for aggregation: the query kernels
/// stride over it. It is not the write form. Maintenance builds, rolls up
/// and encodes cubes as SparseCube cell lists (cube/sparse_cube.h), since
/// a day's updates touch a few thousand of a paper-scale cube's 549,000
/// cells; a DataCube handed to the index is converted once at its API
/// edge.
class DataCube {
 public:
  /// A zero-filled cube.
  explicit DataCube(const CubeSchema& schema);

  DataCube(const DataCube&) = default;
  DataCube& operator=(const DataCube&) = default;
  DataCube(DataCube&&) = default;
  DataCube& operator=(DataCube&&) = default;

  const CubeSchema& schema() const { return schema_; }

  /// Zero-copy read view of this cube (valid while the cube lives).
  ConstCubeRef View() const { return ConstCubeRef(&schema_, cells_.data()); }

  /// Increments one cell. Coordinates must be in range (DCHECKed).
  void Add(uint32_t element_type, uint32_t country, uint32_t road_type,
           uint32_t update_type, uint64_t count = 1);

  uint64_t Get(uint32_t element_type, uint32_t country, uint32_t road_type,
               uint32_t update_type) const;

  /// Element-wise sum with another cube of the same schema, modulo 2^64
  /// (SparseCube::Merge is the index's rollup and sums the same way).
  Status Merge(const DataCube& other);

  void Clear();

  /// Sum of every cell.
  uint64_t Total() const;

  /// Sum of the cells selected by `slice` (empty dimension list = all).
  uint64_t SumSlice(const CubeSlice& slice) const;

  /// See ConstCubeRef::SumSliceInto.
  void SumSliceInto(const CubeSlice& slice, const GroupBySpec& spec,
                    uint64_t* acc) const {
    View().SumSliceInto(slice, spec, acc);
  }

  /// Visits every *non-zero* cell selected by `slice`.
  using CellVisitor = CubeCellVisitor;
  void ForEachCell(const CubeSlice& slice, const CellVisitor& visit) const;

  /// Raw counters in schema cell order.
  const std::vector<uint64_t>& cells() const { return cells_; }

  /// Writable counters (num_cells() of them), for decoders and builders
  /// that fill a cube in place.
  uint64_t* mutable_cells() { return cells_.data(); }

  // --- serialization (page payload format: raw little-endian counters) ---

  size_t SerializedBytes() const { return schema_.cube_bytes(); }

  /// Writes SerializedBytes() bytes to `out`.
  void SerializeTo(unsigned char* out) const;

  /// Reads a cube previously serialized with the same schema. `n` must be
  /// at least schema.cube_bytes().
  static Result<DataCube> Deserialize(const CubeSchema& schema,
                                      const unsigned char* data, size_t n);

  /// Owning copy of num_cells() counters (e.g. materializing one cube out
  /// of a CubeBatch for cache admission).
  static DataCube FromCells(const CubeSchema& schema, const uint64_t* cells);

  friend bool operator==(const DataCube& a, const DataCube& b) {
    return a.schema_ == b.schema_ && a.cells_ == b.cells_;
  }

 private:
  CubeSchema schema_;
  std::vector<uint64_t> cells_;
};

/// Owning container for N cubes fetched in one batched read: a single
/// 8-byte-aligned allocation of N * num_cells() counters, filled directly
/// by the pager (page payloads land at cube_bytes() stride), with
/// zero-copy per-cube views. One allocation and one payload copy per
/// batch, instead of the per-cube vector + Deserialize memcpy of the
/// serial path.
class CubeBatch {
 public:
  CubeBatch() = default;
  CubeBatch(const CubeSchema& schema, size_t num_cubes);

  const CubeSchema& schema() const { return schema_; }
  size_t size() const { return num_cubes_; }

  /// Zero-copy view of cube `i` (valid while the batch lives).
  ConstCubeRef cube(size_t i) const;

  /// Owning copy of cube `i` (for cache admission).
  DataCube Materialize(size_t i) const;

  /// The backing store as bytes: size() * schema().cube_bytes(),
  /// cube-serialization format at cube_bytes() stride. The pager's
  /// batched read writes payloads straight into this.
  unsigned char* raw_bytes();

 private:
  CubeSchema schema_;
  size_t num_cubes_ = 0;
  std::vector<uint64_t> cells_;  // num_cubes * num_cells, cube-major
};

}  // namespace rased

#endif  // RASED_CUBE_DATA_CUBE_H_

#ifndef RASED_CUBE_SPARSE_CUBE_H_
#define RASED_CUBE_SPARSE_CUBE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cube/cube_schema.h"
#include "cube/data_cube.h"

namespace rased {

/// One non-zero cell of a SparseCube: a linear cell index
/// (CubeSchema::CellIndex) and its count.
struct CubeCell {
  uint64_t index = 0;
  uint64_t count = 0;

  friend bool operator==(const CubeCell& a, const CubeCell& b) {
    return a.index == b.index && a.count == b.count;
  }
};

/// The write form of a cube (DESIGN.md section 11.6): its non-zero cells as
/// a list of (cell index, count) pairs. A day of updates touches a few
/// thousand of a paper-scale cube's 549,000 cells, so building, rolling up
/// and encoding cubes in this form costs work proportional to the updates,
/// not to the cube.
///
/// Invariants, held by every constructor: cell indexes are strictly
/// increasing and below schema().num_cells(), and no count is zero. Counts
/// add modulo 2^64, like DataCube::Merge; a cell whose sum wraps to 0 is
/// dropped. Two sparse cubes are equal exactly when their dense images are.
class SparseCube {
 public:
  /// The empty cube.
  explicit SparseCube(const CubeSchema& schema) : schema_(schema) {}

  /// Builds a cube from unordered pairs, e.g. one pair per update: sorts
  /// them by index, sums duplicates and drops zero sums. Every index must
  /// be below schema.num_cells() (DCHECKed).
  static SparseCube FromPairs(const CubeSchema& schema,
                              std::vector<CubeCell> pairs);

  /// The non-zero cells of a dense cube, in cell order.
  static SparseCube FromDense(const DataCube& cube);

  /// Cell-wise sum of `parts`, all of schema `schema` (DCHECKed), in one
  /// k-way pass over their sorted cell lists.
  static SparseCube Merge(const CubeSchema& schema,
                          std::span<const SparseCube* const> parts);

  const CubeSchema& schema() const { return schema_; }
  const std::vector<CubeCell>& cells() const { return cells_; }
  size_t nnz() const { return cells_.size(); }

  /// Sum of every cell, modulo 2^64.
  uint64_t Total() const;

  /// The dense image: a zero-filled cube with this cube's cells set.
  DataCube ToDense() const;

  friend bool operator==(const SparseCube& a, const SparseCube& b) {
    return a.schema_ == b.schema_ && a.cells_ == b.cells_;
  }

 private:
  CubeSchema schema_;
  std::vector<CubeCell> cells_;
};

}  // namespace rased

#endif  // RASED_CUBE_SPARSE_CUBE_H_

#include "cube/sparse_cube.h"

#include <algorithm>

#include "util/logging.h"

namespace rased {

namespace {

bool ByIndex(const CubeCell& a, const CubeCell& b) { return a.index < b.index; }

/// Drops the cells whose sum wrapped to 0 (the no-zero-count invariant).
void DropZeros(std::vector<CubeCell>* cells) {
  std::erase_if(*cells, [](const CubeCell& c) { return c.count == 0; });
}

}  // namespace

SparseCube SparseCube::FromPairs(const CubeSchema& schema,
                                 std::vector<CubeCell> pairs) {
  if (!std::is_sorted(pairs.begin(), pairs.end(), ByIndex)) {
    std::sort(pairs.begin(), pairs.end(), ByIndex);
  }
  // Coalesce runs of one index in place.
  size_t kept = 0;
  for (const CubeCell& pair : pairs) {
    RASED_DCHECK(pair.index < schema.num_cells()) << "cell index out of range";
    if (kept > 0 && pairs[kept - 1].index == pair.index) {
      pairs[kept - 1].count += pair.count;
    } else {
      pairs[kept++] = pair;
    }
  }
  pairs.resize(kept);
  DropZeros(&pairs);
  SparseCube cube(schema);
  cube.cells_ = std::move(pairs);
  return cube;
}

SparseCube SparseCube::FromDense(const DataCube& dense) {
  SparseCube cube(dense.schema());
  const std::vector<uint64_t>& cells = dense.cells();
  for (size_t i = 0; i < cells.size(); ++i) {
    if (cells[i] != 0) cube.cells_.push_back(CubeCell{i, cells[i]});
  }
  return cube;
}

SparseCube SparseCube::Merge(const CubeSchema& schema,
                             std::span<const SparseCube* const> parts) {
  // A min-heap of cursors, one per non-empty part, keyed on the cursor's
  // next cell index: each output cell costs O(log k).
  struct Cursor {
    const CubeCell* next;
    const CubeCell* end;
  };
  auto later = [](const Cursor& a, const Cursor& b) {
    return a.next->index > b.next->index;
  };
  std::vector<Cursor> heap;
  heap.reserve(parts.size());
  size_t widest = 0;
  for (const SparseCube* part : parts) {
    RASED_DCHECK(part->schema_ == schema) << "merging cubes of two schemas";
    if (part->cells_.empty()) continue;
    heap.push_back(Cursor{part->cells_.data(),
                          part->cells_.data() + part->cells_.size()});
    widest = std::max(widest, part->cells_.size());
  }
  std::make_heap(heap.begin(), heap.end(), later);

  SparseCube sum(schema);
  sum.cells_.reserve(widest);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& cursor = heap.back();
    const CubeCell cell = *cursor.next++;
    if (!sum.cells_.empty() && sum.cells_.back().index == cell.index) {
      sum.cells_.back().count += cell.count;
    } else {
      sum.cells_.push_back(cell);
    }
    if (cursor.next == cursor.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
  DropZeros(&sum.cells_);
  return sum;
}

uint64_t SparseCube::Total() const {
  uint64_t total = 0;
  for (const CubeCell& cell : cells_) total += cell.count;
  return total;
}

DataCube SparseCube::ToDense() const {
  DataCube dense(schema_);
  uint64_t* out = dense.mutable_cells();
  for (const CubeCell& cell : cells_) out[cell.index] = cell.count;
  return dense;
}

}  // namespace rased

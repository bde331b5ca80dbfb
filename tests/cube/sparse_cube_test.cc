#include "cube/sparse_cube.h"

#include <gtest/gtest.h>

#include <vector>

namespace rased {
namespace {

CubeSchema TinySchema() { return CubeSchema{3, 8, 4, 4}; }  // 384 cells

TEST(SparseCubeTest, FromPairsSortsSumsAndDropsZeros) {
  const SparseCube cube = SparseCube::FromPairs(
      TinySchema(),
      {{9, 1}, {2, 5}, {9, 2}, {383, 4}, {0, 1}, {7, 1}, {7, ~uint64_t{0}}});
  // 7 wrapped to 0 modulo 2^64 and is gone.
  const std::vector<CubeCell> want = {{0, 1}, {2, 5}, {9, 3}, {383, 4}};
  EXPECT_EQ(cube.cells(), want);
  EXPECT_EQ(cube.nnz(), 4u);
  EXPECT_EQ(cube.Total(), 13u);
}

TEST(SparseCubeTest, DenseRoundTrip) {
  DataCube dense(TinySchema());
  dense.Add(0, 0, 0, 0, 3);
  dense.Add(2, 7, 3, 3, 1);  // the last cell
  dense.Add(1, 4, 2, 1, uint64_t{1} << 63);
  const SparseCube sparse = SparseCube::FromDense(dense);
  ASSERT_EQ(sparse.nnz(), 3u);
  EXPECT_EQ(sparse.cells().front().index, 0u);
  EXPECT_EQ(sparse.cells().back().index, TinySchema().num_cells() - 1);
  EXPECT_EQ(sparse.ToDense(), dense);
  EXPECT_EQ(sparse.Total(), dense.Total());
}

TEST(SparseCubeTest, MergeSumsEveryPart) {
  const CubeSchema schema = TinySchema();
  const SparseCube a = SparseCube::FromPairs(schema, {{1, 1}, {5, 2}});
  const SparseCube b = SparseCube::FromPairs(schema, {{5, 3}, {6, 1}});
  const SparseCube c = SparseCube::FromPairs(schema, {{0, 4}, {6, ~uint64_t{0}}});
  const SparseCube empty(schema);
  const SparseCube* parts[] = {&a, &empty, &b, &c};
  const SparseCube sum = SparseCube::Merge(schema, parts);
  const std::vector<CubeCell> want = {{0, 4}, {1, 1}, {5, 5}};
  EXPECT_EQ(sum.cells(), want);

  const SparseCube* one[] = {&b};
  EXPECT_EQ(SparseCube::Merge(schema, one), b);
}

}  // namespace
}  // namespace rased

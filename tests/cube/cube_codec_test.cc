#include "cube/cube_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "cube/data_cube.h"
#include "cube/sparse_cube.h"
#include "util/random.h"

namespace rased {
namespace {

CubeSchema TinySchema() { return CubeSchema{3, 8, 4, 4}; }  // 384 cells

constexpr uint64_t kHighBit = uint64_t{1} << 63;

/// Fills ~density * num_cells cells with random small counts.
DataCube RandomCube(const CubeSchema& schema, double density, uint64_t seed) {
  Rng rng(seed);
  DataCube cube(schema);
  for (uint32_t et = 0; et < schema.num_element_types; ++et) {
    for (uint32_t co = 0; co < schema.num_countries; ++co) {
      for (uint32_t rt = 0; rt < schema.num_road_types; ++rt) {
        for (uint32_t ut = 0; ut < schema.num_update_types; ++ut) {
          if (rng.Bernoulli(density)) {
            cube.Add(et, co, rt, ut, rng.Uniform(1000) + 1);
          }
        }
      }
    }
  }
  return cube;
}

void PutVarint(std::vector<unsigned char>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<unsigned char>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<unsigned char>(v));
}

/// Fills every cell with a full-width count: a COO entry then costs more
/// than the 8-byte dense cell, so the adaptive encoder stores it dense.
DataCube FullWidthCube(const CubeSchema& schema, uint64_t seed) {
  Rng rng(seed);
  DataCube cube(schema);
  for (size_t i = 0; i < schema.num_cells(); ++i) {
    cube.mutable_cells()[i] = rng.Next() | kHighBit;
  }
  return cube;
}

/// The COO body length of `cube`, counted independently of the encoder.
size_t CooBodyBytes(const SparseCube& cube) {
  std::vector<unsigned char> body;
  PutVarint(&body, cube.nnz());
  uint64_t next_min = 0;
  for (const CubeCell& cell : cube.cells()) {
    PutVarint(&body, cell.index - next_min);
    PutVarint(&body, cell.count);
    next_min = cell.index + 1;
  }
  return body.size();
}

/// The densities the encoder must round-trip: empty, deep-sparse, mid and
/// fully dense.
constexpr double kDensities[] = {0.0, 0.01, 0.05, 0.10, 0.30, 0.70, 1.0};

constexpr CubeEncodingPolicy kPolicies[] = {CubeEncodingPolicy::kAdaptive,
                                            CubeEncodingPolicy::kForceDense};

TEST(CubeCodecTest, RoundTripAllDensities) {
  const CubeSchema schema = TinySchema();
  for (double density : kDensities) {
    for (uint64_t seed = 1; seed <= 5; ++seed) {
      DataCube cube = RandomCube(schema, density, seed);
      for (CubeEncodingPolicy policy : kPolicies) {
        EncodedCube encoded = EncodedCube::Encode(cube, policy);
        auto decoded = encoded.Decode();
        ASSERT_TRUE(decoded.ok())
            << CubeEncodingName(encoded.encoding()) << " density=" << density
            << ": " << decoded.status().ToString();
        EXPECT_EQ(decoded.value(), cube)
            << CubeEncodingName(encoded.encoding()) << " density=" << density;
        // Never a bigger-than-dense body.
        EXPECT_LE(encoded.body_bytes(), schema.cube_bytes());
      }
    }
  }
}

TEST(CubeCodecTest, AllZeroCubeEncodesTiny) {
  DataCube cube(TinySchema());
  EncodedCube encoded = EncodedCube::Encode(cube);
  EXPECT_EQ(encoded.encoding(), CubeEncoding::kSparseCoo);
  EXPECT_EQ(encoded.body_bytes(), 1u);  // varint nnz = 0
  auto decoded = encoded.Decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), cube);
}

TEST(CubeCodecTest, FullyDenseCubeStillRoundTrips) {
  DataCube cube = FullWidthCube(TinySchema(), 99);
  EncodedCube encoded = EncodedCube::Encode(cube);
  EXPECT_EQ(encoded.encoding(), CubeEncoding::kDenseRaw);
  auto decoded = encoded.Decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), cube);
}

TEST(CubeCodecTest, ForceDensePolicyIsDenseRaw) {
  DataCube cube = RandomCube(TinySchema(), 0.02, 7);
  EncodedCube encoded =
      EncodedCube::Encode(cube, CubeEncodingPolicy::kForceDense);
  EXPECT_EQ(encoded.encoding(), CubeEncoding::kDenseRaw);
  EXPECT_EQ(encoded.body_bytes(), TinySchema().cube_bytes());
  auto decoded = encoded.Decode();
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), cube);
}

// The size rule: COO exactly when its body is smaller than the dense
// image, whatever the density — a full cube of small counts stores COO.
TEST(CubeCodecTest, SparseChosenBelowThresholdDeltaAbove) {
  const CubeSchema schema = TinySchema();
  const DataCube cubes[] = {RandomCube(schema, 0.03, 3),
                            RandomCube(schema, 1.0, 3),
                            FullWidthCube(schema, 3)};
  const CubeEncoding want[] = {CubeEncoding::kSparseCoo,
                               CubeEncoding::kSparseCoo,
                               CubeEncoding::kDenseRaw};
  for (size_t i = 0; i < std::size(cubes); ++i) {
    const SparseCube sparse = SparseCube::FromDense(cubes[i]);
    EXPECT_EQ(CooBodyBytes(sparse) < schema.cube_bytes(),
              want[i] == CubeEncoding::kSparseCoo)
        << i;
    EncodedCube encoded = EncodedCube::Encode(sparse);
    EXPECT_EQ(encoded.encoding(), want[i]) << i;
    EXPECT_EQ(encoded.body_bytes(), want[i] == CubeEncoding::kSparseCoo
                                        ? CooBodyBytes(sparse)
                                        : schema.cube_bytes())
        << i;
  }
  // On the edge, 8 cells (a 64-byte dense image): five 10-byte counts
  // and a sixth of 7 bytes make a 1 + 5 * 11 + 8 = 64-byte COO body, which
  // stores dense; a sixth of 6 bytes makes 63, which stores COO.
  const CubeSchema eight{1, 2, 2, 2};
  for (const auto& [sixth, encoding] :
       {std::pair{uint64_t{1} << 42, CubeEncoding::kDenseRaw},
        std::pair{uint64_t{1} << 35, CubeEncoding::kSparseCoo}}) {
    std::vector<CubeCell> cells;
    for (uint64_t i = 0; i < 5; ++i) cells.push_back({i, kHighBit});
    cells.push_back({5, sixth});
    const SparseCube cube = SparseCube::FromPairs(eight, cells);
    EXPECT_EQ(CooBodyBytes(cube), encoding == CubeEncoding::kDenseRaw ? 64u
                                                                       : 63u);
    EXPECT_EQ(EncodedCube::Encode(cube).encoding(), encoding);
  }
}

TEST(CubeCodecTest, SerializeToWritesParsableHeader) {
  DataCube cube = RandomCube(TinySchema(), 0.05, 11);
  EncodedCube encoded = EncodedCube::Encode(cube);
  std::vector<unsigned char> blob(encoded.SerializedBytes());
  encoded.SerializeTo(blob.data());

  auto header = CubeBlobHeader::Parse(blob.data(), blob.size());
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header.value().encoding, encoded.encoding());
  EXPECT_EQ(header.value().body_bytes, encoded.body_bytes());

  auto decoded = DecodeEncodedCube(TinySchema(), header.value().encoding,
                                   blob.data() + CubeBlobHeader::kBytes,
                                   header.value().body_bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), cube);
}

TEST(CubeCodecTest, HeaderRejectsBadMagicVersionReserved) {
  EncodedCube encoded = EncodedCube::Encode(RandomCube(TinySchema(), 0.05, 2));
  std::vector<unsigned char> blob(encoded.SerializedBytes());
  encoded.SerializeTo(blob.data());

  std::vector<unsigned char> bad = blob;
  bad[0] ^= 0xFF;  // magic
  EXPECT_FALSE(CubeBlobHeader::Parse(bad.data(), bad.size()).ok());

  bad = blob;
  bad[4] = 0x7F;  // version
  EXPECT_FALSE(CubeBlobHeader::Parse(bad.data(), bad.size()).ok());

  bad = blob;
  bad[6] = 2;  // encoding tag: only dense (0) and sparse (1) exist
  EXPECT_TRUE(CubeBlobHeader::Parse(bad.data(), bad.size())
                  .status()
                  .IsCorruption());

  bad = blob;
  bad[7] = 1;  // reserved must be zero
  EXPECT_FALSE(CubeBlobHeader::Parse(bad.data(), bad.size()).ok());

  // Truncated header.
  EXPECT_FALSE(
      CubeBlobHeader::Parse(blob.data(), CubeBlobHeader::kBytes - 1).ok());
}

TEST(CubeCodecTest, TruncatedBodyIsCorruptionNotUb) {
  const CubeSchema schema = TinySchema();
  for (double density : {0.05, 0.5}) {
    DataCube cube = RandomCube(schema, density, 17);
    EncodedCube encoded = EncodedCube::Encode(cube);
    // Every proper prefix must fail cleanly (truncated varint / short body).
    for (size_t cut : {size_t{0}, size_t{1}, encoded.body_bytes() / 2,
                       encoded.body_bytes() - 1}) {
      if (cut >= encoded.body_bytes()) continue;
      auto decoded =
          DecodeEncodedCube(schema, encoded.encoding(), encoded.body(), cut);
      EXPECT_FALSE(decoded.ok()) << "cut=" << cut << " density=" << density;
    }
  }
}

TEST(CubeCodecTest, TrailingBytesAreCorruption) {
  const CubeSchema schema = TinySchema();
  EncodedCube encoded = EncodedCube::Encode(RandomCube(schema, 0.05, 23));
  std::vector<unsigned char> body(encoded.body(),
                                  encoded.body() + encoded.body_bytes());
  body.push_back(0);
  auto decoded =
      DecodeEncodedCube(schema, encoded.encoding(), body.data(), body.size());
  EXPECT_FALSE(decoded.ok());
}

TEST(CubeCodecTest, OutOfRangeCoordinateIsCorruption) {
  const CubeSchema schema = TinySchema();
  // nnz = 1, first coordinate = num_cells (one past the last valid cell).
  std::vector<unsigned char> body;
  PutVarint(&body, 1);
  PutVarint(&body, schema.num_cells());
  PutVarint(&body, 42);
  auto decoded = DecodeEncodedCube(schema, CubeEncoding::kSparseCoo,
                                   body.data(), body.size());
  EXPECT_FALSE(decoded.ok());

  // Second coordinate walks past the end via its gap.
  body.clear();
  PutVarint(&body, 2);
  PutVarint(&body, schema.num_cells() - 1);  // last valid cell
  PutVarint(&body, 1);
  PutVarint(&body, 0);  // next index = num_cells — out of range
  PutVarint(&body, 1);
  decoded = DecodeEncodedCube(schema, CubeEncoding::kSparseCoo, body.data(),
                              body.size());
  EXPECT_FALSE(decoded.ok());
}

TEST(CubeCodecTest, OverlongVarintIsCorruption) {
  const CubeSchema schema = TinySchema();
  // 11 continuation bytes — more than any 64-bit varint may span.
  std::vector<unsigned char> body(11, 0x80);
  auto decoded = DecodeEncodedCube(schema, CubeEncoding::kSparseCoo,
                                   body.data(), body.size());
  EXPECT_FALSE(decoded.ok());
}

TEST(CubeCodecTest, CorruptBodyFailsAccumulateToo) {
  const CubeSchema schema = TinySchema();
  EncodedCube encoded = EncodedCube::Encode(RandomCube(schema, 0.05, 31));
  CubeSlice slice;
  GroupBySpec spec;
  spec.country = true;
  std::vector<uint64_t> acc(GroupAccumulatorSize(schema, spec), 0);
  Status st = AccumulateEncodedSlice(SliceLuts(schema, slice, spec),
                                     encoded.encoding(), encoded.body(),
                                     encoded.body_bytes() - 1, acc.data());
  EXPECT_FALSE(st.ok());
}

TEST(CubeCodecTest, AccumulateSliceMatchesDenseKernel) {
  const CubeSchema schema = TinySchema();
  Rng rng(123);
  for (double density : kDensities) {
    DataCube cube = RandomCube(schema, density, 1000 + rng.Uniform(1 << 20));
    for (CubeEncodingPolicy policy : kPolicies) {
      EncodedCube encoded = EncodedCube::Encode(cube, policy);
      for (int trial = 0; trial < 8; ++trial) {
        CubeSlice slice;
        if (rng.Bernoulli(0.5)) slice.countries = {0, 3, 5};
        if (rng.Bernoulli(0.5)) slice.road_types = {1, 2};
        if (rng.Bernoulli(0.3)) slice.update_types = {0};
        slice.Normalize();
        GroupBySpec spec;
        spec.element_type = rng.Bernoulli(0.5);
        spec.country = rng.Bernoulli(0.5);
        spec.road_type = rng.Bernoulli(0.5);
        spec.update_type = rng.Bernoulli(0.5);

        const size_t slots = GroupAccumulatorSize(schema, spec);
        std::vector<uint64_t> want(slots, 0);
        cube.SumSliceInto(slice, spec, want.data());
        std::vector<uint64_t> got(slots, 0);
        ASSERT_TRUE(AccumulateEncodedSlice(SliceLuts(schema, slice, spec),
                                           encoded.encoding(), encoded.body(),
                                           encoded.body_bytes(), got.data())
                        .ok());
        EXPECT_EQ(got, want) << CubeEncodingName(encoded.encoding())
                             << " density=" << density << " trial=" << trial;
      }
    }
  }
}

TEST(CubeCodecTest, BatchBindRejectsCatalogMismatch) {
  const CubeSchema schema = TinySchema();
  EncodedCube encoded = EncodedCube::Encode(RandomCube(schema, 0.05, 41));
  const size_t blob_bytes = encoded.SerializedBytes();
  // Arena padded to an 8-byte multiple, as the pager guarantees.
  EncodedCubeBatch batch(schema, 1, (blob_bytes + 7) & ~size_t{7});
  encoded.SerializeTo(batch.arena());

  // Catalog disagreeing with the on-page header must be Corruption.
  ASSERT_EQ(encoded.encoding(), CubeEncoding::kSparseCoo);
  EXPECT_FALSE(
      batch.BindEncoded(0, 0, blob_bytes, CubeEncoding::kDenseRaw).ok());
  EXPECT_FALSE(
      batch.BindEncoded(0, 0, blob_bytes + 1, encoded.encoding()).ok());

  // The matching bind succeeds and decodes.
  ASSERT_TRUE(batch.BindEncoded(0, 0, blob_bytes, encoded.encoding()).ok());
  EXPECT_EQ(batch.encoding(0), encoded.encoding());
  auto decoded = batch.Decode(0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), encoded.Decode().value());
}

// --- The sparse write form's encoder and decoder ---------------------------

/// 1 x 10 x 25 x 4 = 1000 cells: an 8000-byte dense image.
CubeSchema ThousandCellSchema() { return CubeSchema{1, 10, 25, 4}; }

/// One cube built two ways from the same cells: dense increments, and
/// shuffled (index, count) pairs that split each count in up to three
/// (so FromPairs must sort and coalesce). `nnz` distinct cells are
/// non-zero — always including the first and last cell when nnz >= 2 —
/// one in `high_in` with counts of 2^63 and above; a few more cells get
/// pairs that wrap to 0 modulo 2^64 and must vanish.
struct TwinCubes {
  DataCube dense;
  SparseCube sparse;
};

TwinCubes RandomTwins(const CubeSchema& schema, size_t nnz, uint64_t seed,
                      uint64_t high_in = 5) {
  Rng rng(seed);
  const size_t n = schema.num_cells();
  std::vector<uint64_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Uniform(i)]);
  if (nnz >= 2) {
    // Pin the first and last cell into the chosen prefix.
    std::swap(*std::find(order.begin(), order.end(), 0), order[0]);
    std::swap(*std::find(order.begin(), order.end(), n - 1), order[1]);
  }
  DataCube dense(schema);
  std::vector<CubeCell> pairs;
  for (size_t i = 0; i < nnz; ++i) {
    const uint64_t cell = order[i];
    uint64_t count = rng.Uniform(high_in) == 0 ? kHighBit + rng.Uniform(1000)
                                         : rng.Uniform(300) + 1;
    dense.mutable_cells()[cell] = count;
    const uint64_t part = count / 3;
    pairs.push_back(CubeCell{cell, count - 2 * part});
    if (part != 0) {
      pairs.push_back(CubeCell{cell, part});
      pairs.push_back(CubeCell{cell, part});
    }
  }
  // Cells whose pairs sum to 2^64.
  for (size_t i = nnz; i < std::min(n, nnz + 3); ++i) {
    const uint64_t lo = rng.Uniform(1000) + 1;
    pairs.push_back(CubeCell{order[i], lo});
    pairs.push_back(CubeCell{order[i], 0 - lo});
  }
  for (size_t i = pairs.size(); i > 1; --i) {
    std::swap(pairs[i - 1], pairs[rng.Uniform(i)]);
  }
  return TwinCubes{std::move(dense),
                   SparseCube::FromPairs(schema, std::move(pairs))};
}

std::vector<unsigned char> BlobOf(const EncodedCube& encoded) {
  std::vector<unsigned char> blob(encoded.SerializedBytes());
  encoded.SerializeTo(blob.data());
  return blob;
}

TEST(CubeCodecTest, SparseEncodeIsByteIdenticalToDense) {
  const CubeSchema schema = ThousandCellSchema();
  // Non-zero counts from empty to full; where every count is full-width
  // (high_in = 1), the COO body outgrows the 8000-byte dense image at
  // about 727 cells, so both encodings are chosen.
  size_t chosen[2] = {0, 0};
  for (size_t nnz : {0, 1, 2, 50, 99, 100, 101, 150, 400, 700, 750, 1000}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE(testing::Message() << "nnz=" << nnz << " seed=" << seed);
      TwinCubes twins = RandomTwins(schema, nnz, seed, seed % 2 ? 5 : 1);
      ASSERT_EQ(twins.sparse.nnz(), nnz);
      EXPECT_EQ(twins.sparse.ToDense(), twins.dense);
      EXPECT_EQ(SparseCube::FromDense(twins.dense), twins.sparse);
      for (CubeEncodingPolicy policy : kPolicies) {
        EncodedCube from_sparse = EncodedCube::Encode(twins.sparse, policy);
        EXPECT_EQ(BlobOf(from_sparse),
                  BlobOf(EncodedCube::Encode(twins.dense, policy)));
        if (policy == CubeEncodingPolicy::kAdaptive) {
          EXPECT_EQ(from_sparse.encoding() == CubeEncoding::kSparseCoo,
                    CooBodyBytes(twins.sparse) < schema.cube_bytes());
          ++chosen[static_cast<int>(from_sparse.encoding())];
        }
      }
    }
  }
  EXPECT_GT(chosen[static_cast<int>(CubeEncoding::kDenseRaw)], 0u);
  EXPECT_GT(chosen[static_cast<int>(CubeEncoding::kSparseCoo)], 0u);
}

TEST(CubeCodecTest, SparseMergeEncodesLikeDenseSum) {
  const CubeSchema schema = ThousandCellSchema();
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::vector<TwinCubes> twins;
    for (size_t nnz : {30, 2, 70, 0, 45}) {
      twins.push_back(RandomTwins(schema, nnz, seed * 10 + nnz));
    }
    // Two more parts that cancel a cell of the first to 0 mod 2^64.
    const CubeCell victim = twins[0].sparse.cells()[0];
    twins.push_back(TwinCubes{
        DataCube(schema),
        SparseCube::FromPairs(schema, {{victim.index, 0 - victim.count}})});
    twins.back().dense.mutable_cells()[victim.index] = 0 - victim.count;

    DataCube dense_sum(schema);
    std::vector<const SparseCube*> parts;
    for (const TwinCubes& t : twins) {
      ASSERT_TRUE(dense_sum.Merge(t.dense).ok());
      parts.push_back(&t.sparse);
    }
    const SparseCube merged = SparseCube::Merge(schema, parts);
    EXPECT_EQ(merged, SparseCube::FromDense(dense_sum)) << seed;
    EXPECT_EQ(BlobOf(EncodedCube::Encode(merged)),
              BlobOf(EncodedCube::Encode(dense_sum)))
        << seed;
  }
}

TEST(CubeCodecTest, EmptySparseCubeEncodesLikeEmptyDense) {
  const CubeSchema schema = TinySchema();
  const SparseCube wrapped =
      SparseCube::FromPairs(schema, {{7, kHighBit}, {7, kHighBit}});
  for (const SparseCube& empty : {SparseCube(schema), wrapped}) {
    EXPECT_EQ(empty.nnz(), 0u);
    EXPECT_EQ(BlobOf(EncodedCube::Encode(empty)),
              BlobOf(EncodedCube::Encode(DataCube(schema))));
  }
  EXPECT_EQ(SparseCube::Merge(schema, {}), SparseCube(schema));
}

TEST(CubeCodecTest, SparseDecodeRoundTripsEveryEncoding) {
  const CubeSchema schema = TinySchema();
  for (double density : kDensities) {
    DataCube cube = RandomCube(schema, density, 77);
    for (CubeEncodingPolicy policy : kPolicies) {
      EncodedCube encoded = EncodedCube::Encode(cube, policy);
      auto decoded = DecodeSparseCube(schema, encoded.encoding(),
                                      encoded.body(), encoded.body_bytes());
      ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
      EXPECT_EQ(decoded.value(), SparseCube::FromDense(cube))
          << CubeEncodingName(encoded.encoding()) << " density=" << density;
    }
  }
}

TEST(CubeCodecTest, SparseDecodeRejectsWhatAccumulateRejects) {
  const CubeSchema schema = TinySchema();
  const uint64_t n = schema.num_cells();
  std::vector<std::vector<unsigned char>> corrupt;
  // Every proper prefix of a valid body: truncated varints and entries.
  EncodedCube valid = EncodedCube::Encode(RandomCube(schema, 0.05, 5));
  ASSERT_EQ(valid.encoding(), CubeEncoding::kSparseCoo);
  for (size_t cut = 0; cut < valid.body_bytes(); ++cut) {
    corrupt.emplace_back(valid.body(), valid.body() + cut);
  }
  // Trailing bytes after the last entry.
  corrupt.emplace_back(valid.body(), valid.body() + valid.body_bytes());
  corrupt.back().push_back(0);
  auto body = [&](std::initializer_list<uint64_t> varints) {
    std::vector<unsigned char> out;
    for (uint64_t v : varints) PutVarint(&out, v);
    corrupt.push_back(out);
  };
  body({n + 1});           // more entries than cells
  body({1, n, 5});         // first coordinate out of range
  body({2, n - 1, 1, 0, 1});  // a gap walking past the last cell
  // A coordinate that does not increase: the gap would have to be
  // negative, i.e. wrap modulo 2^64.
  body({2, 5, 1, ~uint64_t{0}, 1});
  corrupt.emplace_back(11, 0x80);  // overlong varint

  CubeSlice all;
  GroupBySpec spec;
  spec.country = true;
  const SliceLuts luts(schema, all, spec);
  std::vector<uint64_t> acc(GroupAccumulatorSize(schema, spec), 0);
  for (size_t i = 0; i < corrupt.size(); ++i) {
    const std::vector<unsigned char>& b = corrupt[i];
    EXPECT_FALSE(AccumulateEncodedSlice(luts, CubeEncoding::kSparseCoo,
                                        b.data(), b.size(), acc.data())
                     .ok())
        << i;
    EXPECT_FALSE(
        DecodeSparseCube(schema, CubeEncoding::kSparseCoo, b.data(), b.size())
            .ok())
        << i;
  }
}

}  // namespace
}  // namespace rased

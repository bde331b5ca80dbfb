#include "cube/cube_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cube/data_cube.h"
#include "cube/sparse_cube.h"
#include "geo/world_map.h"
#include "index/cube_builder.h"
#include "synth/update_generator.h"
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

/// A copy of a body in an allocation of exactly its length, with none of
/// the 8-byte padding EncodedCube's storage and the batch arena carry, so
/// a sanitizer build flags any read past the body's last byte.
class ExactBody {
 public:
  ExactBody(const unsigned char* data, size_t size)
      : bytes_(new unsigned char[size]), size_(size) {
    if (size != 0) std::memcpy(bytes_.get(), data, size);
  }
  explicit ExactBody(const std::vector<unsigned char>& body)
      : ExactBody(body.data(), body.size()) {}

  const unsigned char* data() const { return bytes_.get(); }
  size_t size() const { return size_; }

 private:
  std::unique_ptr<unsigned char[]> bytes_;
  size_t size_;
};

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
      const ExactBody prefix(encoded.body(), cut);
      auto decoded = DecodeEncodedCube(schema, encoded.encoding(),
                                       prefix.data(), prefix.size());
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
  const ExactBody prefix(encoded.body(), encoded.body_bytes() - 1);
  Status st = AccumulateEncodedSlice(SliceLuts(schema, slice, spec),
                                     encoded.encoding(), prefix.data(),
                                     prefix.size(), acc.data());
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
    const ExactBody b(corrupt[i]);
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

// --- The COO core at paper scale --------------------------------------------
//
// At the paper-scale schema (549,000 cells) a daily cube's gaps take 1, 2
// and sometimes 3 bytes, so these tests reach both the core's two-entry
// word path and its per-cell path, and every switch between them; the
// tiny schemas above never need a 2-byte gap.

/// Synthesized days at the paper rate (500 updates a day, seed 1) over
/// the paper-scale world, as the dashboard benchmark's fixture makes them.
class PaperRateDays {
 public:
  PaperRateDays() : world_(305), roads_(150) {}

  SparseCube Day(Date day) const {
    SynthOptions options;
    options.seed = 1;
    options.base_updates_per_day = 500.0;
    options.period = DateRange(Date::FromYmd(2020, 1, 1),
                               Date::FromYmd(2021, 12, 31));
    UpdateGenerator gen(options, &world_, &roads_);
    CubeBuilder builder(CubeSchema::PaperScale(), &world_);
    return builder.BuildSparseCube(gen.GenerateDayRecords(day));
  }

  const WorldMap& world() const { return world_; }

 private:
  WorldMap world_;
  RoadTypeTable roads_;
};

/// A slice and GROUP BY a query folds its cubes through.
struct FoldShape {
  CubeSlice slice;
  GroupBySpec spec;
};

/// The dashboard's four panels: the date series (no cell dimension
/// grouped), the choropleth (country), the histogram (road type x update
/// type) and the one-country detail (update type); unfiltered countries
/// range over the executor's default partition.
std::vector<FoldShape> PanelShapes(const WorldMap& world) {
  CubeSlice partition;
  partition.countries.push_back(kZoneUnknown);
  for (ZoneId id : world.country_ids()) partition.countries.push_back(id);
  std::vector<FoldShape> shapes(4, FoldShape{partition, GroupBySpec{}});
  shapes[1].spec.country = true;
  shapes[2].spec.road_type = shapes[2].spec.update_type = true;
  shapes[3].slice.countries = {world.country_ids()[7]};
  shapes[3].spec.update_type = true;
  for (FoldShape& shape : shapes) shape.slice.Normalize();
  return shapes;
}

/// A random IN-list of up to `max_values` values below `size`, or none.
std::vector<uint32_t> RandomFilter(Rng* rng, uint32_t size,
                                   uint32_t max_values) {
  std::vector<uint32_t> values;
  if (rng->Bernoulli(0.4)) return values;
  const uint64_t n = 1 + rng->Uniform(max_values);
  for (uint64_t i = 0; i < n; ++i) {
    values.push_back(static_cast<uint32_t>(rng->Uniform(size)));
  }
  return values;
}

FoldShape RandomShape(const CubeSchema& schema, Rng* rng) {
  FoldShape shape;
  shape.slice.element_types =
      RandomFilter(rng, schema.num_element_types, 2);
  shape.slice.countries = RandomFilter(rng, schema.num_countries, 60);
  shape.slice.road_types = RandomFilter(rng, schema.num_road_types, 30);
  shape.slice.update_types = RandomFilter(rng, schema.num_update_types, 3);
  shape.slice.Normalize();
  shape.spec.element_type = rng->Bernoulli(0.5);
  shape.spec.country = rng->Bernoulli(0.5);
  shape.spec.road_type = rng->Bernoulli(0.5);
  shape.spec.update_type = rng->Bernoulli(0.5);
  return shape;
}

/// The dense kernel's answer for `cube` folded through `shape`.
std::vector<uint64_t> DenseFold(const DataCube& cube, const FoldShape& shape) {
  std::vector<uint64_t> acc(GroupAccumulatorSize(cube.schema(), shape.spec),
                            0);
  cube.SumSliceInto(shape.slice, shape.spec, acc.data());
  return acc;
}

TEST(CubeCodecTest, PaperScaleAccumulateMatchesDenseKernel) {
  const CubeSchema schema = CubeSchema::PaperScale();
  const PaperRateDays days;
  std::vector<SparseCube> cubes = {days.Day(Date::FromYmd(2020, 6, 15)),
                                   days.Day(Date::FromYmd(2021, 3, 2))};
  // Random cubes from 3-byte gaps (20 cells) to 1-byte ones (40,000),
  // with 1-, 2- and 10-byte counts.
  for (size_t nnz : {1, 20, 300, 5000, 40000}) {
    cubes.push_back(RandomTwins(schema, nnz, nnz + 7).sparse);
  }
  const std::vector<FoldShape> panels = PanelShapes(days.world());
  Rng rng(2027);
  for (size_t c = 0; c < cubes.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "cube " << c);
    const DataCube dense = cubes[c].ToDense();
    const EncodedCube encoded = EncodedCube::Encode(cubes[c]);
    ASSERT_EQ(encoded.encoding(), CubeEncoding::kSparseCoo);
    const ExactBody body(encoded.body(), encoded.body_bytes());
    std::vector<FoldShape> shapes = panels;
    for (int i = 0; i < 8; ++i) shapes.push_back(RandomShape(schema, &rng));
    for (size_t k = 0; k < shapes.size(); ++k) {
      const FoldShape& shape = shapes[k];
      const SliceLuts luts(schema, shape.slice, shape.spec);
      const size_t slots = GroupAccumulatorSize(schema, shape.spec);
      const std::vector<uint64_t> want = DenseFold(dense, shape);
      std::vector<uint64_t> got(slots, 0);
      ASSERT_TRUE(AccumulateEncodedSlice(luts, CubeEncoding::kSparseCoo,
                                         body.data(), body.size(),
                                         got.data())
                      .ok());
      EXPECT_EQ(got, want) << "shape " << k;
      // With a touched-slot bitmap: the same sums, a bit for every
      // non-zero slot, and none past the accumulator.
      std::vector<uint64_t> tracked(slots, 0);
      std::vector<uint64_t> touched(TouchedWords(slots) + 1, 0);
      ASSERT_TRUE(AccumulateEncodedSlice(luts, CubeEncoding::kSparseCoo,
                                         body.data(), body.size(),
                                         tracked.data(), touched.data())
                      .ok());
      EXPECT_EQ(tracked, want) << "shape " << k;
      for (size_t slot = 0; slot < touched.size() * 64; ++slot) {
        const bool bit = (touched[slot / 64] >> (slot % 64)) & 1;
        if (slot >= slots) {
          ASSERT_FALSE(bit) << "shape " << k << " slot " << slot;
        } else if (want[slot] != 0) {
          ASSERT_TRUE(bit) << "shape " << k << " slot " << slot;
        }
      }
    }
    auto decoded = DecodeSparseCube(schema, CubeEncoding::kSparseCoo,
                                    body.data(), body.size());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded.value(), cubes[c]);
  }
}

/// One COO entry's bytes, as written or altered by a test.
struct RawEntry {
  std::vector<unsigned char> gap, count;
};

/// The entries of a canonical COO body, in order.
std::vector<RawEntry> EntriesOf(const SparseCube& cube) {
  std::vector<RawEntry> entries;
  uint64_t next_min = 0;
  for (const CubeCell& cell : cube.cells()) {
    RawEntry entry;
    PutVarint(&entry.gap, cell.index - next_min);
    PutVarint(&entry.count, cell.count);
    entries.push_back(std::move(entry));
    next_min = cell.index + 1;
  }
  return entries;
}

/// A COO body claiming `nnz` entries followed by `entries`' bytes.
std::vector<unsigned char> BodyOf(uint64_t nnz,
                                  const std::vector<RawEntry>& entries) {
  std::vector<unsigned char> body;
  PutVarint(&body, nnz);
  for (const RawEntry& entry : entries) {
    body.insert(body.end(), entry.gap.begin(), entry.gap.end());
    body.insert(body.end(), entry.count.begin(), entry.count.end());
  }
  return body;
}

std::vector<unsigned char> BodyOf(const std::vector<RawEntry>& entries) {
  return BodyOf(entries.size(), entries);
}

// Accumulate and the sparse decoder share one core, so they must accept
// and reject exactly the same bodies; where they accept, they must agree
// on the cells. Every body sits in an allocation of exactly its length.
TEST(CubeCodecTest, PaperScaleSweepAcceptsAndRejectsAlike) {
  const CubeSchema schema = CubeSchema::PaperScale();
  const uint64_t n = schema.num_cells();
  const PaperRateDays days;
  const SparseCube day = days.Day(Date::FromYmd(2020, 6, 15));
  const std::vector<RawEntry> base = EntriesOf(day);
  const std::vector<unsigned char> valid = BodyOf(base);
  ASSERT_EQ(valid.size(), EncodedCube::Encode(day).body_bytes());

  // A body and what both readers must say of it: "" to accept it, else a
  // phrase of the Corruption message both must give.
  struct Case {
    std::string name;
    std::vector<unsigned char> body;
    std::string error;
  };
  std::vector<Case> cases;
  cases.push_back({"valid", valid, ""});
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    cases.push_back({"prefix " + std::to_string(cut),
                     std::vector<unsigned char>(valid.begin(),
                                                valid.begin() + cut),
                     "varint"});
  }
  // Long varints at entry positions spread over every alignment, on the
  // word path's ground and into the last 8 bytes: a 3-byte gap, a 2-byte
  // count (both canonical: cells thinned out ahead of the entry, and a
  // count raised past 127) and the non-canonical 0x80 0x00 spelling of a
  // 1-byte gap or count, which the varint reader accepts as its value.
  std::vector<size_t> positions;
  for (size_t k = 0; k < 24; ++k) positions.push_back(k);
  for (size_t k = 24; k + 4 < base.size(); k += 37) positions.push_back(k);
  for (size_t k = base.size() - 4; k < base.size(); ++k) {
    positions.push_back(k);
  }
  for (size_t k : positions) {
    const std::string at = " at entry " + std::to_string(k);
    const CubeCell& cell = day.cells()[k];
    std::vector<CubeCell> thinned;
    for (const CubeCell& c : day.cells()) {
      if (c.index >= cell.index || c.index + 20000 < cell.index) {
        thinned.push_back(c);
      }
    }
    cases.push_back({"3-byte gap" + at,
                     BodyOf(EntriesOf(SparseCube::FromPairs(schema, thinned))),
                     ""});
    std::vector<CubeCell> raised = day.cells();
    raised[k].count += 300;
    cases.push_back({"2-byte count" + at,
                     BodyOf(EntriesOf(SparseCube::FromPairs(schema, raised))),
                     ""});
    for (bool gap : {true, false}) {
      std::vector<RawEntry> entries = base;
      std::vector<unsigned char>& v = gap ? entries[k].gap : entries[k].count;
      if (v.size() != 1) continue;
      v = {static_cast<unsigned char>(v[0] | 0x80), 0x00};
      cases.push_back(
          {std::string("0x80 0x00 ") + (gap ? "gap" : "count") + at,
           BodyOf(entries), ""});
    }
  }
  // A gap walking past the last cell: on the last entry; on the word
  // path, entries close to the end of the cube stepping past it in the
  // middle of a run of 2-byte entries; and from the per-cell path.
  for (uint64_t past : {0, 1}) {
    // The last entry's gap to the last cell, or one further.
    const uint64_t prev = day.cells()[day.cells().size() - 2].index;
    std::vector<RawEntry> entries = base;
    entries.back().gap.clear();
    PutVarint(&entries.back().gap, n - 2 - prev + past);
    cases.push_back({past ? "last gap past the end" : "last gap to the end",
                     BodyOf(entries), past ? "out of range" : ""});
  }
  for (uint64_t step : {uint64_t{3}, uint64_t{0}}) {
    std::vector<RawEntry> entries(1);
    PutVarint(&entries[0].gap, n - 10);
    PutVarint(&entries[0].count, 1);
    for (int i = 0; i < 7; ++i) {
      entries.push_back(RawEntry{{static_cast<unsigned char>(step)}, {1}});
    }
    cases.push_back({"run of gap " + std::to_string(step) + " near the end",
                     BodyOf(entries), step == 0 ? "" : "out of range"});
  }
  {
    std::vector<RawEntry> entries = base;
    entries[base.size() / 2].gap.clear();
    PutVarint(&entries[base.size() / 2].gap, n);
    cases.push_back({"3-byte gap past the end", BodyOf(entries),
                     "out of range"});
  }
  // Bytes after the last counted entry: one appended byte; and bodies
  // whose last counted entry ends 0-7 bytes before the end, the rest
  // being the bytes of the entries the count leaves out.
  {
    std::vector<unsigned char> body = valid;
    body.push_back(0);
    cases.push_back({"one trailing byte", body, "trailing bytes"});
  }
  // Leaving out 4 or 5 entries makes the counted entries odd in number
  // once and even once, so one of the two reaches its last entry in the
  // middle of a pair.
  for (size_t dropped : {4, 5}) {
    const std::vector<RawEntry> kept(base.begin(), base.end() - dropped);
    std::vector<unsigned char> rest;
    for (size_t i = kept.size(); i < base.size(); ++i) {
      rest.insert(rest.end(), base[i].gap.begin(), base[i].gap.end());
      rest.insert(rest.end(), base[i].count.begin(), base[i].count.end());
    }
    ASSERT_GE(rest.size(), 8u);
    for (size_t k = 0; k < 8; ++k) {
      std::vector<unsigned char> body = BodyOf(kept);
      body.insert(body.end(), rest.begin(), rest.begin() + k);
      cases.push_back({"last of " + std::to_string(kept.size()) +
                           " entries " + std::to_string(k) +
                           " bytes before end",
                       body, k == 0 ? "" : "trailing bytes"});
    }
  }

  const std::vector<FoldShape> panels = PanelShapes(days.world());
  const FoldShape& shape = panels[1];  // 305 slots: cheap to reset
  const SliceLuts luts(schema, shape.slice, shape.spec);
  size_t accepted = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ExactBody body(c.body);
    std::vector<uint64_t> acc(GroupAccumulatorSize(schema, shape.spec), 0);
    const Status folded = AccumulateEncodedSlice(
        luts, CubeEncoding::kSparseCoo, body.data(), body.size(), acc.data());
    auto decoded = DecodeSparseCube(schema, CubeEncoding::kSparseCoo,
                                    body.data(), body.size());
    EXPECT_EQ(folded.ok(), c.error.empty()) << folded.ToString();
    EXPECT_EQ(decoded.ok(), c.error.empty()) << decoded.status().ToString();
    if (!c.error.empty()) {
      EXPECT_TRUE(folded.IsCorruption());
      EXPECT_TRUE(decoded.status().IsCorruption());
      EXPECT_NE(folded.ToString().find(c.error), std::string::npos)
          << folded.ToString();
      EXPECT_EQ(folded.ToString(), decoded.status().ToString());
    }
    if (folded.ok() && decoded.ok()) {
      ++accepted;
      EXPECT_EQ(acc, DenseFold(decoded.value().ToDense(), shape));
    }
  }
  EXPECT_GT(accepted, positions.size() * 2);
}

}  // namespace
}  // namespace rased

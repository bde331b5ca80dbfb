#ifndef RASED_CUBE_CUBE_CODEC_H_
#define RASED_CUBE_CUBE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cube/cube_schema.h"
#include "cube/data_cube.h"
#include "cube/sparse_cube.h"
#include "util/result.h"
#include "util/status.h"

namespace rased {

/// Adaptive per-cube storage encodings (DESIGN.md section 11).
///
/// A cube's on-disk representation is chosen at write time by size. Most
/// daily country cubes are extremely sparse — a handful of update events
/// scattered over thousands of (element, country, road, update) cells — so
/// storing the dense 8-bytes-per-cell image wastes nearly every page byte.
/// The chosen encoding and the exact serialized length are recorded per
/// cube in the epoch-versioned catalog (index/temporal_index.h), so readers
/// decode without probing and byte budgets (cache/cube_cache.h) account
/// real sizes.
///
/// Wire formats (all integers little-endian):
///
///   kDenseRaw     num_cells() x uint64 counters, row-major cell order —
///                 byte-identical to DataCube::SerializeTo.
///   kSparseCoo    varint nnz, then nnz (varint coord_delta, varint value)
///                 pairs. Coordinates are packed linear cell indexes in
///                 strictly increasing order; the first delta is the index
///                 itself and each subsequent delta is (index - previous
///                 index - 1), so every stored delta is the gap width.
///                 One scanner reads every COO body: it decodes two
///                 entries of a 1-2 byte gap and a 1-byte count from each
///                 8-byte load, with no branch on a varint's length, and
///                 sends any other entry (a longer gap or count, or one of
///                 the last 8 bytes) through a per-cell checked path. It
///                 never reads outside [body, body + body_bytes), though
///                 every body in memory sits in 8-byte-padded storage.
///
/// Any other tag is an unknown encoding. Decoders validate everything
/// (truncated or overlong varints, out-of-range or non-increasing
/// coordinates, trailing bytes) and fail with a clean Corruption status —
/// never undefined behavior.
enum class CubeEncoding : uint8_t {
  kDenseRaw = 0,
  kSparseCoo = 1,
};

/// Short name for logs and bench output ("dense", "sparse").
const char* CubeEncodingName(CubeEncoding encoding);

/// Write-time encoding selection policy (TemporalIndexOptions.encoding).
enum class CubeEncodingPolicy {
  /// Sparse COO when its body is smaller than the dense image, dense
  /// otherwise (never bigger than dense).
  kAdaptive = 0,
  /// Always dense. Used as the like-for-like baseline by
  /// bench/bench_cube_compression (same page geometry, no compression).
  kForceDense = 1,
};

/// 16-byte header preceding every encoded cube body on disk:
///
///   offset 0  uint32  magic "RCUB"
///   offset 4  uint16  format version (1)
///   offset 6  uint8   encoding (CubeEncoding)
///   offset 7  uint8   reserved, must be 0
///   offset 8  uint64  body_bytes (exact encoded body length)
struct CubeBlobHeader {
  static constexpr uint32_t kMagic = 0x42554352;  // "RCUB" little-endian
  static constexpr uint16_t kVersion = 1;
  static constexpr size_t kBytes = 16;

  CubeEncoding encoding = CubeEncoding::kDenseRaw;
  uint64_t body_bytes = 0;

  /// Writes the kBytes-byte header to `out`.
  void SerializeTo(unsigned char* out) const;

  /// Parses and validates a header from `n` available bytes.
  static Result<CubeBlobHeader> Parse(const unsigned char* data, size_t n);
};

/// The packed GROUP BY slot tables of one (schema, slice, group-by) that
/// AccumulateEncodedSlice streams encoded cells through. `outer` maps the
/// (element_type, country) half of a linear cell index, `inner` the
/// (road_type, update_type) half, to its slot contribution, or -1 when the
/// slice filters that half out; strides mirror SumSliceInto exactly.
/// Building them costs two allocations, so a query builds one SliceLuts
/// and folds every cube through it. Keeps pointers to `schema` and
/// `slice`, which must outlive it; the slice must be Normalize()d, as for
/// SumSliceInto.
struct SliceLuts {
  SliceLuts(const CubeSchema& schema, const CubeSlice& slice,
            const GroupBySpec& spec);

  const CubeSchema* schema;
  const CubeSlice* slice;
  GroupBySpec spec;
  std::vector<int64_t> outer, inner;
};

/// Words of a bitmap with one bit per slot of a `slots`-slot accumulator.
inline size_t TouchedWords(size_t slots) { return (slots + 63) / 64; }

/// Aggregates an encoded body straight into the flat packed GROUP BY
/// accumulator `acc` (layout: GroupAccumulatorSize / SumSliceInto) without
/// materializing a dense cube on the sparse paths. Bit-for-bit equal to
/// decoding and running ConstCubeRef::SumSliceInto. When `touched` is
/// non-null (TouchedWords(GroupAccumulatorSize) words), also sets bit s
/// for every slot s the body may have added to: the slots of a COO body's
/// cells in the slice when the accumulator is large, every slot for a
/// dense body or a small accumulator. Bits of slots past the accumulator
/// are never set.
Status AccumulateEncodedSlice(const SliceLuts& luts, CubeEncoding encoding,
                              const unsigned char* body, size_t body_bytes,
                              uint64_t* acc, uint64_t* touched = nullptr);


/// Decodes an encoded body back to a dense cube, straight into the cube's
/// own counters.
Result<DataCube> DecodeEncodedCube(const CubeSchema& schema,
                                   CubeEncoding encoding,
                                   const unsigned char* body,
                                   size_t body_bytes);

/// Decodes an encoded body to the sparse write form. A COO body is parsed
/// cell by cell through the same validating core as AccumulateEncodedSlice
/// (so it rejects exactly the same corrupt bodies); a dense body is
/// scanned straight into its non-zero cells.
Result<SparseCube> DecodeSparseCube(const CubeSchema& schema,
                                    CubeEncoding encoding,
                                    const unsigned char* body,
                                    size_t body_bytes);

/// One encoded cube: encoding tag + owned 8-byte-aligned body. This is
/// also the only form a cube takes in the cache (cache/cube_cache.h):
/// sparse COO or dense, as EncodedCubeBatch::Extract produces it.
class EncodedCube {
 public:
  EncodedCube() = default;

  /// The one encoder: picks the encoding under `policy` (see
  /// CubeEncodingPolicy) and writes the body straight from the cell list.
  static EncodedCube Encode(
      const SparseCube& cube,
      CubeEncodingPolicy policy = CubeEncodingPolicy::kAdaptive);

  /// Encode(SparseCube::FromDense(cube), policy): the same blob.
  static EncodedCube Encode(
      const DataCube& cube,
      CubeEncodingPolicy policy = CubeEncodingPolicy::kAdaptive);

  const CubeSchema& schema() const { return schema_; }
  CubeEncoding encoding() const { return encoding_; }
  const unsigned char* body() const {
    return reinterpret_cast<const unsigned char*>(words_.data());
  }
  size_t body_bytes() const { return body_bytes_; }

  /// Exact on-disk blob length: header + body.
  size_t SerializedBytes() const {
    return CubeBlobHeader::kBytes + body_bytes_;
  }

  /// Writes SerializedBytes() bytes (header then body) to `out`.
  void SerializeTo(unsigned char* out) const;

  Result<DataCube> Decode() const {
    return DecodeEncodedCube(schema_, encoding_, body(), body_bytes_);
  }

 private:
  friend class EncodedCubeBatch;

  static EncodedCube FromBody(const CubeSchema& schema, CubeEncoding encoding,
                              const std::vector<unsigned char>& body);

  CubeSchema schema_;
  CubeEncoding encoding_ = CubeEncoding::kDenseRaw;
  std::vector<uint64_t> words_;  // body storage, 8-byte aligned
  size_t body_bytes_ = 0;
};

/// Owning arena for N encoded cubes fetched in one batched read.
///
/// TemporalIndex::ReadCubes lays the page runs of all requested cubes out
/// back to back in the arena (each cube's pages are physically
/// consecutive, so its blob lands contiguous), then binds each slot to its
/// blob offset, validating the on-page header against the catalog's
/// recorded encoding and length. Aggregation then streams each body into
/// the accumulator without any dense materialization; Extract(i) copies a
/// blob out for the cache, and Decode(i) is the escape hatch for callers
/// that need the dense cube itself.
///
/// Slot offsets are 8-byte aligned by construction: page payloads are a
/// multiple of 8 and blobs start on page boundaries.
class EncodedCubeBatch {
 public:
  EncodedCubeBatch() = default;
  EncodedCubeBatch(const CubeSchema& schema, size_t num_cubes,
                   size_t arena_bytes);

  size_t size() const { return slots_.size(); }
  size_t arena_bytes() const { return arena_bytes_; }
  unsigned char* arena() {
    return reinterpret_cast<unsigned char*>(words_.data());
  }
  const unsigned char* arena() const {
    return reinterpret_cast<const unsigned char*>(words_.data());
  }

  /// Binds slot `i` to the blob at `blob_offset`, parsing the RCUB header
  /// and cross-checking it against the catalog-recorded `blob_bytes` and
  /// `expected_encoding`. Any mismatch is a Corruption error. The one
  /// check every stored blob passes before it is read.
  Status BindEncoded(size_t i, size_t blob_offset, uint64_t blob_bytes,
                     CubeEncoding expected_encoding);

  CubeEncoding encoding(size_t i) const { return slots_[i].encoding; }
  const unsigned char* body(size_t i) const {
    return arena() + slots_[i].body_offset;
  }
  size_t body_bytes(size_t i) const { return slots_[i].body_bytes; }

  /// Streams cube `i` into the packed accumulator (see
  /// AccumulateEncodedSlice).
  Status AccumulateSlice(size_t i, const CubeSlice& slice,
                         const GroupBySpec& spec, uint64_t* acc) const;

  /// Decodes cube `i` to a dense DataCube.
  Result<DataCube> Decode(size_t i) const;

  /// Copies cube `i`'s body out of the arena, byte for byte, in its
  /// resident (cache) form.
  Result<std::shared_ptr<const EncodedCube>> Extract(size_t i) const;

 private:
  struct Slot {
    size_t body_offset = 0;
    size_t body_bytes = 0;
    CubeEncoding encoding = CubeEncoding::kDenseRaw;
    bool bound = false;
  };

  CubeSchema schema_;
  std::vector<uint64_t> words_;  // arena storage, 8-byte aligned
  size_t arena_bytes_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace rased

#endif  // RASED_CUBE_CUBE_CODEC_H_

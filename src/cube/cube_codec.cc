#include "cube/cube_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/varint.h"

namespace rased {

namespace {

// --- Little-endian scalar I/O ---------------------------------------------

void StoreLe16(unsigned char* p, uint16_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}

void StoreLe32(unsigned char* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

void StoreLe64(unsigned char* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<unsigned char>(v >> (8 * i));
}

uint16_t LoadLe16(const unsigned char* p) {
  return static_cast<uint16_t>(p[0] | (p[1] << 8));
}

uint32_t LoadLe32(const unsigned char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t LoadLe64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// LEB128 varints and zigzag live in util/varint.h (hoisted from this file
// so obs/timeseries.cc can delta-encode metric snapshots the same way).

// --- Packed GROUP BY lookup tables (SliceLuts) ----------------------------

/// Slot table entry for a coordinate the slice filters out.
constexpr int64_t kExcludedSlot = -1;

/// Per-dimension table mapping a coordinate value to its packed
/// accumulator-slot contribution, or kExcludedSlot when the slice filters
/// the value out.
void BuildDimLut(std::vector<int64_t>* lut, const std::vector<uint32_t>& sel,
                 uint32_t dim_size, size_t stride) {
  if (sel.empty()) {
    lut->resize(dim_size);
    for (uint32_t v = 0; v < dim_size; ++v) {
      (*lut)[v] = static_cast<int64_t>(stride * v);
    }
    return;
  }
  lut->assign(dim_size, kExcludedSlot);
  for (uint32_t v : sel) {
    if (v < dim_size) (*lut)[v] = static_cast<int64_t>(stride * v);
  }
}

/// The table of two dimensions' tables over (a, b), row-major.
std::vector<int64_t> PairLut(const std::vector<int64_t>& a,
                             const std::vector<int64_t>& b) {
  std::vector<int64_t> pair(a.size() * b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      pair[i * b.size() + j] = (a[i] | b[j]) < 0 ? kExcludedSlot : a[i] + b[j];
    }
  }
  return pair;
}

}  // namespace

SliceLuts::SliceLuts(const CubeSchema& schema, const CubeSlice& slice,
                     const GroupBySpec& spec)
    : schema(&schema), slice(&slice), spec(spec) {
  size_t unit = 1;
  size_t s_ut = 0, s_rt = 0, s_co = 0, s_et = 0;
  if (spec.update_type) {
    s_ut = unit;
    unit *= schema.num_update_types;
  }
  if (spec.road_type) {
    s_rt = unit;
    unit *= schema.num_road_types;
  }
  if (spec.country) {
    s_co = unit;
    unit *= schema.num_countries;
  }
  if (spec.element_type) {
    s_et = unit;
  }
  std::vector<int64_t> et, co, rt, ut;
  BuildDimLut(&et, slice.element_types, schema.num_element_types, s_et);
  BuildDimLut(&co, slice.countries, schema.num_countries, s_co);
  BuildDimLut(&rt, slice.road_types, schema.num_road_types, s_rt);
  BuildDimLut(&ut, slice.update_types, schema.num_update_types, s_ut);
  outer = PairLut(et, co);
  inner = PairLut(rt, ut);
}

namespace {

// --- Per-encoding body builders -------------------------------------------

/// Builds the COO body of a cube's sorted non-zero cells while it stays
/// smaller than `limit` bytes; false (body abandoned) once it reaches it.
bool BuildSparseBody(const std::vector<CubeCell>& cells, size_t limit,
                     std::vector<unsigned char>* body) {
  PutVarint(body, cells.size());
  uint64_t next_min = 0;  // smallest index the next entry may use
  for (const CubeCell& cell : cells) {
    if (body->size() >= limit) return false;
    PutVarint(body, cell.index - next_min);
    PutVarint(body, cell.count);
    next_min = cell.index + 1;
  }
  return body->size() < limit;
}

// --- Per-encoding accumulate / decode cores -------------------------------

/// GetVarint for the per-cell path: one-byte values are read inline, and
/// the result is a bool, so no Status is built per cell.
inline bool ReadCellVarint(const unsigned char** p, const unsigned char* end,
                           uint64_t* v) {
  if (*p != end && **p < 0x80) {
    *v = *(*p)++;
    return true;
  }
  return GetVarint(p, end, v).ok();
}

/// The validating core every reader of a COO body goes through: checks
/// the entry count, every varint, that coordinates stay in range (they
/// increase by construction, since each gap is non-negative) and that no
/// bytes trail the last entry, calling on_cell(index, value) per entry in
/// increasing index order. Corrupt input fails with Corruption, never
/// undefined behavior, and no byte outside [body, body + body_bytes) is
/// read.
///
/// Almost every entry of a daily cube is a 1- or 2-byte gap and a 1-byte
/// count, so the core decodes two such entries from one 8-byte load
/// without a branch on either varint's length. A pair it cannot take that
/// way (a 3+ byte gap, a multi-byte count, a coordinate past the last
/// cell, fewer than 8 bytes or 2 entries left) goes through the per-cell
/// checked path for its first entry only, and the word path resumes at
/// the next.
template <typename OnCell>
Status ScanSparseBody(uint64_t num_cells, const unsigned char* body,
                      size_t body_bytes, OnCell&& on_cell) {
  // The continuation bits a pair of entries must have clear, indexed by
  // long_a * 2 + long_b (a long entry has a 2-byte gap): every byte after
  // an entry's first, i.e. its second gap byte, if any, and its count.
  static constexpr uint64_t kMustEnd[4] = {
      0x000080008000,   // a = bytes 0-1,   b = bytes 2-3
      0x008080008000,   // a = bytes 0-1,   b = bytes 2-4
      0x008000808000,   // a = bytes 0-2,   b = bytes 3-4
      0x808000808000};  // a = bytes 0-2,   b = bytes 3-5
  const unsigned char* p = body;
  const unsigned char* end = body + body_bytes;
  uint64_t nnz = 0;
  RASED_RETURN_IF_ERROR(GetVarint(&p, end, &nnz));
  if (nnz > num_cells) {
    return Status::Corruption("sparse cube nnz exceeds cell count");
  }
  uint64_t next = 0;  // the next index an entry may use; <= num_cells
  for (uint64_t left = nnz; left != 0;) {
    if (left >= 2 && end - p >= 8) {
      // Entry a is long when byte 0 continues; entry b starts right after
      // it, at byte 2 or 3. Lengths pick shift counts, never a branch.
      const uint64_t w = LoadLe64(p);
      const unsigned long_a = (w >> 7) & 1;
      const uint64_t w_b = w >> (16 + 8 * long_a);
      const unsigned long_b = (w_b >> 7) & 1;
      const uint64_t gap_a =
          (w & 0x7F) | ((w >> 1) & 0x3F80 & (0 - uint64_t{long_a}));
      const uint64_t gap_b =
          (w_b & 0x7F) | ((w_b >> 1) & 0x3F80 & (0 - uint64_t{long_b}));
      const uint64_t index_a = next + gap_a;
      const uint64_t index_b = index_a + 1 + gap_b;  // < next + 2^15
      if ((w & kMustEnd[long_a * 2 + long_b]) == 0 && index_b < num_cells) {
        on_cell(index_a, (w >> (8 + 8 * long_a)) & 0x7F);
        on_cell(index_b, (w_b >> (8 + 8 * long_b)) & 0x7F);
        next = index_b + 1;
        p += 4 + long_a + long_b;
        left -= 2;
        continue;
      }
    }
    uint64_t gap = 0;
    uint64_t value = 0;
    if (!ReadCellVarint(&p, end, &gap) || !ReadCellVarint(&p, end, &value)) {
      return Status::Corruption("bad varint in sparse cube body");
    }
    if (gap >= num_cells - next) {
      return Status::Corruption("sparse cube coordinate out of range");
    }
    on_cell(next + gap, value);
    next += gap + 1;
    --left;
  }
  if (p != end) {
    return Status::Corruption("trailing bytes after sparse cube body");
  }
  return Status::OK();
}

/// The most cells AccumulateSparse indexes: it splits a cell index into
/// its slot-table halves with a 64-bit multiply that is exact below 2^31.
constexpr uint64_t kMaxFoldCells = uint64_t{1} << 31;

/// Folds a COO body into `acc`. A cell the slice excludes adds 0 to slot 0
/// rather than branching. With kTrack, also sets bit s of `touched` for
/// every slot s a cell of the slice lands in.
template <bool kTrack>
Status AccumulateSparse(const SliceLuts& luts, const unsigned char* body,
                        size_t body_bytes, uint64_t* acc, uint64_t* touched) {
  const uint64_t num_cells = luts.schema->num_cells();
  if (num_cells >= kMaxFoldCells) {
    return Status::InvalidArgument("cube schema too large to fold");
  }
  // index / inner_size as (index * magic) >> shift, with shift = 32 +
  // ceil(log2 inner_size) and magic = ceil(2^shift / inner_size) <= 2^33:
  // exact for every index below 2^32, and the product stays below 2^64
  // for every index below 2^31.
  const uint64_t inner_size = std::max<uint64_t>(luts.inner.size(), 1);
  unsigned shift = 32;
  while ((uint64_t{1} << (shift - 32)) < inner_size) ++shift;
  const uint64_t magic = ((uint64_t{1} << shift) + inner_size - 1) / inner_size;
  const int64_t* outer = luts.outer.data();
  const int64_t* inner = luts.inner.data();
  return ScanSparseBody(
      num_cells, body, body_bytes, [&](uint64_t index, uint64_t value) {
        const uint64_t row = (index * magic) >> shift;
        const int64_t slot_a = outer[row];
        const int64_t slot_b = inner[index - row * inner_size];
        // All ones when the slice keeps the cell, else zero.
        const uint64_t keep =
            ~static_cast<uint64_t>((slot_a | slot_b) >> 63);
        const uint64_t slot = static_cast<uint64_t>(slot_a + slot_b) & keep;
        acc[slot] += value & keep;
        if constexpr (kTrack) touched[slot >> 6] |= (keep & 1) << (slot & 63);
      });
}

Status AccumulateDense(const CubeSchema& schema, const unsigned char* body,
                       size_t body_bytes, const CubeSlice& slice,
                       const GroupBySpec& spec, uint64_t* acc) {
  if (body_bytes != schema.cube_bytes()) {
    return Status::Corruption("dense cube body has wrong length");
  }
  if (reinterpret_cast<uintptr_t>(body) % alignof(uint64_t) == 0) {
    // Aligned (the arena/EncodedCube case): reuse the SIMD dense kernels
    // on a zero-copy view.
    ConstCubeRef(&schema,
                 reinterpret_cast<const uint64_t*>(
                     static_cast<const void*>(body)))
        .SumSliceInto(slice, spec, acc);
    return Status::OK();
  }
  // Misaligned caller (shouldn't happen on the hot paths): deserialize,
  // which memcpys, then aggregate.
  RASED_ASSIGN_OR_RETURN(DataCube cube,
                         DataCube::Deserialize(schema, body, body_bytes));
  cube.SumSliceInto(slice, spec, acc);
  return Status::OK();
}

}  // namespace

const char* CubeEncodingName(CubeEncoding encoding) {
  switch (encoding) {
    case CubeEncoding::kDenseRaw:
      return "dense";
    case CubeEncoding::kSparseCoo:
      return "sparse";
  }
  return "unknown";
}

void CubeBlobHeader::SerializeTo(unsigned char* out) const {
  StoreLe32(out, kMagic);
  StoreLe16(out + 4, kVersion);
  out[6] = static_cast<unsigned char>(encoding);
  out[7] = 0;
  StoreLe64(out + 8, body_bytes);
}

Result<CubeBlobHeader> CubeBlobHeader::Parse(const unsigned char* data,
                                             size_t n) {
  if (n < kBytes) {
    return Status::Corruption("cube blob shorter than its header");
  }
  if (LoadLe32(data) != kMagic) {
    return Status::Corruption("bad cube blob magic");
  }
  const uint16_t version = LoadLe16(data + 4);
  if (version == 0 || version > kVersion) {
    return Status::Corruption("unsupported cube blob version");
  }
  const unsigned char enc = data[6];
  if (enc > static_cast<unsigned char>(CubeEncoding::kSparseCoo)) {
    return Status::Corruption("unknown cube encoding tag");
  }
  if (data[7] != 0) {
    return Status::Corruption("nonzero reserved byte in cube blob header");
  }
  CubeBlobHeader header;
  header.encoding = static_cast<CubeEncoding>(enc);
  header.body_bytes = LoadLe64(data + 8);
  return header;
}

Status AccumulateEncodedSlice(const SliceLuts& luts, CubeEncoding encoding,
                              const unsigned char* body, size_t body_bytes,
                              uint64_t* acc, uint64_t* touched) {
  if (touched != nullptr) {
    // Marking each cell's slot costs a COO fold about 40% more at paper
    // scale; below kTrackedSlots slots, visiting every slot at the flush
    // costs less, and a dense body may touch any slot anyway.
    constexpr size_t kTrackedSlots = 1024;
    const size_t slots = GroupAccumulatorSize(*luts.schema, luts.spec);
    if (encoding == CubeEncoding::kDenseRaw || slots < kTrackedSlots) {
      std::fill(touched, touched + slots / 64, ~uint64_t{0});
      if (slots % 64 != 0) {
        touched[slots / 64] |= ~(~uint64_t{0} << (slots % 64));
      }
      touched = nullptr;
    }
  }
  if (encoding == CubeEncoding::kDenseRaw) {
    return AccumulateDense(*luts.schema, body, body_bytes, *luts.slice,
                           luts.spec, acc);
  }
  return touched != nullptr
             ? AccumulateSparse<true>(luts, body, body_bytes, acc, touched)
             : AccumulateSparse<false>(luts, body, body_bytes, acc, nullptr);
}

Result<DataCube> DecodeEncodedCube(const CubeSchema& schema,
                                   CubeEncoding encoding,
                                   const unsigned char* body,
                                   size_t body_bytes) {
  if (encoding == CubeEncoding::kDenseRaw) {
    if (body_bytes != schema.cube_bytes()) {
      return Status::Corruption("dense cube body has wrong length");
    }
    return DataCube::Deserialize(schema, body, body_bytes);
  }
  // Decode through the accumulate core with a fully-grouped identity spec:
  // every slot of the packed accumulator is one cell in cell order, so the
  // same validated streaming path serves both aggregation and decoding,
  // writing straight into the cube's own counters.
  DataCube cube(schema);
  CubeSlice all;
  GroupBySpec every{/*element_type=*/true, /*country=*/true,
                    /*road_type=*/true, /*update_type=*/true};
  RASED_RETURN_IF_ERROR(AccumulateEncodedSlice(SliceLuts(schema, all, every),
                                               encoding, body, body_bytes,
                                               cube.mutable_cells()));
  return cube;
}

Result<SparseCube> DecodeSparseCube(const CubeSchema& schema,
                                    CubeEncoding encoding,
                                    const unsigned char* body,
                                    size_t body_bytes) {
  std::vector<CubeCell> cells;
  if (encoding == CubeEncoding::kDenseRaw) {
    if (body_bytes != schema.cube_bytes()) {
      return Status::Corruption("dense cube body has wrong length");
    }
    for (uint64_t i = 0; i < schema.num_cells(); ++i) {
      uint64_t count;
      std::memcpy(&count, body + i * sizeof(count), sizeof(count));
      if (count != 0) cells.push_back(CubeCell{i, count});
    }
  } else {
    cells.reserve(body_bytes / 2);  // every entry takes at least two bytes
    RASED_RETURN_IF_ERROR(ScanSparseBody(
        schema.num_cells(), body, body_bytes,
        [&](uint64_t index, uint64_t value) {
          cells.push_back(CubeCell{index, value});
        }));
  }
  // Already strictly increasing, with no zero counts.
  return SparseCube::FromPairs(schema, std::move(cells));
}

EncodedCube EncodedCube::Encode(const SparseCube& cube,
                                CubeEncodingPolicy policy) {
  const CubeSchema& schema = cube.schema();
  if (policy == CubeEncodingPolicy::kAdaptive) {
    std::vector<unsigned char> body;
    body.reserve(std::min(2 * kMaxVarintBytes * cube.nnz() + kMaxVarintBytes,
                          schema.cube_bytes()));
    if (BuildSparseBody(cube.cells(), schema.cube_bytes(), &body)) {
      return FromBody(schema, CubeEncoding::kSparseCoo, body);
    }
  }
  // The dense image, written straight from the cell list.
  EncodedCube out;
  out.schema_ = schema;
  out.encoding_ = CubeEncoding::kDenseRaw;
  out.body_bytes_ = schema.cube_bytes();
  out.words_.assign(schema.num_cells(), 0);
  for (const CubeCell& cell : cube.cells()) {
    out.words_[cell.index] = cell.count;
  }
  return out;
}

EncodedCube EncodedCube::Encode(const DataCube& cube,
                                CubeEncodingPolicy policy) {
  return Encode(SparseCube::FromDense(cube), policy);
}

EncodedCube EncodedCube::FromBody(const CubeSchema& schema,
                                  CubeEncoding encoding,
                                  const std::vector<unsigned char>& body) {
  EncodedCube out;
  out.schema_ = schema;
  out.encoding_ = encoding;
  out.words_.assign((body.size() + 7) / 8, 0);
  std::memcpy(out.words_.data(), body.data(), body.size());
  out.body_bytes_ = body.size();
  return out;
}

void EncodedCube::SerializeTo(unsigned char* out) const {
  CubeBlobHeader header;
  header.encoding = encoding_;
  header.body_bytes = body_bytes_;
  header.SerializeTo(out);
  std::memcpy(out + CubeBlobHeader::kBytes, body(), body_bytes_);
}

EncodedCubeBatch::EncodedCubeBatch(const CubeSchema& schema, size_t num_cubes,
                                   size_t arena_bytes)
    : schema_(schema),
      words_((arena_bytes + 7) / 8, 0),
      arena_bytes_(arena_bytes),
      slots_(num_cubes) {}

Status EncodedCubeBatch::BindEncoded(size_t i, size_t blob_offset,
                                     uint64_t blob_bytes,
                                     CubeEncoding expected_encoding) {
  if (i >= slots_.size()) {
    return Status::InvalidArgument("cube batch slot out of range");
  }
  if (blob_bytes < CubeBlobHeader::kBytes ||
      blob_offset > arena_bytes_ || blob_bytes > arena_bytes_ - blob_offset) {
    return Status::Corruption("cube blob exceeds its page run");
  }
  RASED_ASSIGN_OR_RETURN(
      CubeBlobHeader header,
      CubeBlobHeader::Parse(arena() + blob_offset, blob_bytes));
  if (header.body_bytes != blob_bytes - CubeBlobHeader::kBytes) {
    return Status::Corruption("cube blob length disagrees with catalog");
  }
  if (header.encoding != expected_encoding) {
    return Status::Corruption("cube blob encoding disagrees with catalog");
  }
  slots_[i] = Slot{blob_offset + CubeBlobHeader::kBytes,
                   static_cast<size_t>(header.body_bytes), header.encoding,
                   /*bound=*/true};
  return Status::OK();
}

Status EncodedCubeBatch::AccumulateSlice(size_t i, const CubeSlice& slice,
                                         const GroupBySpec& spec,
                                         uint64_t* acc) const {
  if (i >= slots_.size() || !slots_[i].bound) {
    return Status::InvalidArgument("cube batch slot not bound");
  }
  const Slot& slot = slots_[i];
  return AccumulateEncodedSlice(SliceLuts(schema_, slice, spec), slot.encoding,
                                arena() + slot.body_offset, slot.body_bytes,
                                acc);
}

Result<DataCube> EncodedCubeBatch::Decode(size_t i) const {
  if (i >= slots_.size() || !slots_[i].bound) {
    return Status::InvalidArgument("cube batch slot not bound");
  }
  const Slot& slot = slots_[i];
  return DecodeEncodedCube(schema_, slot.encoding, arena() + slot.body_offset,
                           slot.body_bytes);
}

Result<std::shared_ptr<const EncodedCube>> EncodedCubeBatch::Extract(
    size_t i) const {
  if (i >= slots_.size() || !slots_[i].bound) {
    return Status::InvalidArgument("cube batch slot not bound");
  }
  const Slot& slot = slots_[i];
  auto cube = std::make_shared<EncodedCube>();
  cube->schema_ = schema_;
  cube->encoding_ = slot.encoding;
  cube->words_.assign((slot.body_bytes + 7) / 8, 0);
  std::memcpy(cube->words_.data(), arena() + slot.body_offset,
              slot.body_bytes);
  cube->body_bytes_ = slot.body_bytes;
  return std::shared_ptr<const EncodedCube>(std::move(cube));
}

}  // namespace rased

#include "io/crc32c.h"

#include <array>
#include <bit>
#include <cstring>

namespace rased {

#if defined(RASED_HAVE_SSE42)
// Defined in crc32c_sse42.cc — the only translation unit in this library
// built with -msse4.2 (rased-lint RL013 confines intrinsics there).
uint32_t Crc32cSse42(const void* data, size_t n, uint32_t seed);
#endif

namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected CRC-32C polynomial

/// Table 0 is the classic byte table; table k maps byte b to the CRC of b
/// followed by k zero bytes, so eight lookups advance the CRC eight bytes.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

SliceTables MakeTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ (kPoly & (0u - (crc & 1u)));
    }
    t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

Crc32cFn Resolve() {
#if defined(RASED_HAVE_SSE42)
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cPortable;
}

}  // namespace

uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed) {
  static const SliceTables kT = MakeTables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  // The word step folds bytes in little-endian order; big-endian hosts
  // take the byte loop below for the whole buffer.
  for (; std::endian::native == std::endian::little && n >= 8;
       n -= 8, p += 8) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = kT[7][lo & 0xffu] ^ kT[6][(lo >> 8) & 0xffu] ^
          kT[5][(lo >> 16) & 0xffu] ^ kT[4][lo >> 24] ^ kT[3][hi & 0xffu] ^
          kT[2][(hi >> 8) & 0xffu] ^ kT[1][(hi >> 16) & 0xffu] ^
          kT[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = kT[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return ~crc;
}

Crc32cFn Crc32cHardware() {
  Crc32cFn fn = Resolve();
  return fn == Crc32cPortable ? nullptr : fn;
}

uint32_t Crc32c(const void* data, size_t n, uint32_t seed) {
  // Resolved once; both candidates are plain functions, so a racing first
  // call resolves to the same pointer.
  static const Crc32cFn kActive = Resolve();
  return kActive(data, n, seed);
}

}  // namespace rased

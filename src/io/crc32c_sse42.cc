#include <nmmintrin.h>

#include <cstddef>
#include <cstdint>
#include <cstring>

// The only translation unit in rased_io built with -msse4.2, and one of the
// two permitted to touch vendor intrinsics (rased-lint RL013). Crc32c in
// crc32c.cc calls it only after the CPU reports SSE4.2. The `crc32`
// instruction computes exactly CRC-32C, so it matches Crc32cPortable bit
// for bit.

namespace rased {

uint32_t Crc32cSse42(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = ~seed;
  // Byte steps up to 8-byte alignment, so the word loop never splits a
  // cache line.
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7u) != 0; --n, ++p) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p);
  }
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  for (; n > 0; --n, ++p) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc), *p);
  }
  return ~static_cast<uint32_t>(crc);
}

}  // namespace rased

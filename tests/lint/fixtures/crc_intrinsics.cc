// RL013 fixture: SSE4.2 CRC intrinsics in src/io outside the one
// ISA-flagged CRC file (linted as src/io/crc32c.cc, the dispatcher).
// Both the include and every _mm* use must be flagged; the dispatched
// call must not be.

#include <nmmintrin.h>  // WANT[RL013]

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "io/crc32c.h"

namespace rased {

uint32_t BadInlineCrc(const unsigned char* p, size_t n) {
  uint64_t crc = 0xffffffffu;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);  // WANT[RL013]
  }
  return static_cast<uint32_t>(crc);
}

uint32_t GoodDispatchedCrc(const unsigned char* p, size_t n) {
  // Resolves to the SSE4.2 kernel at runtime when the CPU has it.
  return Crc32c(p, n);
}

}  // namespace rased

#ifndef RASED_IO_CRC32C_H_
#define RASED_IO_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace rased {

/// CRC-32C (Castagnoli), the page checksum in PageFile. Every page read
/// verifies one, so this sits on the sample and cube-fetch paths.
///
/// Dispatch: the portable slice-by-8 implementation is always compiled;
/// when the build includes the SSE4.2 translation unit (x86-64 targets)
/// and the running CPU reports SSE4.2, Crc32c resolves to the hardware
/// `crc32` instruction once, on first use. Both compute the same function,
/// so checksums — and the on-disk format — do not depend on the host.
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// Always-compiled slice-by-8 implementation (the reference the hardware
/// path is cross-checked against).
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

/// The SSE4.2 implementation when it is compiled in and the running CPU
/// supports it, else nullptr. For cross-check tests and benches.
using Crc32cFn = uint32_t (*)(const void* data, size_t n, uint32_t seed);
Crc32cFn Crc32cHardware();

}  // namespace rased

#endif  // RASED_IO_CRC32C_H_

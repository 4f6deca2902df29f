// Implementation detail of util/crc32c: the portable table routine that
// crc32c::Extend falls back to when the CPU has no CRC32C instruction.
// Exposed so tests can check the hardware path against it; nothing else
// should call it.

#ifndef LASER_UTIL_CRC32C_INTERNAL_H_
#define LASER_UTIL_CRC32C_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace laser::crc32c::internal {

/// Slice-by-4 table CRC32C, same contract as crc32c::Extend.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// True when crc32c::Extend runs on a CRC32C instruction (SSE4.2 on x86-64,
/// the ARMv8 CRC extension on AArch64 Linux).
bool HardwareAccelerated();

}  // namespace laser::crc32c::internal

#endif  // LASER_UTIL_CRC32C_INTERNAL_H_

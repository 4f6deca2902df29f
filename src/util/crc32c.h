// CRC32C (Castagnoli) checksums used by the WAL, SST and manifest formats,
// with the LevelDB-style masking so that checksums of data containing
// embedded CRCs remain well distributed.
//
// Extend picks its implementation once, at first use: the SSE4.2 crc32
// instruction on x86-64 CPUs that have it, the ARMv8 CRC extension on
// AArch64 Linux when the kernel reports it, and a slice-by-4 table
// otherwise. All three return the same value for the same bytes.

#ifndef LASER_UTIL_CRC32C_H_
#define LASER_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace laser::crc32c {

/// Returns the CRC32C of the concatenation of A (with crc `init_crc`) and
/// data[0, n).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// Returns the CRC32C of data[0, n).
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

constexpr uint32_t kMaskDelta = 0xa282ead8ul;

/// Returns a masked representation of `crc`, for storing CRCs alongside the
/// data they cover.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace laser::crc32c

#endif  // LASER_UTIL_CRC32C_H_

#include "util/crc32c.h"

#include <array>
#include <cstring>

#include "util/crc32c_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#define LASER_CRC32C_SSE42 1
#elif defined(__aarch64__) && defined(__linux__)
#include <arm_acle.h>
#include <sys/auxv.h>
#ifndef HWCAP_CRC32
#define HWCAP_CRC32 (1 << 7)
#endif
#define LASER_CRC32C_ARMV8 1
#endif

namespace laser::crc32c {

namespace {

// Table-driven CRC32C (Castagnoli polynomial 0x82f63b78, reflected).
struct Table {
  std::array<std::array<uint32_t, 256>, 4> t;

  Table() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
      }
      t[0][i] = crc;
    }
    // Slice-by-4 tables.
    for (uint32_t i = 0; i < 256; ++i) {
      t[1][i] = (t[0][i] >> 8) ^ t[0][t[0][i] & 0xff];
      t[2][i] = (t[1][i] >> 8) ^ t[0][t[1][i] & 0xff];
      t[3][i] = (t[2][i] >> 8) ^ t[0][t[2][i] & 0xff];
    }
  }
};

const Table& GetTable() {
  static const Table table;
  return table;
}

// The hardware loops consume the unaligned head a byte at a time, then one
// little-endian 64-bit word per instruction, then the tail bytes. Both
// instructions implement the same reflected Castagnoli CRC as the table, so
// the pre/post inversion is shared.
#if defined(LASER_CRC32C_SSE42)

__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init_crc,
                                                          const char* data, size_t n) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; --n) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  uint64_t crc64 = crc;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    memcpy(&word, p, sizeof(word));
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; n > 0; --n) crc = _mm_crc32_u8(crc, *p++);
  return crc ^ 0xffffffffu;
}

bool CpuHasCrc32c() {
  // The first checksum may run during static initialization, before the
  // runtime has probed the CPU.
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

#elif defined(LASER_CRC32C_ARMV8)

#if defined(__clang__)
#define LASER_TARGET_CRC __attribute__((target("crc")))
#else
#define LASER_TARGET_CRC __attribute__((target("+crc")))
#endif

LASER_TARGET_CRC uint32_t ExtendHardware(uint32_t init_crc, const char* data, size_t n) {
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;
  for (; n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0; --n) {
    crc = __crc32cb(crc, *p++);
  }
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    memcpy(&word, p, sizeof(word));
    crc = __crc32cd(crc, word);
  }
  for (; n > 0; --n) crc = __crc32cb(crc, *p++);
  return crc ^ 0xffffffffu;
}

bool CpuHasCrc32c() { return (getauxval(AT_HWCAP) & HWCAP_CRC32) != 0; }

#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#if defined(LASER_CRC32C_SSE42) || defined(LASER_CRC32C_ARMV8)
  if (CpuHasCrc32c()) return ExtendHardware;
#endif
  return internal::ExtendPortable;
}

ExtendFn Dispatched() {
  static const ExtendFn fn = ChooseExtend();
  return fn;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const Table& tab = GetTable();
  const unsigned char* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t crc = init_crc ^ 0xffffffffu;
  // Process 4 bytes at a time.
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
    crc = tab.t[3][crc & 0xff] ^ tab.t[2][(crc >> 8) & 0xff] ^
          tab.t[1][(crc >> 16) & 0xff] ^ tab.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ tab.t[0][(crc ^ *p) & 0xff];
    ++p;
    --n;
  }
  return crc ^ 0xffffffffu;
}

bool HardwareAccelerated() { return Dispatched() != ExtendPortable; }

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  return Dispatched()(init_crc, data, n);
}

}  // namespace laser::crc32c

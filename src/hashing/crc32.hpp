// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the checksum of
// every wire frame body (server/wire.hpp) and every snapshot section
// (core/snapshot_io.hpp).
//
// crc32 is slicing-by-8: eight compile-time tables let the loop fold 8
// input bytes per iteration (~4x fewer dependent table lookups than the
// classic byte-at-a-time form). That classic form survives as
// crc32_bytewise, the reference the wire fuzz test checks crc32 against.
#pragma once

#include <bit>
#include <cstdint>
#include <span>

#include "hashing/hash_common.hpp"

namespace ppc::hashing {

namespace detail {
struct Crc32Table {
  std::uint32_t entry[8][256] = {};
  constexpr Crc32Table() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      entry[0][i] = c;
    }
    for (std::uint32_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        entry[k][i] =
            entry[0][entry[k - 1][i] & 0xFFu] ^ (entry[k - 1][i] >> 8);
      }
    }
  }
};
inline constexpr Crc32Table kCrc32Table{};

/// Little-endian load: byte k of the stream lands in bits [8k, 8k+8) on
/// every host, the order the reflected CRC update assumes.
inline std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  if constexpr (std::endian::native == std::endian::little) {
    return load_u32(p);
  } else {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  }
}
}  // namespace detail

/// Byte-at-a-time reference implementation (identical results to crc32).
inline std::uint32_t crc32_bytewise(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c = detail::kCrc32Table.entry[0][(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::span<const std::uint8_t> data) {
  const auto& t = detail::kCrc32Table.entry;
  std::uint32_t c = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  while (n >= 8) {
    const std::uint32_t lo = detail::load_le32(p) ^ c;
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ppc::hashing

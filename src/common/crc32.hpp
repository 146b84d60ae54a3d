// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum the
// checkpoint format embeds so a truncated or bit-flipped file is rejected
// instead of silently loading garbage parameters, and the checksum every
// DDP transport frame carries.
//
// Speed matters: a procs-mode DDP epoch checksums hundreds of MB of
// gradient and step frames, on both the sending and the receiving side. The
// byte-at-a-time table loop runs near 0.3 GB/s; crc32() uses slicing-by-8
// (eight 256-entry tables, one 8-byte step per iteration, no intrinsics),
// several times faster on the same polynomial and with the same values.
// crc32_bytewise() keeps the byte loop as the reference the tests compare
// against. The tables are built at compile time.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace sptx {

namespace detail {
/// kCrc32Tables[0] is the classic byte table; kCrc32Tables[k][i] advances
/// kCrc32Tables[k - 1][i] by one more zero byte, so one lookup per table
/// folds eight input bytes at once.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
  return t;
}
inline constexpr auto kCrc32Tables = make_crc32_tables();

/// Byte loop over the running (pre-inverted) register.
inline std::uint32_t crc32_update_bytes(std::uint32_t c,
                                        const unsigned char* p,
                                        std::size_t len) {
  for (std::size_t i = 0; i < len; ++i)
    c = kCrc32Tables[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c;
}
}  // namespace detail

/// The byte-at-a-time CRC-32, kept as the reference for crc32().
inline std::uint32_t crc32_bytewise(const void* data, std::size_t len,
                                    std::uint32_t crc = 0) {
  return detail::crc32_update_bytes(
             crc ^ 0xFFFFFFFFu, static_cast<const unsigned char*>(data),
             len) ^
         0xFFFFFFFFu;
}

/// Incremental CRC-32: pass the previous return value as `crc` to extend a
/// running checksum over multiple buffers. Start from the default 0.
inline std::uint32_t crc32(const void* data, std::size_t len,
                           std::uint32_t crc = 0) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    const auto& t = detail::kCrc32Tables;
    for (; len >= 8; p += 8, len -= 8) {
      std::uint32_t lo = 0;
      std::uint32_t hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
  }
  return detail::crc32_update_bytes(c, p, len) ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(std::string_view s, std::uint32_t crc = 0) {
  return crc32(s.data(), s.size(), crc);
}

}  // namespace sptx

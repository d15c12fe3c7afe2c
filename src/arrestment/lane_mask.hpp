// The batch kernel's one way to build a lane mask: every per-lane predicate
// over a row is written as one 0/1 byte per lane, then packed.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

namespace propane::arr {

/// Packs one 0/1 byte per lane into a lane mask (bit l = byte l), eight
/// lanes per multiply: the magic constant moves byte b's low bit to bit
/// 56 + b of the product, with no carries between the partial products.
/// A per-lane `mask |= bit << l` loop would need a 64-bit variable shift
/// per lane, which baseline x86-64 lacks; this stays cheap on every ISA.
/// Bytes past the row's last lane must be zero.
inline std::uint64_t pack_lane_bytes(const std::uint8_t (&bytes)[64]) {
  static_assert(std::endian::native == std::endian::little,
                "lane bytes are packed as little-endian words");
  std::uint64_t mask = 0;
  for (std::size_t word = 0; word < 8; ++word) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, bytes + 8 * word, sizeof(bits));
    mask |= (bits * 0x0102040810204080ull) >> 56 << (8 * word);
  }
  return mask;
}

}  // namespace propane::arr

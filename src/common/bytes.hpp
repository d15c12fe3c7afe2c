// Canonical little-endian byte encoding + the hashes computed over it.
//
// ByteWriter/ByteReader assemble and re-read flat byte strings; crc32 and
// fnv1a64 hash them. They began life inside the journal codec
// (store/record_codec.hpp, which still re-exports them) but moved down to
// common so layers *below* the store -- notably the delta-campaign
// fingerprints in fi/delta_campaign.cpp -- can produce canonical encodings
// without depending upward. Hashing a canonical encoding rather than raw
// structs keeps padding and container layout out of every fingerprint.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace propane {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes.
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

/// FNV-1a 64-bit hash; pass a previous result as `seed` to chain.
std::uint64_t fnv1a64(const void* data, std::size_t size,
                      std::uint64_t seed = 0xCBF29CE484222325ULL);

/// Little-endian byte-string assembler.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Continues after the contents of `buffer`, reusing its capacity; take()
  /// hands the grown buffer back.
  explicit ByteWriter(std::vector<std::uint8_t> buffer)
      : bytes_(std::move(buffer)) {}

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void str(std::string_view v);  // u32 length + bytes
  /// Overwrites the u32 at `offset`, a placeholder written earlier (a frame
  /// length or checksum known only once the bytes after it are written).
  void patch_u32(std::size_t offset, std::uint32_t v);

  std::size_t size() const { return bytes_.size(); }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked reader over an encoded payload. Overruns raise
/// ContractViolation ("journal record payload truncated") -- by the time a
/// payload is decoded its CRC already matched, so an overrun means a codec
/// bug or deliberate corruption, never a torn write.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string str();

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

 private:
  void need(std::size_t n) const;

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace propane

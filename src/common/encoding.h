#ifndef DGF_COMMON_ENCODING_H_
#define DGF_COMMON_ENCODING_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace dgf {

/// Binary encoding helpers shared by the KV store, file formats, and the
/// order-preserving GFU key encoding.
///
/// Fixed-width integers are big-endian so that lexicographic byte order on
/// encoded keys equals numeric order; varints use the LEB128 scheme.

/// Appends a big-endian 32-bit value to `dst`.
void PutFixed32(std::string* dst, uint32_t value);
/// Appends a big-endian 64-bit value to `dst`.
void PutFixed64(std::string* dst, uint64_t value);

/// Decodes a big-endian 32-bit value from `src` (must have >= 4 bytes).
uint32_t DecodeFixed32(const char* src);
/// Decodes a big-endian 64-bit value from `src` (must have >= 8 bytes).
uint64_t DecodeFixed64(const char* src);

/// Appends an unsigned LEB128 varint.
void PutVarint64(std::string* dst, uint64_t value);

/// Reads a varint from the front of `*input`, advancing it past the varint.
/// Returns Corruption if the input is truncated or over-long.
Result<uint64_t> GetVarint64(std::string_view* input);

/// Appends varint length + raw bytes.
void PutLengthPrefixed(std::string* dst, std::string_view value);

/// Reads a length-prefixed slice from the front of `*input`, advancing it.
Result<std::string_view> GetLengthPrefixed(std::string_view* input);

/// Encodes a signed 64-bit value such that encoded byte order matches signed
/// numeric order (flips the sign bit and stores big-endian). Used for the
/// per-dimension coordinates inside GFU keys.
void PutOrderedInt64(std::string* dst, int64_t value);
/// Inverse of PutOrderedInt64; `src` must have >= 8 bytes.
int64_t DecodeOrderedInt64(const char* src);

/// Encodes a double preserving total order (IEEE-754 trick: flip all bits of
/// negative values, flip only the sign bit of non-negative ones).
void PutOrderedDouble(std::string* dst, double value);
double DecodeOrderedDouble(const char* src);

/// CRC-32 (the IEEE/zlib polynomial, reflected; slicing-by-8). Chains:
/// Crc32(Crc32(0, a), b) == Crc32(0, a + b), so pass the previous return
/// value as `seed` to extend a running checksum; start from 0. Used for the
/// MiniDfs chunk checksums and the columnar block CRCs.
uint32_t Crc32(uint32_t seed, const void* data, size_t size);
inline uint32_t Crc32(uint32_t seed, std::string_view data) {
  return Crc32(seed, data.data(), data.size());
}

}  // namespace dgf

#endif  // DGF_COMMON_ENCODING_H_

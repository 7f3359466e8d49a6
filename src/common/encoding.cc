#include "common/encoding.h"

#include <cstring>

namespace dgf {

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[4];
  buf[0] = static_cast<char>(value >> 24);
  buf[1] = static_cast<char>(value >> 16);
  buf[2] = static_cast<char>(value >> 8);
  buf[3] = static_cast<char>(value);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t value) {
  PutFixed32(dst, static_cast<uint32_t>(value >> 32));
  PutFixed32(dst, static_cast<uint32_t>(value));
}

uint32_t DecodeFixed32(const char* src) {
  const auto* p = reinterpret_cast<const unsigned char*>(src);
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

uint64_t DecodeFixed64(const char* src) {
  return (static_cast<uint64_t>(DecodeFixed32(src)) << 32) |
         DecodeFixed32(src + 4);
}

void PutVarint64(std::string* dst, uint64_t value) {
  while (value >= 0x80) {
    dst->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  dst->push_back(static_cast<char>(value));
}

Result<uint64_t> GetVarint64(std::string_view* input) {
  uint64_t value = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (input->empty()) return Status::Corruption("truncated varint");
    auto byte = static_cast<unsigned char>(input->front());
    input->remove_prefix(1);
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return value;
  }
  return Status::Corruption("over-long varint");
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value.data(), value.size());
}

Result<std::string_view> GetLengthPrefixed(std::string_view* input) {
  DGF_ASSIGN_OR_RETURN(uint64_t len, GetVarint64(input));
  if (input->size() < len) return Status::Corruption("truncated slice");
  std::string_view out = input->substr(0, len);
  input->remove_prefix(len);
  return out;
}

void PutOrderedInt64(std::string* dst, int64_t value) {
  // Flipping the sign bit maps the signed range onto the unsigned range while
  // preserving order; big-endian bytes then compare lexicographically.
  PutFixed64(dst, static_cast<uint64_t>(value) ^ (1ULL << 63));
}

int64_t DecodeOrderedInt64(const char* src) {
  return static_cast<int64_t>(DecodeFixed64(src) ^ (1ULL << 63));
}

void PutOrderedDouble(std::string* dst, double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  if (bits & (1ULL << 63)) {
    bits = ~bits;  // negative: reverse order of magnitudes
  } else {
    bits |= (1ULL << 63);  // non-negative: sort after all negatives
  }
  PutFixed64(dst, bits);
}

double DecodeOrderedDouble(const char* src) {
  uint64_t bits = DecodeFixed64(src);
  if (bits & (1ULL << 63)) {
    bits &= ~(1ULL << 63);
  } else {
    bits = ~bits;
  }
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

namespace {

// Slicing-by-8 tables: entries[0] is the classic byte-at-a-time table;
// entries[k][b] is the CRC of byte b followed by k zero bytes, so one
// lookup per byte of an 8-byte word folds the whole word at once.
struct Crc32Tables {
  uint32_t entries[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
      }
      entries[0][i] = crc;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = (prev >> 8) ^ entries[0][prev & 0xFFu];
      }
    }
  }
};

uint32_t LoadLittle32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(uint32_t seed, const void* data, size_t size) {
  static const Crc32Tables tables;
  const auto& t = tables.entries;
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t lo = LoadLittle32(bytes) ^ crc;
    const uint32_t hi = LoadLittle32(bytes + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = t[0][(crc ^ *bytes) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace dgf

#include "common/bytes.h"

#include <cstring>

namespace agentfirst {

namespace {

Status Malformed(const std::string& what) {
  return Status::InvalidArgument("codec: " + what);
}

}  // namespace

void ByteWriter::U16(uint16_t v) {
  U8(static_cast<uint8_t>(v & 0xff));
  U8(static_cast<uint8_t>(v >> 8));
}

void ByteWriter::U32(uint32_t v) {
  U16(static_cast<uint16_t>(v & 0xffff));
  U16(static_cast<uint16_t>(v >> 16));
}

void ByteWriter::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v & 0xffffffffu));
  U32(static_cast<uint32_t>(v >> 32));
}

void ByteWriter::F64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

Status ByteReader::Take(size_t n, const uint8_t** out) {
  if (!status_.ok()) return status_;
  if (data_.size() - pos_ < n) {
    status_ = Malformed("truncated payload (needed " + std::to_string(n) +
                        " more bytes, had " +
                        std::to_string(data_.size() - pos_) + ")");
    return status_;
  }
  *out = reinterpret_cast<const uint8_t*>(data_.data()) + pos_;
  pos_ += n;
  return Status::OK();
}

Status ByteReader::U8(uint8_t* v) {
  const uint8_t* p = nullptr;
  AF_RETURN_IF_ERROR(Take(1, &p));
  *v = p[0];
  return Status::OK();
}

Status ByteReader::U16(uint16_t* v) {
  const uint8_t* p = nullptr;
  AF_RETURN_IF_ERROR(Take(2, &p));
  *v = static_cast<uint16_t>(p[0]) | (static_cast<uint16_t>(p[1]) << 8);
  return Status::OK();
}

Status ByteReader::U32(uint32_t* v) {
  const uint8_t* p = nullptr;
  AF_RETURN_IF_ERROR(Take(4, &p));
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  return Status::OK();
}

Status ByteReader::U64(uint64_t* v) {
  uint32_t lo = 0, hi = 0;
  AF_RETURN_IF_ERROR(U32(&lo));
  AF_RETURN_IF_ERROR(U32(&hi));
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return Status::OK();
}

Status ByteReader::F64(double* v) {
  uint64_t bits = 0;
  AF_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(v, &bits, sizeof(bits));
  return Status::OK();
}

Status ByteReader::Bool(bool* v) {
  uint8_t b = 0;
  AF_RETURN_IF_ERROR(U8(&b));
  if (b > 1) return status_ = Malformed("bool byte out of range");
  *v = (b == 1);
  return Status::OK();
}

Status ByteReader::Str(std::string* v) {
  uint32_t len = 0;
  AF_RETURN_IF_ERROR(U32(&len));
  if (len > remaining()) {
    return status_ = Malformed("string length " + std::to_string(len) +
                               " exceeds remaining payload");
  }
  const uint8_t* p = nullptr;
  AF_RETURN_IF_ERROR(Take(len, &p));
  v->assign(reinterpret_cast<const char*>(p), len);
  return Status::OK();
}

Status ByteReader::Count(size_t min_bytes_per_element, size_t* count) {
  uint32_t n = 0;
  AF_RETURN_IF_ERROR(U32(&n));
  size_t floor = min_bytes_per_element == 0 ? 1 : min_bytes_per_element;
  if (n > remaining() / floor) {
    return status_ = Malformed("element count " + std::to_string(n) +
                               " cannot fit in remaining payload");
  }
  *count = n;
  return Status::OK();
}

Status ByteReader::ExpectEnd() const {
  if (!status_.ok()) return status_;
  if (pos_ != data_.size()) {
    return Malformed("trailing garbage (" + std::to_string(data_.size() - pos_) +
                     " unconsumed bytes)");
  }
  return Status::OK();
}

namespace {

/// Slicing-by-8 tables for the Castagnoli polynomial (reflected form
/// 0x82F63B78; Kounavis & Berry, ISCC 2005). t[0] is the classic bytewise
/// table; t[k][b] is the CRC contribution of byte b followed by k zero bytes,
/// so eight lookups fold eight input bytes into the CRC at once. Computed at
/// compile time: no first-use initialization on the fault path.
struct Crc32cTables {
  uint32_t t[8][256];
};

constexpr Crc32cTables MakeCrc32cTables() {
  Crc32cTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    tables.t[0][i] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xff];
    }
  }
  return tables;
}

constexpr Crc32cTables kCrc32c = MakeCrc32cTables();

/// Little-endian load assembled from bytes, so the kernel reads the same
/// words on any host (compilers fuse it into one load where that is legal).
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  const auto& t = kCrc32c.t;
  const uint8_t* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint32_t lo = crc ^ LoadLe32(p);
    uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(std::string_view data) {
  return Crc32cExtend(0, data.data(), data.size());
}

}  // namespace agentfirst

#ifndef AGENTFIRST_COMMON_BYTES_H_
#define AGENTFIRST_COMMON_BYTES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace agentfirst {

/// The little-endian byte codec shared by every binary format in the tree:
/// the afp wire protocol (src/net/wire.cc), the write-ahead log and
/// checkpoint files (src/wal/), and any future on-disk layout. One encoder /
/// decoder pair means one set of bounds rules and one fuzz surface — the
/// safety discipline proven by tests/fuzz_wire_test.cc (total decoding,
/// never UB, no partial objects) holds for durable bytes too.

/// Append-only little-endian encoder; buffer() is the accumulated payload.
class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  /// IEEE-754 bit pattern, so doubles round-trip exactly.
  void F64(double v);
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// u32 byte length + raw bytes.
  void Str(std::string_view s);
  /// Raw bytes, no length prefix (already-encoded payloads).
  void Raw(std::string_view s) { buf_.append(s.data(), s.size()); }
  /// Pre-sizes the buffer for a payload of known length.
  void Reserve(size_t n) { buf_.reserve(n); }

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Bounds-checked sequential decoder over one payload. Every getter returns
/// a Status; after the first failure the reader is poisoned and all further
/// reads fail, so callers may chain reads and check once.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status U8(uint8_t* v);
  Status U16(uint16_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status F64(double* v);
  Status Bool(bool* v);
  Status Str(std::string* v);

  /// Reads a u32 element count for a sequence whose elements occupy at least
  /// `min_bytes_per_element` bytes each; counts that could not possibly fit
  /// in the remaining payload are rejected before any allocation.
  Status Count(size_t min_bytes_per_element, size_t* count);

  size_t remaining() const { return data_.size() - pos_; }
  bool failed() const { return !status_.ok(); }

  /// Rejects trailing garbage: OK iff every payload byte was consumed.
  Status ExpectEnd() const;

 private:
  Status Take(size_t n, const uint8_t** out);

  std::string_view data_;
  size_t pos_ = 0;
  Status status_;
};

/// CRC32C (Castagnoli, the polynomial used by iSCSI, ext4, and most WAL
/// formats) over `data`, in portable software: slicing-by-8, eight bytes per
/// step through eight 256-entry tables, with a bytewise tail. Deterministic
/// across platforms. This one kernel checks every durable byte: WAL records
/// and checkpoint payloads (so torn or bit-flipped tails are detected, never
/// replayed) and segment pages (verified on every buffer-pool fault).
uint32_t Crc32c(std::string_view data);
/// Incremental form: feed `crc` the previous return value (start with 0).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

}  // namespace agentfirst

#endif  // AGENTFIRST_COMMON_BYTES_H_

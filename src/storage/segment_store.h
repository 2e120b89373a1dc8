#ifndef AGENTFIRST_STORAGE_SEGMENT_STORE_H_
#define AGENTFIRST_STORAGE_SEGMENT_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "io/file_util.h"
#include "storage/segment.h"

namespace agentfirst {
namespace storage {

/// Location of one segment page inside the page file. `length` is the
/// allocated extent (>= 8 + encoded body), kept so freed pages can be
/// reused first-fit; the true body length lives in the page header.
struct PageId {
  uint64_t offset = 0;
  uint32_t length = 0;
};

/// Persists columnar segments to a single page file, CRC-framed exactly like
/// the WAL: `u32 body_len | u32 crc32c(body) | body`. Pages are
/// self-describing (the body carries column types), so decode needs no
/// schema. The file is a spill cache, never a source of truth — Open()
/// truncates it, and corruption is reported as an error, not repaired;
/// durability remains the WAL + checkpoint layer's job.
///
/// Thread-safe: allocation metadata is guarded by an internal mutex, and the
/// positional read/write syscalls (pread/pwrite) touch disjoint extents, so
/// concurrent Read/Write on different pages do not serialize on IO.
class SegmentStore {
 public:
  static Result<std::unique_ptr<SegmentStore>> Open(const std::string& path);

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Serializes `seg` and writes it to a fresh or recycled extent.
  Result<PageId> Write(const Segment& seg) AF_EXCLUDES(mutex_);

  /// Reads, verifies and decodes the page at `id`. Fails (never UB) on a bad
  /// CRC or malformed body. A successful read records its read, CRC and
  /// decode time in af.storage.fault_{read,verify,decode}_us.
  Result<std::shared_ptr<Segment>> Read(const PageId& id) const;

  /// Returns `id`'s extent to the free list for reuse.
  void Free(const PageId& id) AF_EXCLUDES(mutex_);

  /// fsync(2) on the page file. Fault site: io.page.fsync.
  Status Sync();

  /// High-water mark of the file in bytes (allocated, including freed
  /// extents awaiting reuse).
  uint64_t FileBytes() const AF_EXCLUDES(mutex_);

  /// Encoder/decoder for one segment body (no frame). Exposed for tests.
  static std::string EncodeSegment(const Segment& seg);
  static Result<std::shared_ptr<Segment>> DecodeSegment(std::string_view body);

 private:
  explicit SegmentStore(io::File file) : file_(std::move(file)) {}

  io::File file_;
  mutable Mutex mutex_;
  uint64_t end_offset_ AF_GUARDED_BY(mutex_) = 0;
  std::vector<PageId> free_ AF_GUARDED_BY(mutex_);
};

}  // namespace storage
}  // namespace agentfirst

#endif  // AGENTFIRST_STORAGE_SEGMENT_STORE_H_

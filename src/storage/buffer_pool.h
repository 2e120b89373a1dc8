#ifndef AGENTFIRST_STORAGE_BUFFER_POOL_H_
#define AGENTFIRST_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/segment.h"
#include "storage/segment_store.h"

namespace agentfirst {
namespace storage {

/// Configuration for the paged-storage subsystem, mirroring
/// DurabilityOptions' shape: a directory plus policy knobs.
struct StorageOptions {
  /// Directory for the page file (created if absent). The file itself is
  /// `<dir>/pages.af` — a spill cache, truncated on every open; the WAL +
  /// checkpoint remain the only source of truth.
  std::string dir;
  /// Byte budget across all pooled segments. When resident bytes exceed it,
  /// the pool evicts cold clean segments and writes back cold dirty ones.
  /// 0 = unlimited (registration still tracks bytes; nothing evicts).
  uint64_t max_table_bytes = 0;
};

class BufferPool;

/// RAII pin over one segment. While any pin on a frame is live the segment
/// cannot be evicted, and the pin's shared_ptr keeps the data valid even if
/// the frame is unregistered. Pins are move-only and cheap (one shared_ptr
/// plus one counter decrement on release).
///
/// A default-constructed or unpooled pin (wrapping a bare segment) is also
/// valid — Table uses that form when no buffer pool is attached, so callers
/// never branch on whether storage is paged.
class SegmentPin {
 public:
  SegmentPin() = default;
  /// Unpooled pin: just keeps `seg` alive. Used by tables with no pool.
  explicit SegmentPin(std::shared_ptr<Segment> seg) : seg_(std::move(seg)) {}
  ~SegmentPin() { Release(); }

  SegmentPin(SegmentPin&& other) noexcept
      : pool_(other.pool_), frame_(other.frame_), seg_(std::move(other.seg_)) {
    other.pool_ = nullptr;
    other.seg_.reset();
  }
  SegmentPin& operator=(SegmentPin&& other) noexcept {
    if (this != &other) {
      Release();
      pool_ = other.pool_;
      frame_ = other.frame_;
      seg_ = std::move(other.seg_);
      other.pool_ = nullptr;
      other.seg_.reset();
    }
    return *this;
  }
  SegmentPin(const SegmentPin&) = delete;
  SegmentPin& operator=(const SegmentPin&) = delete;

  bool valid() const { return seg_ != nullptr; }
  const Segment& operator*() const { return *seg_; }
  const Segment* operator->() const { return seg_.get(); }
  const std::shared_ptr<Segment>& segment() const { return seg_; }
  /// Writable access; callers that mutate through it must MarkDirty the
  /// frame (Table's mutation paths do).
  Segment* mutable_segment() const { return seg_.get(); }

 private:
  friend class BufferPool;
  SegmentPin(BufferPool* pool, uint64_t frame, std::shared_ptr<Segment> seg)
      : pool_(pool), frame_(frame), seg_(std::move(seg)) {}
  void Release();

  BufferPool* pool_ = nullptr;
  uint64_t frame_ = 0;
  std::shared_ptr<Segment> seg_;
};

using PinnedSegments = std::vector<SegmentPin>;

/// Byte-budgeted segment cache over a SegmentStore: the subsystem that lets
/// tables scale past RAM. Tables register their segments as frames; readers
/// Pin() a frame to get the segment (faulting it back from the page file if
/// evicted), and the pool evicts cold unpinned segments — writing dirty ones
/// back first — whenever resident bytes exceed the budget.
///
/// Eviction policy: clock second-chance over registration order. A frame is
/// evictable only when it is resident, unpinned, not mid-fault, and the pool
/// holds the sole shared_ptr to the segment (`use_count() == 1`) — segments
/// aliased by branch snapshots are pinned by sharing and never evicted, so
/// COW branches stay correct without the pool knowing about them.
///
/// Write-back failure is never data loss: the page file is a cache, so a
/// failed write-back simply keeps the segment resident (counted in
/// af.storage.write_back_errors) and the budget temporarily overshoots.
/// Pinned frames can also overshoot the budget — pins are correctness,
/// the budget is policy.
///
/// Thread-safe; one mutex guards the frame table, and fault IO runs outside
/// the lock (a `loading` flag + condvar serializes concurrent faults on the
/// same frame). Frames must not be Unregister()ed concurrently with Pin()s
/// on the same frame — Table guarantees this (unregistration happens only
/// under exclusive table ownership: destruction and RemoveRows).
class BufferPool {
 public:
  static Result<std::unique_ptr<BufferPool>> Open(const StorageOptions& opts);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Adds `seg` as a new frame (resident, dirty — it has never been written
  /// to the page file). May evict other frames to stay within budget.
  uint64_t Register(std::shared_ptr<Segment> seg) AF_EXCLUDES(mutex_);

  /// Drops the frame and frees its page-file extent. Outstanding pins keep
  /// the segment data alive; the frame id becomes invalid.
  void Unregister(uint64_t frame) AF_EXCLUDES(mutex_);

  /// Returns a pinned reference to the frame's segment, faulting it in from
  /// the page file if evicted. A pin that finds another thread faulting the
  /// same frame waits for it and records the wait in af.storage.pin_wait_us.
  /// Fails only on IO errors (io.page.read) or an unknown frame id.
  Result<SegmentPin> Pin(uint64_t frame) AF_EXCLUDES(mutex_);

  /// Records that the segment was mutated through a pin: re-measures its
  /// bytes and marks the frame dirty so eviction writes it back.
  void MarkDirty(uint64_t frame) AF_EXCLUDES(mutex_);

  /// Writes back every resident dirty frame (keeping it resident) and syncs
  /// the page file. Not required for correctness — the cache is never
  /// authoritative — but bounds refault cost after bursts of writes.
  Status FlushAll() AF_EXCLUDES(mutex_);

  uint64_t ResidentBytes() const AF_EXCLUDES(mutex_);
  /// Per-frame introspection for operator tooling (afsh \tables): last
  /// measured byte size, and whether the segment is currently resident.
  uint64_t FrameBytes(uint64_t frame) const AF_EXCLUDES(mutex_);
  bool FrameResident(uint64_t frame) const AF_EXCLUDES(mutex_);
  uint64_t max_table_bytes() const { return opts_.max_table_bytes; }
  const StorageOptions& options() const { return opts_; }

 private:
  friend class SegmentPin;

  struct Frame {
    std::shared_ptr<Segment> seg;  // non-null iff resident
    PageId page;
    bool on_disk = false;
    bool dirty = false;
    bool loading = false;  // one thread is faulting this frame in
    bool ref = false;      // clock second-chance bit
    uint32_t pins = 0;
    uint64_t bytes = 0;  // MemoryBytes at last residency accounting
  };

  explicit BufferPool(StorageOptions opts, std::unique_ptr<SegmentStore> store)
      : opts_(std::move(opts)), store_(std::move(store)) {}

  void Unpin(uint64_t frame) AF_EXCLUDES(mutex_);
  /// Best-effort clock sweep until resident bytes fit the budget. Dirty
  /// victims are written back through the store (lock order: pool mutex ->
  /// store mutex; the store never calls back into the pool).
  void EvictLocked() AF_REQUIRES(mutex_);

  const StorageOptions opts_;
  std::unique_ptr<SegmentStore> store_;

  mutable Mutex mutex_;
  CondVar load_cv_;
  std::unordered_map<uint64_t, Frame> frames_ AF_GUARDED_BY(mutex_);
  /// Clock order (registration order); ids of unregistered frames are
  /// dropped lazily during sweeps.
  std::vector<uint64_t> clock_ AF_GUARDED_BY(mutex_);
  size_t hand_ AF_GUARDED_BY(mutex_) = 0;
  uint64_t next_frame_ AF_GUARDED_BY(mutex_) = 1;
  uint64_t resident_bytes_ AF_GUARDED_BY(mutex_) = 0;
};

}  // namespace storage
}  // namespace agentfirst

#endif  // AGENTFIRST_STORAGE_BUFFER_POOL_H_

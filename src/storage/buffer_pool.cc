#include "storage/buffer_pool.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"

namespace agentfirst {
namespace storage {

namespace {

obs::Counter* PinsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("af.storage.pins");
  return c;
}
obs::Counter* FaultsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("af.storage.faults");
  return c;
}
obs::Counter* EvictionsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("af.storage.evictions");
  return c;
}
obs::Counter* WriteBacksCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("af.storage.write_backs");
  return c;
}
obs::Counter* WriteBackErrorsCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Default().GetCounter(
      "af.storage.write_back_errors");
  return c;
}
obs::Histogram* PinWaitHistogram() {
  static obs::Histogram* h =
      obs::MetricsRegistry::Default().GetHistogram("af.storage.pin_wait_us");
  return h;
}
obs::Gauge* ResidentBytesGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Default().GetGauge("af.storage.resident_bytes");
  return g;
}

}  // namespace

void SegmentPin::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
  seg_.reset();
}

Result<std::unique_ptr<BufferPool>> BufferPool::Open(
    const StorageOptions& opts) {
  AF_RETURN_IF_ERROR(io::CreateDirectories(opts.dir));
  AF_ASSIGN_OR_RETURN(std::unique_ptr<SegmentStore> store,
                      SegmentStore::Open(opts.dir + "/pages.af"));
  return std::unique_ptr<BufferPool>(new BufferPool(opts, std::move(store)));
}

uint64_t BufferPool::Register(std::shared_ptr<Segment> seg) {
  MutexLock lock(mutex_);
  uint64_t id = next_frame_++;
  Frame f;
  f.bytes = seg->MemoryBytes();
  f.seg = std::move(seg);
  f.dirty = true;
  f.ref = true;
  resident_bytes_ += f.bytes;
  frames_.emplace(id, std::move(f));
  clock_.push_back(id);
  EvictLocked();
  return id;
}

void BufferPool::Unregister(uint64_t frame) {
  MutexLock lock(mutex_);
  auto it = frames_.find(frame);
  if (it == frames_.end()) return;
  Frame& f = it->second;
  if (f.seg) resident_bytes_ -= f.bytes;
  if (f.on_disk) store_->Free(f.page);
  frames_.erase(it);
  ResidentBytesGauge()->Set(static_cast<int64_t>(resident_bytes_));
  // clock_ keeps the stale id; sweeps drop it when they pass over it.
}

Result<SegmentPin> BufferPool::Pin(uint64_t frame) {
  PageId page;
  {
    MutexLock lock(mutex_);
    auto it = frames_.find(frame);
    if (it == frames_.end()) {
      return Status::Internal("buffer_pool: pin of unknown frame");
    }
    Frame& f = it->second;
    if (f.loading) {
      // Another thread is faulting this frame in; the wait is part of what
      // a fault costs its concurrent readers (the reader convoy).
      const auto wait_start = std::chrono::steady_clock::now();
      load_cv_.Wait(mutex_, [this, &f]() AF_REQUIRES(mutex_) {
        return !f.loading;
      });
      PinWaitHistogram()->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - wait_start)
              .count()));
    }
    if (f.seg) {
      ++f.pins;
      f.ref = true;
      PinsCounter()->Increment();
      return SegmentPin(this, frame, f.seg);
    }
    // Not resident: this thread faults it in. Concurrent pinners of the same
    // frame wait on load_cv_; if our read fails they retry the fault
    // themselves (Pin is re-entered by Table on retryable errors only at the
    // query layer — here a failure is simply reported).
    f.loading = true;
    page = f.page;
  }

  // Fault IO runs with the pool unlocked so unrelated pins proceed.
  Result<std::shared_ptr<Segment>> loaded = store_->Read(page);

  MutexLock lock(mutex_);
  auto it = frames_.find(frame);
  if (it == frames_.end()) {
    load_cv_.notify_all();
    return Status::Internal("buffer_pool: frame unregistered during fault");
  }
  Frame& f = it->second;
  f.loading = false;
  load_cv_.notify_all();
  if (!loaded.ok()) return loaded.status();
  f.seg = std::move(loaded).value();
  f.bytes = f.seg->MemoryBytes();
  resident_bytes_ += f.bytes;
  ++f.pins;
  f.ref = true;
  FaultsCounter()->Increment();
  PinsCounter()->Increment();
  EvictLocked();
  return SegmentPin(this, frame, f.seg);
}

void BufferPool::Unpin(uint64_t frame) {
  MutexLock lock(mutex_);
  auto it = frames_.find(frame);
  if (it == frames_.end()) return;  // unregistered while pinned: fine
  if (it->second.pins > 0) --it->second.pins;
  // A query that pinned many segments (the vectorized path pins a whole
  // scan) can leave the pool far over budget with every fault's sweep having
  // found only pinned frames; re-enforce the budget as the pins drain.
  if (it->second.pins == 0 && opts_.max_table_bytes > 0 &&
      resident_bytes_ > opts_.max_table_bytes) {
    EvictLocked();
  }
}

void BufferPool::MarkDirty(uint64_t frame) {
  MutexLock lock(mutex_);
  auto it = frames_.find(frame);
  if (it == frames_.end()) return;
  Frame& f = it->second;
  f.dirty = true;
  if (f.seg) {
    uint64_t now = f.seg->MemoryBytes();
    resident_bytes_ += now;
    resident_bytes_ -= f.bytes;
    f.bytes = now;
    EvictLocked();
  }
}

void BufferPool::EvictLocked() {
  if (opts_.max_table_bytes == 0) {
    ResidentBytesGauge()->Set(static_cast<int64_t>(resident_bytes_));
    return;
  }
  // Bounded two-pass clock sweep: pass one clears reference bits, pass two
  // evicts. If everything is pinned/shared/loading the sweep ends with the
  // budget overshooting — pins are correctness, the budget is policy.
  size_t examined = 0;
  size_t budget_scans = clock_.size() * 2 + 2;
  while (resident_bytes_ > opts_.max_table_bytes && !clock_.empty() &&
         examined < budget_scans) {
    if (hand_ >= clock_.size()) hand_ = 0;
    auto it = frames_.find(clock_[hand_]);
    if (it == frames_.end()) {
      // Unregistered frame: drop the stale clock entry (doesn't count as an
      // examination; the vector shrinks so this terminates).
      clock_.erase(clock_.begin() + static_cast<ptrdiff_t>(hand_));
      continue;
    }
    ++examined;
    Frame& f = it->second;
    bool evictable = f.seg && f.pins == 0 && !f.loading &&
                     f.seg.use_count() == 1;
    if (!evictable) {
      ++hand_;
      continue;
    }
    if (f.ref) {
      f.ref = false;
      ++hand_;
      continue;
    }
    if (f.dirty) {
      Result<PageId> page = store_->Write(*f.seg);
      if (!page.ok()) {
        // Cache write failure is not data loss: keep the segment resident.
        WriteBackErrorsCounter()->Increment();
        ++hand_;
        continue;
      }
      if (f.on_disk) store_->Free(f.page);
      f.page = page.value();
      f.on_disk = true;
      f.dirty = false;
      WriteBacksCounter()->Increment();
    }
    resident_bytes_ -= f.bytes;
    f.seg.reset();
    EvictionsCounter()->Increment();
    ++hand_;
  }
  ResidentBytesGauge()->Set(static_cast<int64_t>(resident_bytes_));
}

Status BufferPool::FlushAll() {
  MutexLock lock(mutex_);
  for (auto& [id, f] : frames_) {
    if (!f.seg || !f.dirty) continue;
    AF_ASSIGN_OR_RETURN(PageId page, store_->Write(*f.seg));
    if (f.on_disk) store_->Free(f.page);
    f.page = page;
    f.on_disk = true;
    f.dirty = false;
    WriteBacksCounter()->Increment();
  }
  return store_->Sync();
}

uint64_t BufferPool::ResidentBytes() const {
  MutexLock lock(mutex_);
  return resident_bytes_;
}

uint64_t BufferPool::FrameBytes(uint64_t frame) const {
  MutexLock lock(mutex_);
  auto it = frames_.find(frame);
  return it == frames_.end() ? 0 : it->second.bytes;
}

bool BufferPool::FrameResident(uint64_t frame) const {
  MutexLock lock(mutex_);
  auto it = frames_.find(frame);
  return it != frames_.end() && it->second.seg != nullptr;
}

}  // namespace storage
}  // namespace agentfirst

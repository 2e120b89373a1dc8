#include "wal/wal.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "types/serde.h"

namespace agentfirst {
namespace wal {

namespace {

obs::Counter* RecordsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("af.wal.records");
  return c;
}
obs::Counter* BytesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("af.wal.bytes");
  return c;
}
obs::Counter* FsyncsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("af.wal.fsyncs");
  return c;
}
obs::Counter* GroupCommitsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("af.wal.group_commits");
  return c;
}
obs::Counter* ErrorsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default().GetCounter("af.wal.errors");
  return c;
}

/// Frames one record: len | crc | (type, lsn, body). The CRC runs over the
/// caller's body where it lies, and the frame is built in one reserved
/// buffer, so the body is copied once.
std::string EncodeFrame(WalRecordType type, uint64_t lsn,
                        std::string_view body) {
  ByteWriter head;
  head.U8(static_cast<uint8_t>(type));
  head.U64(lsn);
  const std::string& prefix = head.buffer();
  const uint32_t len = static_cast<uint32_t>(prefix.size() + body.size());
  ByteWriter frame;
  frame.Reserve(8 + static_cast<size_t>(len));
  frame.U32(len);
  frame.U32(Crc32cExtend(Crc32c(prefix), body.data(), body.size()));
  frame.Raw(prefix);
  frame.Raw(body);
  return frame.Take();
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy p) {
  switch (p) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kGroupCommit:
      return "group_commit";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

std::string EncodeWalHeader() {
  ByteWriter w;
  w.U8(static_cast<uint8_t>(kWalMagic[0]));
  w.U8(static_cast<uint8_t>(kWalMagic[1]));
  w.U8(static_cast<uint8_t>(kWalMagic[2]));
  w.U8(static_cast<uint8_t>(kWalMagic[3]));
  w.U32(kWalFormatVersion);
  return w.Take();
}

std::string WalPath(const std::string& data_dir) {
  return data_dir + "/wal.log";
}

std::string CheckpointPath(const std::string& data_dir) {
  return data_dir + "/checkpoint.af";
}

Result<std::vector<WalRecord>> ReadWalImage(std::string_view bytes,
                                            WalReadStats* stats) {
  if (bytes.size() < kWalHeaderSize) {
    return Status::InvalidArgument("wal: file shorter than header");
  }
  if (bytes.substr(0, 4) != std::string_view(kWalMagic, 4)) {
    return Status::InvalidArgument("wal: bad magic");
  }
  ByteReader head(bytes.substr(4, 4));
  uint32_t version = 0;
  AF_RETURN_IF_ERROR(head.U32(&version));
  if (version != kWalFormatVersion) {
    return Status::InvalidArgument("wal: unsupported format version " +
                                   std::to_string(version));
  }

  std::vector<WalRecord> records;
  size_t pos = kWalHeaderSize;
  // Each iteration parses one frame; any shortfall or checksum mismatch ends
  // the readable prefix. `pos` only advances past fully verified frames.
  while (bytes.size() - pos >= 8) {
    ByteReader frame_head(bytes.substr(pos, 8));
    uint32_t len = 0;
    uint32_t crc = 0;
    AF_RETURN_IF_ERROR(frame_head.U32(&len));
    AF_RETURN_IF_ERROR(frame_head.U32(&crc));
    if (len < 9 || len > kMaxWalRecordSize) break;      // type + lsn minimum
    if (bytes.size() - pos - 8 < len) break;            // torn payload
    std::string_view payload = bytes.substr(pos + 8, len);
    if (Crc32c(payload) != crc) break;                  // bit rot / garbage
    ByteReader r(payload);
    uint8_t type = 0;
    uint64_t lsn = 0;
    AF_RETURN_IF_ERROR(r.U8(&type));
    AF_RETURN_IF_ERROR(r.U64(&lsn));
    if (type < 1 || type > 14) break;                   // unknown record kind
    WalRecord rec;
    rec.type = static_cast<WalRecordType>(type);
    rec.lsn = lsn;
    rec.body = std::string(payload.substr(9));
    rec.file_offset = pos;
    records.push_back(std::move(rec));
    pos += 8 + len;
  }
  if (stats != nullptr) {
    stats->records = records.size();
    stats->valid_bytes = pos;
    stats->torn_bytes = bytes.size() - pos;
  }
  return records;
}

void AppendArtifact(const MemoryArtifact& a, ByteWriter* w) {
  w->U64(a.id);
  w->U8(static_cast<uint8_t>(a.kind));
  w->Str(a.key);
  w->Str(a.content);
  w->U32(static_cast<uint32_t>(a.table_deps.size()));
  for (const auto& dep : a.table_deps) w->Str(dep);
  w->U64(a.schema_version);
  w->U32(static_cast<uint32_t>(a.table_versions.size()));
  for (const auto& [table, version] : a.table_versions) {
    w->Str(table);
    w->U64(version);
  }
  w->Str(a.owner);
  w->U64(a.created_tick);
  w->U64(a.last_used_tick);
}

Status ReadArtifact(ByteReader* r, MemoryArtifact* out) {
  MemoryArtifact a;
  uint8_t kind = 0;
  AF_RETURN_IF_ERROR(r->U64(&a.id));
  AF_RETURN_IF_ERROR(r->U8(&kind));
  if (kind > static_cast<uint8_t>(ArtifactKind::kGroundingNote)) {
    return Status::InvalidArgument("wal: bad artifact kind");
  }
  a.kind = static_cast<ArtifactKind>(kind);
  AF_RETURN_IF_ERROR(r->Str(&a.key));
  AF_RETURN_IF_ERROR(r->Str(&a.content));
  size_t ndeps = 0;
  AF_RETURN_IF_ERROR(r->Count(4, &ndeps));
  a.table_deps.resize(ndeps);
  for (size_t i = 0; i < ndeps; ++i) AF_RETURN_IF_ERROR(r->Str(&a.table_deps[i]));
  AF_RETURN_IF_ERROR(r->U64(&a.schema_version));
  size_t nvers = 0;
  AF_RETURN_IF_ERROR(r->Count(12, &nvers));
  for (size_t i = 0; i < nvers; ++i) {
    std::string table;
    uint64_t version = 0;
    AF_RETURN_IF_ERROR(r->Str(&table));
    AF_RETURN_IF_ERROR(r->U64(&version));
    a.table_versions[table] = version;
  }
  AF_RETURN_IF_ERROR(r->Str(&a.owner));
  AF_RETURN_IF_ERROR(r->U64(&a.created_tick));
  AF_RETURN_IF_ERROR(r->U64(&a.last_used_tick));
  *out = std::move(a);
  return Status::OK();
}

bool BranchMeta::IsTainted(uint64_t branch) const {
  if (branch == BranchManager::kMainBranch) return main_tainted;
  for (const auto& f : forks) {
    if (f.id == branch) return f.tainted;
  }
  return false;
}

void BranchMeta::Taint(uint64_t branch) {
  if (branch == BranchManager::kMainBranch) {
    main_tainted = true;
    return;
  }
  for (auto& f : forks) {
    if (f.id == branch) f.tainted = true;
  }
}

// --- WalWriter --------------------------------------------------------------

WalWriter::WalWriter(const DurabilityOptions& options, uint64_t next_lsn)
    : options_(options), next_lsn_(next_lsn) {}

WalWriter::~WalWriter() {
  (void)Close();  // best-effort on teardown; Close() reports errors when called
}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path, const DurabilityOptions& options,
    uint64_t next_lsn) {
  AF_FAULT_POINT("wal.open");
  bool fresh = true;
  if (io::FileExists(path)) {
    AF_ASSIGN_OR_RETURN(uint64_t size, io::FileSize(path));
    fresh = size < kWalHeaderSize;
  }
  AF_ASSIGN_OR_RETURN(io::File file, io::File::OpenForAppend(path));
  std::unique_ptr<WalWriter> writer(new WalWriter(options, next_lsn));
  {
    MutexLock lock(writer->mutex_);
    writer->file_ = std::move(file);
    // Everything below next_lsn was recovered from stable storage (or never
    // existed) — it is already durable. Without this the first post-recovery
    // barrier would wait forever for LSNs the flusher will never see.
    writer->durable_lsn_ = next_lsn - 1;
    writer->buffered_lsn_ = next_lsn - 1;
    if (fresh) {
      AF_RETURN_IF_ERROR(writer->file_.WriteAll(EncodeWalHeader()));
      AF_RETURN_IF_ERROR(writer->file_.Sync());
    } else {
      AF_ASSIGN_OR_RETURN(uint64_t size, io::FileSize(path));
      writer->live_bytes_ = size - kWalHeaderSize;
    }
  }
  if (options.fsync != FsyncPolicy::kAlways) {
    // The flusher gets its own single-thread pool (never the shared default
    // pool: a durability fsync must not queue behind query morsels).
    writer->flusher_ = std::make_unique<ThreadPool>(1);
    WalWriter* raw = writer.get();
    (void)raw->flusher_->Submit([raw] { raw->FlusherLoop(); });
  }
  return writer;
}

Result<uint64_t> WalWriter::Append(WalRecordType type, std::string_view body) {
  MutexLock lock(mutex_);
  if (closed_) return Status::Internal("wal: appending to closed log");
  AF_RETURN_IF_ERROR(io_status_);
  Status injected = AF_FAULT_STATUS("wal.append");
  if (!injected.ok()) {
    io_status_ = injected;
    ErrorsCounter()->Increment();
    durable_cv_.notify_all();
    return injected;
  }
  uint64_t lsn = next_lsn_++;
  std::string frame = EncodeFrame(type, lsn, body);
  RecordsCounter()->Increment();
  BytesCounter()->Add(frame.size());
  if (options_.fsync == FsyncPolicy::kAlways) {
    pending_ += frame;
    buffered_lsn_ = lsn;
    Status flushed = FlushLocked(/*sync=*/true);
    if (!flushed.ok()) return flushed;
    return lsn;
  }
  bool was_empty = pending_.empty();
  pending_ += frame;
  buffered_lsn_ = lsn;
  if (was_empty) flusher_cv_.notify_one();
  return lsn;
}

Status WalWriter::FlushLocked(bool sync) {
  if (!io_status_.ok()) return io_status_;
  if (!pending_.empty()) {
    std::string batch;
    batch.swap(pending_);
    uint64_t batch_lsn = buffered_lsn_;
    Status written = file_.WriteAll(batch);
    if (written.ok()) {
      live_bytes_ += batch.size();
      if (sync) {
        written = file_.Sync();
        if (written.ok()) FsyncsCounter()->Increment();
      }
    }
    if (!written.ok()) {
      io_status_ = written;
      ErrorsCounter()->Increment();
      durable_cv_.notify_all();
      return written;
    }
    if (sync) {
      durable_lsn_ = batch_lsn;
      durable_cv_.notify_all();
    }
  } else if (sync && durable_lsn_ < buffered_lsn_) {
    // Bytes were written by a kNever-policy flush but never fsynced.
    Status synced = file_.Sync();
    if (!synced.ok()) {
      io_status_ = synced;
      ErrorsCounter()->Increment();
      durable_cv_.notify_all();
      return synced;
    }
    FsyncsCounter()->Increment();
    durable_lsn_ = buffered_lsn_;
    durable_cv_.notify_all();
  }
  return Status::OK();
}

void WalWriter::FlusherLoop() {
  const bool sync = options_.fsync == FsyncPolicy::kGroupCommit;
  for (;;) {
    {
      MutexLock lock(mutex_);
      flusher_cv_.Wait(mutex_, [this]() AF_REQUIRES(mutex_) {
        return stop_flusher_ || !pending_.empty();
      });
      if (stop_flusher_ && pending_.empty()) return;
    }
    // Coalescing window: let concurrent appenders pile onto this batch so
    // one fsync commits them all.
    if (options_.group_window_us > 0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(options_.group_window_us));
    }
    MutexLock lock(mutex_);
    if (!pending_.empty() && sync) GroupCommitsCounter()->Increment();
    Status flushed = AF_FAULT_STATUS("wal.flush.batch");
    if (!flushed.ok()) {
      io_status_ = flushed;
      ErrorsCounter()->Increment();
      durable_cv_.notify_all();
      continue;  // stay alive to serve stop/close
    }
    (void)FlushLocked(sync);  // errors are sticky in io_status_
  }
}

Status WalWriter::WaitDurable(uint64_t lsn) {
  MutexLock lock(mutex_);
  if (options_.fsync == FsyncPolicy::kNever) return io_status_;
  durable_cv_.Wait(mutex_, [this, lsn]() AF_REQUIRES(mutex_) {
    return durable_lsn_ >= lsn || !io_status_.ok();
  });
  return io_status_;
}

Status WalWriter::Sync() {
  MutexLock lock(mutex_);
  return FlushLocked(/*sync=*/true);
}

Status WalWriter::ResetAfterCheckpoint() {
  MutexLock lock(mutex_);
  AF_RETURN_IF_ERROR(io_status_);
  // Everything buffered is committed by the checkpoint itself; drop it.
  AF_RETURN_IF_ERROR(FlushLocked(/*sync=*/false));
  AF_FAULT_POINT("wal.reset.truncate");
  AF_RETURN_IF_ERROR(file_.Truncate(kWalHeaderSize));
  AF_RETURN_IF_ERROR(file_.Sync());
  live_bytes_ = 0;
  durable_lsn_ = buffered_lsn_;
  durable_cv_.notify_all();
  return Status::OK();
}

Status WalWriter::Close() {
  {
    MutexLock lock(mutex_);
    if (closed_) return Status::OK();
    closed_ = true;
    stop_flusher_ = true;
    flusher_cv_.notify_all();
  }
  flusher_.reset();  // joins the flush thread
  MutexLock lock(mutex_);
  Status flushed = FlushLocked(/*sync=*/true);
  Status file_closed = file_.Close();
  durable_cv_.notify_all();
  if (!flushed.ok()) return flushed;
  return file_closed;
}

uint64_t WalWriter::durable_lsn() const {
  MutexLock lock(mutex_);
  return durable_lsn_;
}

uint64_t WalWriter::last_lsn() const {
  MutexLock lock(mutex_);
  return next_lsn_ - 1;
}

uint64_t WalWriter::live_bytes() const {
  MutexLock lock(mutex_);
  return live_bytes_ + pending_.size();
}

// --- WalManager -------------------------------------------------------------

void WalManager::Log(WalRecordType type, std::string_view body) {
  // Listener callbacks cannot return errors; Append failures are sticky
  // inside the writer and surface at the next Barrier().
  (void)writer_->Append(type, body);
}

Status WalManager::Barrier() {
  return writer_->WaitDurable(writer_->last_lsn());
}

void WalManager::OnCreateTable(const Table& table) {
  ByteWriter w;
  w.Str(table.name());
  AppendSchema(table.schema(), &w);
  w.U64(table.segment_capacity());
  Log(WalRecordType::kCreateTable, w.buffer());
}

void WalManager::OnRegisterTable(const Table& table) {
  ByteWriter w;
  w.Str(table.name());
  AppendSchema(table.schema(), &w);
  w.U64(table.segment_capacity());
  w.U64(table.data_version());
  w.U32(static_cast<uint32_t>(table.NumRows()));
  for (size_t i = 0; i < table.NumRows(); ++i) {
    auto row = table.GetRow(i);
    if (!row.ok()) return;  // unreachable for a well-formed table
    AppendRow(*row, &w);
  }
  Log(WalRecordType::kRegisterTable, w.buffer());
}

void WalManager::OnDropTable(const std::string& name) {
  ByteWriter w;
  w.Str(name);
  Log(WalRecordType::kDropTable, w.buffer());
}

void WalManager::OnCreateIndex(const std::string& table,
                               const std::string& column) {
  ByteWriter w;
  w.Str(table);
  w.Str(column);
  Log(WalRecordType::kCreateIndex, w.buffer());
}

void WalManager::OnDropIndex(const std::string& table,
                             const std::string& column) {
  ByteWriter w;
  w.Str(table);
  w.Str(column);
  Log(WalRecordType::kDropIndex, w.buffer());
}

void WalManager::OnAppendRows(const Table& table, size_t first_row,
                              const Row* rows, size_t n) {
  ByteWriter w;
  w.Str(table.name());
  w.U64(first_row);
  w.U32(static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) AppendRow(rows[i], &w);
  Log(WalRecordType::kAppendRows, w.buffer());
}

void WalManager::OnSetValue(const Table& table, size_t row, size_t col,
                            const Value& value) {
  ByteWriter w;
  w.Str(table.name());
  w.U64(row);
  w.U64(col);
  AppendValue(value, &w);
  Log(WalRecordType::kSetValue, w.buffer());
}

void WalManager::OnRemoveRows(const Table& table,
                              const std::vector<uint8_t>& removed_mask) {
  ByteWriter w;
  w.Str(table.name());
  w.U32(static_cast<uint32_t>(removed_mask.size()));
  for (uint8_t m : removed_mask) w.U8(m != 0 ? 1 : 0);
  Log(WalRecordType::kRemoveRows, w.buffer());
}

void WalManager::OnPut(const MemoryArtifact& artifact) {
  ByteWriter w;
  AppendArtifact(artifact, &w);
  Log(WalRecordType::kMemoryPut, w.buffer());
}

void WalManager::OnRemove(uint64_t id) {
  ByteWriter w;
  w.U64(id);
  Log(WalRecordType::kMemoryRemove, w.buffer());
}

void WalManager::OnImport(const std::string& table, uint64_t data_version) {
  meta_.imports.push_back(BranchMeta::Import{table, data_version});
  ByteWriter w;
  w.Str(table);
  w.U64(data_version);
  Log(WalRecordType::kBranchImport, w.buffer());
}

void WalManager::OnFork(uint64_t id, uint64_t parent) {
  // A fork of a tainted parent shares unreproducible segments from birth.
  meta_.forks.push_back(
      BranchMeta::Fork{id, parent, meta_.IsTainted(parent)});
  ByteWriter w;
  w.U64(id);
  w.U64(parent);
  Log(WalRecordType::kBranchFork, w.buffer());
}

void WalManager::OnMutate(uint64_t branch) {
  meta_.Taint(branch);
  ByteWriter w;
  w.U64(branch);
  Log(WalRecordType::kBranchMutate, w.buffer());
}

void WalManager::OnRollback(uint64_t branch) {
  meta_.forks.erase(
      std::remove_if(meta_.forks.begin(), meta_.forks.end(),
                     [branch](const BranchMeta::Fork& f) { return f.id == branch; }),
      meta_.forks.end());
  ByteWriter w;
  w.U64(branch);
  Log(WalRecordType::kBranchRollback, w.buffer());
}

}  // namespace wal
}  // namespace agentfirst

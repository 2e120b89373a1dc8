#include "storage/segment_store.h"

#include <chrono>
#include <utility>

#include "common/bytes.h"
#include "common/fault_injection.h"
#include "obs/metrics.h"

namespace agentfirst {
namespace storage {

namespace {
constexpr size_t kFrameHeaderBytes = 8;  // u32 body_len + u32 crc32c

Status Corrupt(const std::string& what) {
  return Status::Internal("segment_store: corrupt page (" + what + ")");
}

/// The fault ledger: where one page fault's time goes. Each successful Read
/// records one sample in each histogram, so their counts match
/// af.storage.faults when the buffer pool is the only reader.
struct FaultLedger {
  obs::Histogram* read_us;
  obs::Histogram* verify_us;
  obs::Histogram* decode_us;
};

const FaultLedger& Ledger() {
  static const FaultLedger ledger = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
    return FaultLedger{reg.GetHistogram("af.storage.fault_read_us"),
                       reg.GetHistogram("af.storage.fault_verify_us"),
                       reg.GetHistogram("af.storage.fault_decode_us")};
  }();
  return ledger;
}

uint64_t MicrosBetween(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(b - a).count());
}
}  // namespace

Result<std::unique_ptr<SegmentStore>> SegmentStore::Open(
    const std::string& path) {
  AF_ASSIGN_OR_RETURN(io::File file, io::File::OpenForReadWrite(path));
  return std::unique_ptr<SegmentStore>(new SegmentStore(std::move(file)));
}

std::string SegmentStore::EncodeSegment(const Segment& seg) {
  ByteWriter w;
  w.U64(seg.capacity());
  w.U32(static_cast<uint32_t>(seg.num_rows()));
  w.U16(static_cast<uint16_t>(seg.NumColumns()));
  const size_t n = seg.num_rows();
  for (size_t c = 0; c < seg.NumColumns(); ++c) {
    const ColumnVector& col = seg.column(c);
    w.U8(static_cast<uint8_t>(col.type()));
    w.Str(std::string_view(reinterpret_cast<const char*>(col.valid_data()), n));
    switch (col.type()) {
      case DataType::kInt64: {
        const int64_t* data = col.int_data();
        for (size_t r = 0; r < n; ++r) {
          w.U64(static_cast<uint64_t>(data[r]));
        }
        break;
      }
      case DataType::kFloat64: {
        const double* data = col.double_data();
        for (size_t r = 0; r < n; ++r) w.F64(data[r]);
        break;
      }
      case DataType::kBool:
        w.Str(std::string_view(reinterpret_cast<const char*>(col.bool_data()),
                               n));
        break;
      case DataType::kString: {
        const std::string* data = col.string_data();
        const uint8_t* valid = col.valid_data();
        // NULL cells encode as empty so pages are canonical regardless of
        // what a dead slot happens to hold in memory.
        for (size_t r = 0; r < n; ++r) {
          w.Str(valid[r] ? std::string_view(data[r]) : std::string_view());
        }
        break;
      }
      default:
        break;  // typeless column: validity only
    }
  }
  return w.Take();
}

Result<std::shared_ptr<Segment>> SegmentStore::DecodeSegment(
    std::string_view body) {
  ByteReader r(body);
  uint64_t capacity = 0;
  uint32_t num_rows = 0;
  uint16_t num_cols = 0;
  AF_RETURN_IF_ERROR(r.U64(&capacity));
  AF_RETURN_IF_ERROR(r.U32(&num_rows));
  AF_RETURN_IF_ERROR(r.U16(&num_cols));
  if (num_rows > capacity) return Corrupt("num_rows exceeds capacity");
  std::vector<std::shared_ptr<ColumnVector>> columns;
  columns.reserve(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    uint8_t tag = 0;
    AF_RETURN_IF_ERROR(r.U8(&tag));
    if (tag > static_cast<uint8_t>(DataType::kString)) {
      return Corrupt("unknown column type tag");
    }
    DataType type = static_cast<DataType>(tag);
    std::string valid;
    AF_RETURN_IF_ERROR(r.Str(&valid));
    if (valid.size() != num_rows) return Corrupt("validity length mismatch");
    auto col = std::make_shared<ColumnVector>(type);
    switch (type) {
      case DataType::kInt64: {
        for (size_t i = 0; i < num_rows; ++i) {
          uint64_t bits = 0;
          AF_RETURN_IF_ERROR(r.U64(&bits));
          AF_RETURN_IF_ERROR(col->Append(
              valid[i] ? Value::Int(static_cast<int64_t>(bits))
                       : Value::Null()));
        }
        break;
      }
      case DataType::kFloat64: {
        for (size_t i = 0; i < num_rows; ++i) {
          double v = 0;
          AF_RETURN_IF_ERROR(r.F64(&v));
          AF_RETURN_IF_ERROR(
              col->Append(valid[i] ? Value::Double(v) : Value::Null()));
        }
        break;
      }
      case DataType::kBool: {
        std::string bools;
        AF_RETURN_IF_ERROR(r.Str(&bools));
        if (bools.size() != num_rows) return Corrupt("bool length mismatch");
        for (size_t i = 0; i < num_rows; ++i) {
          AF_RETURN_IF_ERROR(col->Append(
              valid[i] ? Value::Bool(bools[i] != 0) : Value::Null()));
        }
        break;
      }
      case DataType::kString: {
        for (size_t i = 0; i < num_rows; ++i) {
          std::string s;
          AF_RETURN_IF_ERROR(r.Str(&s));
          AF_RETURN_IF_ERROR(col->Append(
              valid[i] ? Value::String(std::move(s)) : Value::Null()));
        }
        break;
      }
      default: {
        for (size_t i = 0; i < num_rows; ++i) {
          AF_RETURN_IF_ERROR(col->Append(Value::Null()));
        }
        break;
      }
    }
    columns.push_back(std::move(col));
  }
  AF_RETURN_IF_ERROR(r.ExpectEnd());
  return Segment::FromColumns(capacity, num_rows, std::move(columns));
}

Result<PageId> SegmentStore::Write(const Segment& seg) {
  std::string body = EncodeSegment(seg);
  ByteWriter header;
  header.U32(static_cast<uint32_t>(body.size()));
  header.U32(Crc32c(body));
  std::string frame = header.Take();
  frame += body;

  PageId id;
  {
    MutexLock lock(mutex_);
    // First-fit reuse of freed extents keeps the cache file from growing
    // without bound as segments churn.
    size_t pick = free_.size();
    for (size_t i = 0; i < free_.size(); ++i) {
      if (free_[i].length >= frame.size() &&
          (pick == free_.size() || free_[i].length < free_[pick].length)) {
        pick = i;
      }
    }
    if (pick < free_.size()) {
      id = free_[pick];
      free_.erase(free_.begin() + static_cast<ptrdiff_t>(pick));
    } else {
      id.offset = end_offset_;
      id.length = static_cast<uint32_t>(frame.size());
      end_offset_ += frame.size();
    }
  }
  Status written = file_.WriteAt(id.offset, frame);
  if (!written.ok()) {
    Free(id);  // the extent stays reusable; its bytes are garbage until then
    return written;
  }
  return id;
}

Result<std::shared_ptr<Segment>> SegmentStore::Read(const PageId& id) const {
  const auto t0 = std::chrono::steady_clock::now();
  AF_ASSIGN_OR_RETURN(std::string page, file_.ReadAt(id.offset, id.length));
  const auto t1 = std::chrono::steady_clock::now();
  ByteReader r(page);
  uint32_t body_len = 0;
  uint32_t crc = 0;
  AF_RETURN_IF_ERROR(r.U32(&body_len));
  AF_RETURN_IF_ERROR(r.U32(&crc));
  if (body_len > page.size() - kFrameHeaderBytes) {
    return Corrupt("body length exceeds extent");
  }
  // Verify and decode the body where it lies in the page buffer.
  const std::string_view body(page.data() + kFrameHeaderBytes, body_len);
  if (Crc32c(body) != crc) return Corrupt("crc mismatch");
  const auto t2 = std::chrono::steady_clock::now();
  Result<std::shared_ptr<Segment>> seg = DecodeSegment(body);
  if (!seg.ok()) return seg;
  const auto t3 = std::chrono::steady_clock::now();
  const FaultLedger& ledger = Ledger();
  ledger.read_us->Record(MicrosBetween(t0, t1));
  ledger.verify_us->Record(MicrosBetween(t1, t2));
  ledger.decode_us->Record(MicrosBetween(t2, t3));
  return seg;
}

void SegmentStore::Free(const PageId& id) {
  MutexLock lock(mutex_);
  free_.push_back(id);
}

Status SegmentStore::Sync() {
  AF_FAULT_POINT("io.page.fsync");
  return file_.Sync();
}

uint64_t SegmentStore::FileBytes() const {
  MutexLock lock(mutex_);
  return end_offset_;
}

}  // namespace storage
}  // namespace agentfirst

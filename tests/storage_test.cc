#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "core/system.h"
#include "exec/engine.h"
#include "gtest/gtest.h"
#include "io/file_util.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/column_vector.h"
#include "storage/segment.h"
#include "storage/segment_store.h"
#include "storage/table.h"
#include "test_util.h"
#include "wal/checkpoint.h"
#include "wal/wal.h"

namespace agentfirst {
namespace {

Schema TwoColSchema() {
  return Schema({ColumnDef("id", DataType::kInt64, false, "t"),
                 ColumnDef("name", DataType::kString, true, "t")});
}

TEST(ColumnVectorTest, AppendAndGet) {
  ColumnVector col(DataType::kInt64);
  ASSERT_TRUE(col.Append(Value::Int(7)).ok());
  ASSERT_TRUE(col.Append(Value::Null()).ok());
  EXPECT_EQ(col.size(), 2u);
  EXPECT_EQ(col.Get(0).int_value(), 7);
  EXPECT_TRUE(col.Get(1).is_null());
  EXPECT_TRUE(col.IsNull(1));
  EXPECT_FALSE(col.IsNull(0));
}

TEST(ColumnVectorTest, TypeMismatchRejected) {
  ColumnVector col(DataType::kInt64);
  EXPECT_FALSE(col.Append(Value::String("x")).ok());
  ColumnVector scol(DataType::kString);
  EXPECT_FALSE(scol.Append(Value::Int(1)).ok());
  ColumnVector bcol(DataType::kBool);
  EXPECT_FALSE(bcol.Append(Value::Int(1)).ok());
}

TEST(ColumnVectorTest, NumericCoercion) {
  ColumnVector dcol(DataType::kFloat64);
  ASSERT_TRUE(dcol.Append(Value::Int(3)).ok());
  EXPECT_DOUBLE_EQ(dcol.Get(0).double_value(), 3.0);
  ColumnVector icol(DataType::kInt64);
  ASSERT_TRUE(icol.Append(Value::Double(3.7)).ok());
  EXPECT_EQ(icol.Get(0).int_value(), 3);
}

TEST(ColumnVectorTest, SetOverwritesAndNullifies) {
  ColumnVector col(DataType::kString);
  ASSERT_TRUE(col.Append(Value::String("a")).ok());
  ASSERT_TRUE(col.Set(0, Value::String("b")).ok());
  EXPECT_EQ(col.Get(0).string_value(), "b");
  ASSERT_TRUE(col.Set(0, Value::Null()).ok());
  EXPECT_TRUE(col.Get(0).is_null());
  EXPECT_FALSE(col.Set(5, Value::String("x")).ok());
}

TEST(SegmentTest, AppendUntilFull) {
  Segment seg(TwoColSchema(), /*capacity=*/2);
  EXPECT_TRUE(seg.AppendRow({Value::Int(1), Value::String("a")}).ok());
  EXPECT_FALSE(seg.Full());
  EXPECT_TRUE(seg.AppendRow({Value::Int(2), Value::String("b")}).ok());
  EXPECT_TRUE(seg.Full());
  EXPECT_FALSE(seg.AppendRow({Value::Int(3), Value::String("c")}).ok());
  EXPECT_EQ(seg.num_rows(), 2u);
}

TEST(SegmentTest, AppendIsAllOrNothing) {
  Segment seg(TwoColSchema(), 4);
  // Second column has the wrong type; nothing should be appended.
  EXPECT_FALSE(seg.AppendRow({Value::Int(1), Value::Int(2)}).ok());
  EXPECT_EQ(seg.num_rows(), 0u);
  EXPECT_EQ(seg.column(0).size(), 0u);
  EXPECT_EQ(seg.column(1).size(), 0u);
}

TEST(SegmentTest, ArityMismatchRejected) {
  Segment seg(TwoColSchema(), 4);
  EXPECT_FALSE(seg.AppendRow({Value::Int(1)}).ok());
}

TEST(SegmentTest, CloneIsDeep) {
  Segment seg(TwoColSchema(), 4);
  ASSERT_TRUE(seg.AppendRow({Value::Int(1), Value::String("a")}).ok());
  auto clone = seg.Clone();
  ASSERT_TRUE(clone->SetValue(0, 1, Value::String("mutated")).ok());
  EXPECT_EQ(seg.GetValue(0, 1).string_value(), "a");
  EXPECT_EQ(clone->GetValue(0, 1).string_value(), "mutated");
}

TEST(TableTest, AppendAcrossSegments) {
  Table t("t", TwoColSchema(), /*segment_capacity=*/3);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int(i), Value::String("r" + std::to_string(i))}).ok());
  }
  EXPECT_EQ(t.NumRows(), 10u);
  EXPECT_EQ(t.NumSegments(), 4u);  // 3+3+3+1
  for (int i = 0; i < 10; ++i) {
    auto row = t.GetRow(static_cast<size_t>(i));
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[0].int_value(), i);
  }
}

TEST(TableTest, GetRowOutOfRange) {
  Table t("t", TwoColSchema());
  EXPECT_FALSE(t.GetRow(0).ok());
}

TEST(TableTest, SetValueBumpsVersion) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.AppendRow({Value::Int(1), Value::String("a")}).ok());
  uint64_t v1 = t.data_version();
  ASSERT_TRUE(t.SetValue(0, 1, Value::String("b")).ok());
  EXPECT_GT(t.data_version(), v1);
  EXPECT_EQ(t.GetValue(0, 1)->string_value(), "b");
}

TEST(TableTest, RemoveRows) {
  Table t("t", TwoColSchema(), 2);
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int(i), Value::String("x")}).ok());
  }
  std::vector<uint8_t> mask = {1, 0, 1, 0, 1, 0};  // remove even positions
  ASSERT_TRUE(t.RemoveRows(mask).ok());
  EXPECT_EQ(t.NumRows(), 3u);
  EXPECT_EQ(t.GetRow(0)->at(0).int_value(), 1);
  EXPECT_EQ(t.GetRow(1)->at(0).int_value(), 3);
  EXPECT_EQ(t.GetRow(2)->at(0).int_value(), 5);
}

TEST(TableTest, RemoveRowsMaskSizeMismatch) {
  Table t("t", TwoColSchema());
  ASSERT_TRUE(t.AppendRow({Value::Int(1), Value::String("a")}).ok());
  EXPECT_FALSE(t.RemoveRows({1, 1}).ok());
}

TEST(TableTest, FromSegmentsSharesSegments) {
  Table t("t", TwoColSchema(), 2);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(t.AppendRow({Value::Int(i), Value::String("x")}).ok());
  }
  auto view = Table::FromSegments("view", t.schema(), t.segments());
  EXPECT_EQ(view->NumRows(), 4u);
  // Mutating the view's shared segment is visible through both (shared
  // physical storage, as used by branch materialization).
  EXPECT_EQ(view->segments()[0].get(), t.segments()[0].get());
}

TEST(TableTest, PartialSegmentsFromBranchMaterializeReadCorrectly) {
  // Locate() must walk segments by their actual sizes, not capacity.
  auto seg1 = std::make_shared<Segment>(TwoColSchema(), 4);
  ASSERT_TRUE(seg1->AppendRow({Value::Int(1), Value::String("a")}).ok());
  auto seg2 = std::make_shared<Segment>(TwoColSchema(), 4);
  ASSERT_TRUE(seg2->AppendRow({Value::Int(2), Value::String("b")}).ok());
  auto t = Table::FromSegments("t", TwoColSchema(), {seg1, seg2});
  EXPECT_EQ(t->NumRows(), 2u);
  EXPECT_EQ(t->GetRow(1)->at(0).int_value(), 2);
}

// ---------------------------------------------------------------------------
// Paged storage: segment codec, page store, lazy clone, buffer pool.
// ---------------------------------------------------------------------------

std::string StorageTempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/storage_test_" + name;
  (void)io::RemoveFile(dir + "/pages.af");
  EXPECT_TRUE(io::CreateDirectories(dir).ok());
  return dir;
}

Schema AllTypesSchema() {
  return Schema({ColumnDef("i", DataType::kInt64, true, "t"),
                 ColumnDef("d", DataType::kFloat64, true, "t"),
                 ColumnDef("b", DataType::kBool, true, "t"),
                 ColumnDef("s", DataType::kString, true, "t")});
}

std::shared_ptr<Segment> MakeAllTypesSegment(size_t rows) {
  auto seg = std::make_shared<Segment>(AllTypesSchema(), rows + 2);
  for (size_t r = 0; r < rows; ++r) {
    Row row;
    row.push_back(r % 5 == 0 ? Value::Null()
                             : Value::Int(static_cast<int64_t>(r) - 3));
    row.push_back(r % 7 == 0 ? Value::Null() : Value::Double(r * 0.25 - 1.5));
    row.push_back(r % 3 == 0 ? Value::Null() : Value::Bool(r % 2 == 0));
    row.push_back(r % 4 == 0 ? Value::Null()
                             : Value::String("row-" + std::to_string(r) +
                                             std::string(r % 11, 'x')));
    EXPECT_TRUE(seg->AppendRow(row).ok());
  }
  return seg;
}

void ExpectSegmentsEqual(const Segment& a, const Segment& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.NumColumns(), b.NumColumns());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.NumColumns(); ++c) {
      const Value va = a.GetValue(r, c);
      const Value vb = b.GetValue(r, c);
      ASSERT_EQ(va.is_null(), vb.is_null()) << "row " << r << " col " << c;
      if (!va.is_null()) {
        EXPECT_TRUE(va.Equals(vb)) << "row " << r << " col " << c << ": "
                                   << va.ToString() << " vs " << vb.ToString();
      }
    }
  }
}

TEST(SegmentCodecTest, RoundTripAllTypesWithNulls) {
  auto seg = MakeAllTypesSegment(57);
  std::string body = storage::SegmentStore::EncodeSegment(*seg);
  auto decoded = storage::SegmentStore::DecodeSegment(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSegmentsEqual(*seg, **decoded);
  EXPECT_EQ((*decoded)->capacity(), seg->capacity());
  // Determinism: re-encoding the decoded segment is byte-identical.
  EXPECT_EQ(storage::SegmentStore::EncodeSegment(**decoded), body);
}

TEST(SegmentCodecTest, RoundTripEmptySegment) {
  Segment seg(AllTypesSchema(), 8);
  auto decoded =
      storage::SegmentStore::DecodeSegment(storage::SegmentStore::EncodeSegment(seg));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)->num_rows(), 0u);
}

TEST(SegmentCodecTest, HostileBytesAreErrorsNotUb) {
  auto seg = MakeAllTypesSegment(9);
  std::string body = storage::SegmentStore::EncodeSegment(*seg);
  // Truncations at every prefix length and single-byte corruption at every
  // offset must come back as Status, never crash.
  for (size_t cut = 0; cut < body.size(); cut += 3) {
    auto r = storage::SegmentStore::DecodeSegment(body.substr(0, cut));
    if (r.ok()) {
      // A prefix may accidentally decode only if it is self-consistent; the
      // full-body decode below is the real contract.
      continue;
    }
  }
  for (size_t flip = 0; flip < body.size(); flip += 7) {
    std::string bad = body;
    bad[flip] = static_cast<char>(bad[flip] ^ 0x5f);
    auto r = storage::SegmentStore::DecodeSegment(bad);
    (void)r;  // ok() or error both fine; must not crash/UB
  }
  EXPECT_TRUE(storage::SegmentStore::DecodeSegment(body).ok());
}

TEST(SegmentStoreTest, WriteReadFreeReuse) {
  std::string dir = StorageTempDir("store_reuse");
  auto store = storage::SegmentStore::Open(dir + "/pages.af");
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto seg = MakeAllTypesSegment(23);
  auto id1 = (*store)->Write(*seg);
  ASSERT_TRUE(id1.ok()) << id1.status().ToString();
  auto back = (*store)->Read(*id1);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectSegmentsEqual(*seg, **back);
  uint64_t high_water = (*store)->FileBytes();
  // Freeing and re-writing an identically sized segment reuses the extent:
  // the file must not grow.
  (*store)->Free(*id1);
  auto id2 = (*store)->Write(*seg);
  ASSERT_TRUE(id2.ok());
  EXPECT_EQ((*store)->FileBytes(), high_water);
  EXPECT_EQ(id2->offset, id1->offset);
  EXPECT_TRUE((*store)->Sync().ok());
}

TEST(SegmentStoreTest, CorruptPageRejected) {
  std::string dir = StorageTempDir("store_corrupt");
  auto store = storage::SegmentStore::Open(dir + "/pages.af");
  ASSERT_TRUE(store.ok());
  auto seg = MakeAllTypesSegment(15);
  auto id = (*store)->Write(*seg);
  ASSERT_TRUE(id.ok());
  // Flip one byte in the middle of the page, in place, through a second
  // non-truncating handle on the same inode.
  {
    auto patch = io::File::OpenForUpdate(dir + "/pages.af");
    ASSERT_TRUE(patch.ok()) << patch.status().ToString();
    uint64_t victim = id->offset + id->length / 2;
    auto byte = patch->ReadAt(victim, 1);
    ASSERT_TRUE(byte.ok());
    std::string flipped(1, static_cast<char>((*byte)[0] ^ 0xff));
    ASSERT_TRUE(patch->WriteAt(victim, flipped).ok());
  }
  auto back = (*store)->Read(*id);
  ASSERT_FALSE(back.ok());
}

TEST(SegmentTest, CloneSharesColumnsUntilWritten) {
  Segment seg(TwoColSchema(), 8);
  ASSERT_TRUE(seg.AppendRow({Value::Int(1), Value::String("a")}).ok());
  ASSERT_TRUE(seg.AppendRow({Value::Int(2), Value::String("b")}).ok());
  auto clone = seg.Clone();
  // Lazy COW: a fresh clone shares every column with its source.
  EXPECT_TRUE(seg.ColumnShared(0));
  EXPECT_TRUE(seg.ColumnShared(1));
  // Writing one cell in the clone detaches only the touched column.
  ASSERT_TRUE(clone->SetValue(0, 1, Value::String("mutated")).ok());
  EXPECT_TRUE(seg.ColumnShared(0));
  EXPECT_FALSE(clone->ColumnShared(1));
  EXPECT_EQ(seg.GetValue(0, 1).string_value(), "a");
  EXPECT_EQ(clone->GetValue(0, 1).string_value(), "mutated");
  // Appends to the source detach its columns, so the clone never sees them.
  ASSERT_TRUE(seg.AppendRow({Value::Int(3), Value::String("c")}).ok());
  EXPECT_EQ(clone->num_rows(), 2u);
  EXPECT_EQ(clone->column(0).size(), 2u);
}

TEST(BufferPoolTest, EvictFaultRoundTripByteIdentity) {
  std::string dir = StorageTempDir("pool_basic");
  storage::StorageOptions opts;
  opts.dir = dir;
  opts.max_table_bytes = 1;  // evict everything unpinned
  auto pool = storage::BufferPool::Open(opts);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();

  uint64_t faults_before =
      obs::MetricsRegistry::Default().GetCounter("af.storage.faults")->value();
  std::vector<std::shared_ptr<Segment>> originals;
  std::vector<uint64_t> frames;
  for (int i = 0; i < 6; ++i) {
    originals.push_back(MakeAllTypesSegment(10 + i * 3));
    // Keep our own deep copy; the pool owns the registered segment.
    frames.push_back((*pool)->Register(originals.back()->Clone()));
  }
  // Registration-time eviction pressure: with a 1-byte budget, earlier
  // frames were written back and dropped.
  EXPECT_LT((*pool)->ResidentBytes(), originals.back()->MemoryBytes() * 6);
  for (size_t i = 0; i < frames.size(); ++i) {
    auto pin = (*pool)->Pin(frames[i]);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    ExpectSegmentsEqual(*originals[i], **pin);
  }
  EXPECT_GT(
      obs::MetricsRegistry::Default().GetCounter("af.storage.faults")->value(),
      faults_before);
  for (uint64_t f : frames) (*pool)->Unregister(f);
  EXPECT_EQ((*pool)->ResidentBytes(), 0u);
}

// The fault ledger splits each fault into read, CRC verify and decode time:
// one sample per fault in each histogram, and no pin waits when one thread
// faults alone.
TEST(BufferPoolTest, FaultLedgerRecordsOneSamplePerFault) {
  std::string dir = StorageTempDir("pool_ledger");
  storage::StorageOptions opts;
  opts.dir = dir;
  opts.max_table_bytes = 1;  // evict everything unpinned
  auto pool = storage::BufferPool::Open(opts);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  std::vector<uint64_t> frames;
  for (int i = 0; i < 5; ++i) {
    frames.push_back((*pool)->Register(MakeAllTypesSegment(20 + i)));
  }

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const char* kLedger[] = {"af.storage.fault_read_us",
                           "af.storage.fault_verify_us",
                           "af.storage.fault_decode_us"};
  std::vector<uint64_t> before;
  for (const char* name : kLedger) before.push_back(reg.GetHistogram(name)->count());
  const uint64_t waits_before = reg.GetHistogram("af.storage.pin_wait_us")->count();
  const uint64_t faults_before = reg.GetCounter("af.storage.faults")->value();
  for (uint64_t f : frames) {
    ASSERT_FALSE((*pool)->FrameResident(f));
    auto pin = (*pool)->Pin(f);
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  }
  const uint64_t faults = reg.GetCounter("af.storage.faults")->value() - faults_before;
  EXPECT_EQ(faults, frames.size());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reg.GetHistogram(kLedger[i])->count() - before[i], faults)
        << kLedger[i];
  }
  EXPECT_EQ(reg.GetHistogram("af.storage.pin_wait_us")->count(), waits_before);
  for (uint64_t f : frames) (*pool)->Unregister(f);
}

// A pin that finds another thread faulting the same frame waits for that
// fault instead of faulting again, and the wait lands in
// af.storage.pin_wait_us. The first fault's page read is slowed so the second
// pin reliably arrives while it is in flight.
TEST(BufferPoolTest, PinWaitOnInFlightFaultIsRecorded) {
  std::string dir = StorageTempDir("pool_pin_wait");
  storage::StorageOptions opts;
  opts.dir = dir;
  opts.max_table_bytes = 1;
  auto pool = storage::BufferPool::Open(opts);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  const uint64_t frame = (*pool)->Register(MakeAllTypesSegment(30));
  ASSERT_FALSE((*pool)->FrameResident(frame));

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Histogram* waits = reg.GetHistogram("af.storage.pin_wait_us");
  const uint64_t waits_before = waits->count();
  const uint64_t wait_sum_before = waits->sum();
  const uint64_t faults_before = reg.GetCounter("af.storage.faults")->value();

  FaultRegistry& faults = FaultRegistry::Global();
  faults.Enable(/*seed=*/29);
  FaultSpec slow;
  slow.kind = FaultKind::kLatency;
  slow.latency_ms = 300;
  slow.max_fires = 1;
  faults.Arm("io.page.read", slow);
  // aflint:allow(raw-thread) the faulting pin must run beside this thread.
  std::thread first([&]() { EXPECT_TRUE((*pool)->Pin(frame).ok()); });
  while (faults.hits("io.page.read") == 0) std::this_thread::yield();
  auto second = (*pool)->Pin(frame);
  first.join();
  faults.Disable();
  faults.ClearArmed();

  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(reg.GetCounter("af.storage.faults")->value() - faults_before, 1u);
  ASSERT_EQ(waits->count() - waits_before, 1u);
  EXPECT_GT(waits->sum() - wait_sum_before, 0u);
  second = storage::SegmentPin();
  (*pool)->Unregister(frame);
}

TEST(BufferPoolTest, DirtyWriteBackSurvivesEviction) {
  std::string dir = StorageTempDir("pool_dirty");
  storage::StorageOptions opts;
  opts.dir = dir;
  opts.max_table_bytes = 1;
  auto pool = storage::BufferPool::Open(opts);
  ASSERT_TRUE(pool.ok());
  uint64_t frame = (*pool)->Register(MakeAllTypesSegment(12));
  {
    auto pin = (*pool)->Pin(frame);
    ASSERT_TRUE(pin.ok());
    ASSERT_TRUE(
        pin->mutable_segment()->SetValue(3, 3, Value::String("dirty!")).ok());
    (*pool)->MarkDirty(frame);
  }
  // Force the dirty frame out by registering more data than the budget.
  uint64_t other = (*pool)->Register(MakeAllTypesSegment(40));
  ASSERT_FALSE((*pool)->FrameResident(frame));
  auto pin = (*pool)->Pin(frame);
  ASSERT_TRUE(pin.ok()) << pin.status().ToString();
  EXPECT_EQ((*pin)->GetValue(3, 3).string_value(), "dirty!");
  (*pool)->Unregister(frame);
  (*pool)->Unregister(other);
}

TEST(BufferPoolTest, SharedSegmentsAreNeverEvicted) {
  std::string dir = StorageTempDir("pool_shared");
  storage::StorageOptions opts;
  opts.dir = dir;
  opts.max_table_bytes = 1;
  auto pool = storage::BufferPool::Open(opts);
  ASSERT_TRUE(pool.ok());
  // A branch-style alias: the pool is not the sole owner, so the frame must
  // survive arbitrary pressure (eviction would break snapshot isolation).
  std::shared_ptr<Segment> alias = MakeAllTypesSegment(10);
  uint64_t shared_frame = (*pool)->Register(alias);
  (void)(*pool)->Register(MakeAllTypesSegment(50));
  EXPECT_TRUE((*pool)->FrameResident(shared_frame));
  // Dropping the alias makes it evictable again.
  alias.reset();
  uint64_t third = (*pool)->Register(MakeAllTypesSegment(50));
  EXPECT_FALSE((*pool)->FrameResident(shared_frame));
  auto pin = (*pool)->Pin(shared_frame);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ((*pin)->num_rows(), 10u);
  (void)third;
}

TEST(BufferPoolTest, FlushAllKeepsFramesResident) {
  std::string dir = StorageTempDir("pool_flush");
  storage::StorageOptions opts;
  opts.dir = dir;  // unlimited budget
  auto pool = storage::BufferPool::Open(opts);
  ASSERT_TRUE(pool.ok());
  uint64_t frame = (*pool)->Register(MakeAllTypesSegment(12));
  ASSERT_TRUE((*pool)->FlushAll().ok());
  EXPECT_TRUE((*pool)->FrameResident(frame));
  auto pin = (*pool)->Pin(frame);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ((*pin)->num_rows(), 12u);
}

// Concurrent pin storm: N threads hammer random frames under a budget that
// forces continuous evict/fault churn. Every read must see the registered
// data; run under TSan via tools/check.sh stage 10.
class BufferPoolPinStormTest : public ::testing::TestWithParam<size_t> {};

TEST_P(BufferPoolPinStormTest, ConcurrentPinsSeeConsistentData) {
  const size_t nthreads = GetParam();
  std::string dir = StorageTempDir("pool_storm_" + std::to_string(nthreads));
  storage::StorageOptions opts;
  opts.dir = dir;
  opts.max_table_bytes = 4096;  // a couple of segments' worth
  auto pool = storage::BufferPool::Open(opts);
  ASSERT_TRUE(pool.ok());

  constexpr size_t kFrames = 12;
  std::vector<uint64_t> frames;
  for (size_t i = 0; i < kFrames; ++i) {
    auto seg = std::make_shared<Segment>(
        Schema({ColumnDef("v", DataType::kInt64, false, "t")}), 16);
    for (int r = 0; r < 16; ++r) {
      ASSERT_TRUE(
          seg->AppendRow({Value::Int(static_cast<int64_t>(i * 100 + r))}).ok());
    }
    frames.push_back((*pool)->Register(std::move(seg)));
  }

  std::atomic<size_t> errors{0};
  // Dedicated threads, not the shared pool: the storm must reach the exact
  // parameterized concurrency regardless of the pool's size.
  // aflint:allow(raw-thread)
  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (size_t t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t]() {
      uint64_t x = 0x9e3779b97f4a7c15ull ^ t;
      for (int iter = 0; iter < 400; ++iter) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        size_t i = static_cast<size_t>(x % kFrames);
        auto pin = (*pool)->Pin(frames[i]);
        if (!pin.ok()) {
          ++errors;
          continue;
        }
        const Segment& seg = **pin;
        if (seg.num_rows() != 16 ||
            seg.GetValue(5, 0).int_value() !=
                static_cast<int64_t>(i * 100 + 5)) {
          ++errors;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0u);
  for (uint64_t f : frames) (*pool)->Unregister(f);
}

INSTANTIATE_TEST_SUITE_P(Threads, BufferPoolPinStormTest,
                         ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// End-to-end: pooled tables answer queries byte-identically to unpooled
// ones, through both the row and vectorized paths, at 1/2/4/8 threads,
// with a budget small enough that segments fault mid-scan.
// ---------------------------------------------------------------------------

void LoadWideTable(Engine* engine) {
  AF_ASSERT_OK_RESULT(engine->ExecuteSql(
      "CREATE TABLE wide (id BIGINT, grp VARCHAR, score DOUBLE, flag BOOLEAN)"));
  // Many small INSERT batches so the table spans many segments.
  for (int batch = 0; batch < 20; ++batch) {
    std::string sql = "INSERT INTO wide VALUES ";
    for (int r = 0; r < 25; ++r) {
      int id = batch * 25 + r;
      if (r > 0) sql += ",";
      sql += "(" + std::to_string(id) + ",'g" + std::to_string(id % 7) + "'," +
             std::to_string(id % 13) + ".5," +
             (id % 2 == 0 ? "true" : "false") + ")";
    }
    AF_ASSERT_OK_RESULT(engine->ExecuteSql(sql));
  }
}

TEST(PooledTableTest, QueriesByteIdenticalToUnpooledAcrossThreads) {
  // Reference: fully resident, classic in-memory table.
  Catalog ref_catalog;
  Engine ref_engine(&ref_catalog);
  LoadWideTable(&ref_engine);

  // Subject: same data behind a pool whose budget is ~10% of the table.
  // Declared before the catalog: tables unregister their frames in ~Table, so
  // the pool must outlive every catalog that points at it (the same ordering
  // AgentFirstSystem encodes in its member declaration order).
  std::unique_ptr<storage::BufferPool> pool;
  Catalog catalog;
  Engine engine(&catalog);
  LoadWideTable(&engine);
  auto table = catalog.GetTable("wide");
  ASSERT_TRUE(table.ok());
  // Use a small segment capacity table? (capacity default 1024 => single
  // segment). Rebuild with small segments so eviction has granularity.
  AF_ASSERT_OK_RESULT(engine.ExecuteSql("DROP TABLE wide"));
  {
    Schema schema(
        {ColumnDef("id", DataType::kInt64, true, "wide"),
         ColumnDef("grp", DataType::kString, true, "wide"),
         ColumnDef("score", DataType::kFloat64, true, "wide"),
         ColumnDef("flag", DataType::kBool, true, "wide")});
    auto small = std::make_shared<Table>("wide", schema, /*segment_capacity=*/32);
    AF_ASSERT_OK(catalog.RegisterTable(small));
    for (int id = 0; id < 500; ++id) {
      AF_ASSERT_OK(small->AppendRow(
          {Value::Int(id), Value::String("g" + std::to_string(id % 7)),
           Value::Double((id % 13) + 0.5), Value::Bool(id % 2 == 0)}));
    }
  }
  std::string dir = StorageTempDir("pooled_queries");
  storage::StorageOptions opts;
  opts.dir = dir;
  auto pooled_table = catalog.GetTable("wide");
  ASSERT_TRUE(pooled_table.ok());
  opts.max_table_bytes = (*pooled_table)->TotalBytes() / 10;
  ASSERT_GT(opts.max_table_bytes, 0u);
  auto opened = storage::BufferPool::Open(opts);
  ASSERT_TRUE(opened.ok());
  pool = std::move(*opened);
  catalog.SetBufferPool(pool.get());
  EXPECT_TRUE((*pooled_table)->pooled());

  uint64_t faults_before =
      obs::MetricsRegistry::Default().GetCounter("af.storage.faults")->value();
  const char* queries[] = {
      "SELECT COUNT(*), SUM(id), MIN(score), MAX(score) FROM wide",
      "SELECT grp, COUNT(*), SUM(score) FROM wide GROUP BY grp ORDER BY grp",
      "SELECT id, grp FROM wide WHERE score > 9.0 AND flag = true ORDER BY id",
      "SELECT COUNT(*) FROM wide WHERE grp = 'g3' OR id < 50",
  };
  for (bool vectorized : {false, true}) {
    for (size_t threads : {1u, 2u, 4u, 8u}) {
      ExecOptions eo;
      eo.vectorized = vectorized;
      eo.num_threads = threads;
      for (const char* q : queries) {
        auto expect = ref_engine.ExecuteSql(q, eo);
        AF_ASSERT_OK_RESULT(expect);
        auto got = engine.ExecuteSql(q, eo);
        AF_ASSERT_OK_RESULT(got);
        EXPECT_EQ((*got)->ToString(1000), (*expect)->ToString(1000))
            << q << " vectorized=" << vectorized << " threads=" << threads;
      }
    }
  }
  EXPECT_GT(
      obs::MetricsRegistry::Default().GetCounter("af.storage.faults")->value(),
      faults_before);
  EXPECT_LE(pool->ResidentBytes(),
            opts.max_table_bytes + (*pooled_table)->TotalBytes() / 3);

  // Mutations through the pooled path: UPDATE + DELETE must round-trip the
  // dirty write-back machinery and still match the reference.
  ExecOptions eo;
  AF_ASSERT_OK_RESULT(
      engine.ExecuteSql("UPDATE wide SET score = 99.5 WHERE id % 50 = 0", eo));
  AF_ASSERT_OK_RESULT(
      ref_engine.ExecuteSql("UPDATE wide SET score = 99.5 WHERE id % 50 = 0", eo));
  AF_ASSERT_OK_RESULT(engine.ExecuteSql("DELETE FROM wide WHERE id % 71 = 3", eo));
  AF_ASSERT_OK_RESULT(
      ref_engine.ExecuteSql("DELETE FROM wide WHERE id % 71 = 3", eo));
  auto expect = ref_engine.ExecuteSql(
      "SELECT COUNT(*), SUM(id), SUM(score) FROM wide", eo);
  auto got = engine.ExecuteSql(
      "SELECT COUNT(*), SUM(id), SUM(score) FROM wide", eo);
  AF_ASSERT_OK_RESULT(expect);
  AF_ASSERT_OK_RESULT(got);
  EXPECT_EQ((*got)->ToString(1000), (*expect)->ToString(1000));
}

// ---------------------------------------------------------------------------
// Composition with durability: eviction churns while a checkpoint runs, the
// process "dies", and recovery on the same data dir is byte-identical.
// ---------------------------------------------------------------------------

TEST(PooledDurabilityTest, EvictionRacesCheckpointThenRecoversByteIdentical) {
  std::string dir = StorageTempDir("pooled_wal");
  (void)io::RemoveFile(wal::WalPath(dir));
  (void)io::RemoveFile(wal::CheckpointPath(dir));
  std::string canonical_before;
  {
    AgentFirstSystem sys;
    wal::DurabilityOptions durability;
    durability.data_dir = dir;
    durability.fsync = wal::FsyncPolicy::kNever;  // speed; not crash-testing fsync
    AF_ASSERT_OK(sys.EnableDurability(durability));
    storage::StorageOptions paging;
    paging.dir = dir + "/pages";
    paging.max_table_bytes = 2048;
    AF_ASSERT_OK(sys.EnableStorage(paging));

    AF_ASSERT_OK_RESULT(sys.ExecuteSql(
        "CREATE TABLE t (id BIGINT, payload VARCHAR)"));
    for (int batch = 0; batch < 10; ++batch) {
      std::string sql = "INSERT INTO t VALUES ";
      for (int r = 0; r < 40; ++r) {
        int id = batch * 40 + r;
        if (r > 0) sql += ",";
        sql += "(" + std::to_string(id) + ",'payload-" + std::to_string(id) +
               std::string(17, 'p') + "')";
      }
      AF_ASSERT_OK_RESULT(sys.ExecuteSql(sql));
    }

    // Checkpoint while reader threads churn the pool: AppendState pins one
    // segment at a time, so eviction and checkpointing overlap.
    std::atomic<bool> stop{false};
    // Out-of-pool readers so they genuinely overlap the checkpoint loop even
    // on a single-worker shared pool. aflint:allow(raw-thread)
    std::vector<std::thread> readers;
    for (int t = 0; t < 4; ++t) {
      readers.emplace_back([&]() {
        while (!stop.load(std::memory_order_relaxed)) {
          auto r = sys.ExecuteSql("SELECT COUNT(*), MIN(id), MAX(id) FROM t");
          if (!r.ok()) return;
        }
      });
    }
    for (int i = 0; i < 5; ++i) AF_ASSERT_OK(sys.CheckpointNow());
    stop.store(true, std::memory_order_relaxed);
    for (auto& th : readers) th.join();

    auto canonical = wal::EncodeCanonicalState(*sys.catalog(), sys.memory());
    AF_ASSERT_OK_RESULT(canonical);
    canonical_before = *canonical;
    // No clean shutdown: the system is dropped with the pool holding
    // evicted segments — recovery must not need the page file.
  }
  // Delete the page file outright: it is a cache, recovery owes it nothing.
  (void)io::RemoveFile(dir + "/pages/pages.af");
  {
    AgentFirstSystem sys;
    wal::DurabilityOptions durability;
    durability.data_dir = dir;
    AF_ASSERT_OK(sys.EnableDurability(durability));
    storage::StorageOptions paging;
    paging.dir = dir + "/pages";
    paging.max_table_bytes = 2048;
    AF_ASSERT_OK(sys.EnableStorage(paging));
    auto canonical = wal::EncodeCanonicalState(*sys.catalog(), sys.memory());
    AF_ASSERT_OK_RESULT(canonical);
    EXPECT_EQ(*canonical, canonical_before);
    // And the recovered, re-pooled table still answers queries.
    auto r = sys.ExecuteSql("SELECT COUNT(*) FROM t");
    AF_ASSERT_OK_RESULT(r);
    EXPECT_EQ((*r)->rows[0][0].int_value(), 400);
  }
}

}  // namespace
}  // namespace agentfirst

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/arena.h"
#include "common/bytes.h"
#include "common/cancellation.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "gtest/gtest.h"
#include "wal/checkpoint.h"
#include "wal/wal.h"

namespace agentfirst {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "missing table");
  EXPECT_EQ(s.ToString(), "NotFound: missing table");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(), Status::NotFound("").code(),
      Status::AlreadyExists("").code(),   Status::OutOfRange("").code(),
      Status::NotImplemented("").code(),  Status::Internal("").code(),
      Status::Aborted("").code(),         Status::PermissionDenied("").code(),
      Status::ResourceExhausted("").code(),
      Status::DeadlineExceeded("").code(), Status::Cancelled("").code()};
  EXPECT_EQ(codes.size(), 11u);
}

TEST(StatusTest, LifecycleCodesNameAndMessage) {
  Status d = Status::DeadlineExceeded("probe deadline");
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(d.ToString(), "DeadlineExceeded: probe deadline");
  Status c = Status::Cancelled("caller gave up");
  EXPECT_EQ(c.code(), StatusCode::kCancelled);
  EXPECT_EQ(c.ToString(), "Cancelled: caller gave up");
}

TEST(StatusTest, IsRetryableOnlyForTransientAborts) {
  EXPECT_TRUE(IsRetryable(Status::Aborted("transient")));
  // Deliberate lifecycle outcomes must not be retried: retrying a deadline
  // or a cancellation would repeat the very work that was cut short.
  EXPECT_FALSE(IsRetryable(Status::DeadlineExceeded("")));
  EXPECT_FALSE(IsRetryable(Status::Cancelled("")));
  EXPECT_FALSE(IsRetryable(Status::ResourceExhausted("")));
  EXPECT_FALSE(IsRetryable(Status::InvalidArgument("")));
  EXPECT_FALSE(IsRetryable(Status::Internal("")));
  EXPECT_FALSE(IsRetryable(Status::OK()));
}

// ---------------------------------------------------------------------------
// Deadline / CancellationToken
// ---------------------------------------------------------------------------

TEST(DeadlineTest, InfiniteByDefault) {
  Deadline d;
  EXPECT_TRUE(d.is_infinite());
  EXPECT_FALSE(d.expired());
}

TEST(DeadlineTest, ExpiresAfterDuration) {
  Deadline d = Deadline::AfterMillis(0.0);
  EXPECT_FALSE(d.is_infinite());
  EXPECT_TRUE(d.expired());

  Deadline far = Deadline::AfterMillis(60000.0);
  EXPECT_FALSE(far.expired());
  EXPECT_GT(far.remaining().count(), 0);
}

TEST(CancellationTest, DefaultTokenIsNotCancellable) {
  CancellationToken token;
  EXPECT_FALSE(token.cancellable());
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.flag(), nullptr);
  EXPECT_TRUE(CheckInterrupt(token, Deadline::Infinite()).ok());
}

TEST(CancellationTest, SourceCancelsItsTokens) {
  CancellationSource source;
  CancellationToken token = source.token();
  EXPECT_TRUE(token.cancellable());
  EXPECT_FALSE(token.cancelled());
  ASSERT_NE(token.flag(), nullptr);

  source.RequestCancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_TRUE(token.flag()->load());

  Status s = CheckInterrupt(token, Deadline::Infinite());
  EXPECT_EQ(s.code(), StatusCode::kCancelled);

  // Reset hands out fresh tokens; the old one stays cancelled.
  source.Reset();
  EXPECT_FALSE(source.token().cancelled());
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTest, CancellationWinsOverDeadline) {
  CancellationSource source;
  source.RequestCancel();
  Status s = CheckInterrupt(source.token(), Deadline::AfterMillis(0.0));
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  // Deadline alone reports kDeadlineExceeded.
  Status d = CheckInterrupt(CancellationToken(), Deadline::AfterMillis(0.0));
  EXPECT_EQ(d.code(), StatusCode::kDeadlineExceeded);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, DisabledRegistryIsInert) {
  FaultRegistry& reg = FaultRegistry::Global();
  reg.Disable();
  reg.ClearArmed();
  EXPECT_FALSE(reg.enabled());
  EXPECT_TRUE(reg.Hit("common_test.site").ok());
}

TEST(FaultInjectionTest, ArmedErrorFiresDeterministically) {
  FaultRegistry& reg = FaultRegistry::Global();
  reg.ClearArmed();
  reg.Enable(/*seed=*/7);
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.probability = 0.5;
  spec.code = StatusCode::kAborted;
  reg.Arm("common_test.flaky", spec);

  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) {
    first.push_back(!reg.Hit("common_test.flaky").ok());
  }
  // Same seed -> identical fire pattern on replay.
  reg.Disable();
  reg.Enable(/*seed=*/7);
  reg.Arm("common_test.flaky", spec);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(!reg.Hit("common_test.flaky").ok(), first[i]) << "hit " << i;
  }
  size_t fired = static_cast<size_t>(
      std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 64u);
  reg.Disable();
  reg.ClearArmed();
}

TEST(FaultInjectionTest, MaxFiresCapsInjection) {
  FaultRegistry& reg = FaultRegistry::Global();
  reg.ClearArmed();
  reg.Enable(/*seed=*/1);
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.probability = 1.0;
  spec.max_fires = 2;
  reg.Arm("common_test.capped", spec);
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    if (!reg.Hit("common_test.capped").ok()) ++failures;
  }
  EXPECT_EQ(failures, 2);
  reg.Disable();
  reg.ClearArmed();
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::Internal("boom"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  AF_ASSIGN_OR_RETURN(int half, Half(x));
  AF_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto bad = Quarter(6);  // 6/2=3 is odd
  EXPECT_FALSE(bad.ok());
}

TEST(ResultTest, ConvertingConstructor) {
  std::shared_ptr<int> p = std::make_shared<int>(5);
  Result<std::shared_ptr<const int>> r(p);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, 5);
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextUintInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextUint(10), 10u);
  }
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) saw_lo = true;
    if (v == 3) saw_hi = true;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ZipfSkewsLow) {
  Rng rng(13);
  int low = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextZipf(100, 1.0) < 10) ++low;
  }
  // With skew, the lowest decile should collect far more than 10%.
  EXPECT_GT(low, 2000);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(17);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(42);
  Rng c1 = parent.Fork(1);
  Rng c2 = parent.Fork(2);
  EXPECT_NE(c1.Next(), c2.Next());
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

TEST(HashTest, StringHashStable) {
  EXPECT_EQ(HashString("hello"), HashString("hello"));
  EXPECT_NE(HashString("hello"), HashString("hellp"));
  EXPECT_NE(HashString(""), HashString(" "));
}

TEST(HashTest, CombineOrderDependent) {
  uint64_t a = HashString("a");
  uint64_t b = HashString("b");
  EXPECT_NE(HashCombine(a, b), HashCombine(b, a));
}

TEST(HashTest, DoubleNormalizesNegativeZero) {
  EXPECT_EQ(HashDouble(0.0), HashDouble(-0.0));
}

TEST(HashTest, Mix64Bijective) {
  // Distinct inputs produce distinct outputs on a sample (bijection spot
  // check).
  std::set<uint64_t> outs;
  for (uint64_t i = 0; i < 1000; ++i) outs.insert(Mix64(i));
  EXPECT_EQ(outs.size(), 1000u);
}

// ---------------------------------------------------------------------------
// CRC32C: the one kernel behind WAL frames, checkpoints and page frames
// ---------------------------------------------------------------------------

/// Table-free, bit-at-a-time reference for the Castagnoli CRC (reflected
/// polynomial 0x82F63B78), independent of the kernel's tables.
uint32_t ReferenceCrc32c(const uint8_t* p, size_t n) {
  uint32_t crc = ~0u;
  for (size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
  }
  return ~crc;
}

std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

TEST(Crc32cTest, KnownCheckValues) {
  // RFC 3720 (iSCSI) check value and its appendix B.4 vectors.
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  std::string zeros(32, '\0'), ones(32, '\xff'), up(32, '\0'), down(32, '\0');
  for (int i = 0; i < 32; ++i) {
    up[i] = static_cast<char>(i);
    down[i] = static_cast<char>(31 - i);
  }
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  EXPECT_EQ(Crc32c(ones), 0x62A8AB43u);
  EXPECT_EQ(Crc32c(up), 0x46DD794Eu);
  EXPECT_EQ(Crc32c(down), 0x113FDB5Cu);
}

TEST(Crc32cTest, MatchesBytewiseReferenceAtEverySplitAndOffset) {
  Rng rng(3720);
  std::vector<uint8_t> buf(300 + 8);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextUint(256));
  // Every start offset within a word, so the 8-byte steps run unaligned.
  for (size_t offset = 0; offset < 8; ++offset) {
    const uint8_t* p = buf.data() + offset;
    for (size_t len = 0; len <= 300; ++len) {
      const uint32_t want = ReferenceCrc32c(p, len);
      ASSERT_EQ(Crc32c(std::string_view(reinterpret_cast<const char*>(p), len)), want)
          << "offset " << offset << " len " << len;
      // Incremental use splits a buffer anywhere, including mid-step.
      for (size_t split = 0; split <= len; ++split) {
        ASSERT_EQ(Crc32cExtend(Crc32cExtend(0, p, split), p + split, len - split), want)
            << "offset " << offset << " len " << len << " split " << split;
      }
    }
  }
}

// Bytes written by the bytewise kernel this one replaced: a WAL with two
// frames (lsn 41 kDropTable "t"; lsn 42 kMemoryRemove with a 39-byte body) and
// a checkpoint at lsn 7 of one table t(id BIGINT, name VARCHAR) holding
// (1, 'castagnoli') and (2, NULL). The formats and their CRCs must not move.
constexpr std::string_view kGoldenWalHex =
    "4146574c010000000a000000a3b1c56002290000000000000074300000003542"
    "be3a0a2a00000000000000736c6963696e672d62792d3820666f6c6473206569"
    "676874206279746573207065722073746570";
constexpr std::string_view kGoldenCheckpointHex =
    "4146434b0100000085000000000000000a128e8c070000000000000001000000"
    "0000000001000000010000007402000000020000006964020001000000740400"
    "00006e616d650401010000007404000000000000000200000000000000020000"
    "0002000000020100000000000000040a0000006361737461676e6f6c69020000"
    "00020200000000000000000000000000000000000000000000";

TEST(Crc32cTest, GoldenWalFramesStillVerify) {
  const std::string image = FromHex(kGoldenWalHex);
  ASSERT_EQ(image.size(), 82u);
  wal::WalReadStats stats;
  auto records = wal::ReadWalImage(image, &stats);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(stats.torn_bytes, 0u);
  EXPECT_EQ((*records)[0].type, wal::WalRecordType::kDropTable);
  EXPECT_EQ((*records)[0].lsn, 41u);
  EXPECT_EQ((*records)[0].body, "t");
  EXPECT_EQ((*records)[1].type, wal::WalRecordType::kMemoryRemove);
  EXPECT_EQ((*records)[1].lsn, 42u);
  EXPECT_EQ((*records)[1].body, "slicing-by-8 folds eight bytes per step");
  // The kernel reproduces the stored frame CRC (frame 2 starts at byte 26).
  EXPECT_EQ(Crc32c(std::string_view(image).substr(34, 48)), 0x3ABE4235u);
}

TEST(Crc32cTest, GoldenCheckpointStillDecodes) {
  const std::string image = FromHex(kGoldenCheckpointHex);
  ASSERT_EQ(image.size(), 153u);
  auto data = wal::DecodeCheckpoint(image);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_EQ(data->lsn, 7u);
  ASSERT_EQ(data->tables.size(), 1u);
  const wal::CheckpointTable& t = data->tables[0];
  EXPECT_EQ(t.name, "t");
  ASSERT_EQ(t.rows.size(), 2u);
  EXPECT_EQ(t.rows[0][0].int_value(), 1);
  EXPECT_EQ(t.rows[0][1].string_value(), "castagnoli");
  EXPECT_EQ(t.rows[1][0].int_value(), 2);
  EXPECT_TRUE(t.rows[1][1].is_null());
  EXPECT_EQ(Crc32c(std::string_view(image).substr(20)), 0x8C8E120Au);
}

TEST(Crc32cTest, EveryOneBitFlipIsRejected) {
  const std::string wal_image = FromHex(kGoldenWalHex);
  for (size_t bit = 0; bit < wal_image.size() * 8; ++bit) {
    std::string flipped = wal_image;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    auto records = wal::ReadWalImage(flipped, nullptr);
    // A flip ends the verified prefix at the damaged frame (or fails the
    // header): both frames are never returned.
    EXPECT_TRUE(!records.ok() || records->size() < 2) << "bit " << bit;
  }
  const std::string ckpt_image = FromHex(kGoldenCheckpointHex);
  for (size_t bit = 0; bit < ckpt_image.size() * 8; ++bit) {
    std::string flipped = ckpt_image;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    EXPECT_FALSE(wal::DecodeCheckpoint(flipped).ok()) << "bit " << bit;
  }
}

// ---------------------------------------------------------------------------
// String utilities
// ---------------------------------------------------------------------------

TEST(StrUtilTest, CaseConversion) {
  EXPECT_EQ(ToLower("AbC_1"), "abc_1");
  EXPECT_EQ(ToUpper("AbC_1"), "ABC_1");
}

TEST(StrUtilTest, Trim) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("\t\na b\n"), "a b");
}

TEST(StrUtilTest, Split) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("a,b,,c", ',', /*skip_empty=*/true),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StrUtilTest, SplitWords) {
  EXPECT_EQ(SplitWords("  foo   bar\tbaz \n"),
            (std::vector<std::string>{"foo", "bar", "baz"}));
  EXPECT_TRUE(SplitWords("   ").empty());
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(EndsWith("file.cc", ".cc"));
  EXPECT_FALSE(EndsWith(".cc", "file.cc"));
}

TEST(StrUtilTest, ContainsIgnoreCase) {
  EXPECT_TRUE(ContainsIgnoreCase("Hello World", "WORLD"));
  EXPECT_TRUE(ContainsIgnoreCase("abc", ""));
  EXPECT_FALSE(ContainsIgnoreCase("abc", "abcd"));
}

struct LikeCase {
  const char* value;
  const char* pattern;
  bool match;
};

class LikeMatchTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.value, c.pattern), c.match)
      << c.value << " LIKE " << c.pattern;
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, LikeMatchTest,
    ::testing::Values(
        LikeCase{"hello", "hello", true}, LikeCase{"hello", "h%", true},
        LikeCase{"hello", "%o", true}, LikeCase{"hello", "%ell%", true},
        LikeCase{"hello", "h_llo", true}, LikeCase{"hello", "h_x_o", false},
        LikeCase{"hello", "%", true}, LikeCase{"", "%", true},
        LikeCase{"", "_", false}, LikeCase{"abc", "a%c", true},
        LikeCase{"abc", "a%b", false}, LikeCase{"aXbXc", "a%b%c", true},
        LikeCase{"coffee beans", "%coffee%", true},
        LikeCase{"coffee beans", "beans%", false},
        LikeCase{"aaa", "a%a", true}, LikeCase{"ab", "%%", true},
        LikeCase{"a", "", false}, LikeCase{"", "", true}));

TEST(StrUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.0), "3");
  EXPECT_EQ(FormatDouble(1.5), "1.5");
  EXPECT_EQ(FormatDouble(0.25), "0.25");
}

// ---------------------------------------------------------------------------
// MemoryTracker / Arena
// ---------------------------------------------------------------------------

TEST(MemoryTrackerTest, UnlimitedByDefault) {
  MemoryTracker tracker;
  EXPECT_EQ(tracker.limit(), 0u);
  EXPECT_TRUE(tracker.TryConsume(1ull << 40).ok());
  EXPECT_EQ(tracker.used(), 1ull << 40);
}

TEST(MemoryTrackerTest, EnforcesLimitAndLeavesStateUnchangedOnFailure) {
  MemoryTracker tracker(100);
  EXPECT_TRUE(tracker.TryConsume(60).ok());
  Status s = tracker.TryConsume(41);
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s.ToString();
  EXPECT_EQ(tracker.used(), 60u);  // failed reservation charged nothing
  EXPECT_TRUE(tracker.TryConsume(40).ok());  // exactly at the limit is fine
  EXPECT_EQ(tracker.used(), 100u);
}

TEST(MemoryTrackerTest, ReleaseAndPeak) {
  MemoryTracker tracker(1000);
  EXPECT_TRUE(tracker.TryConsume(700).ok());
  tracker.Release(500);
  EXPECT_EQ(tracker.used(), 200u);
  EXPECT_EQ(tracker.peak(), 700u);
  tracker.Release(10000);  // over-release clamps to zero
  EXPECT_EQ(tracker.used(), 0u);
  EXPECT_TRUE(tracker.TryConsume(900).ok());  // freed budget is reusable
  EXPECT_EQ(tracker.peak(), 900u);
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena;
  auto* a = arena.AllocateArrayOf<int64_t>(100);
  auto* b = arena.AllocateArrayOf<int64_t>(100);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % alignof(int64_t), 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % alignof(int64_t), 0u);
  // Writes to one array must not alias the other.
  for (int i = 0; i < 100; ++i) a[i] = i;
  for (int i = 0; i < 100; ++i) b[i] = -i;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a[i], i);
  char* c = static_cast<char*>(arena.Allocate(3, 1));
  auto* d = arena.AllocateArrayOf<double>(1);
  ASSERT_NE(c, nullptr);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
}

TEST(ArenaTest, GrowsBeyondOneBlockAndTracksBytes) {
  Arena arena;
  size_t total = 0;
  // Far more than kMinBlockBytes, and one request larger than kMaxBlockBytes.
  for (size_t n : {1000u, 60000u, 300000u, 8u}) {
    EXPECT_NE(arena.Allocate(n), nullptr);
    total += n;
  }
  EXPECT_GE(arena.used_bytes(), total);
  EXPECT_GE(arena.allocated_bytes(), arena.used_bytes());
}

TEST(ArenaTest, ResetRecyclesTheFirstBlock) {
  Arena arena;
  EXPECT_NE(arena.Allocate(64), nullptr);      // first (kept) block
  EXPECT_NE(arena.Allocate(100000), nullptr);  // forces a second block
  size_t grown = arena.allocated_bytes();
  arena.Reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_LT(arena.allocated_bytes(), grown);  // extra blocks dropped
  EXPECT_GT(arena.allocated_bytes(), 0u);     // first block kept for reuse
  EXPECT_NE(arena.Allocate(64), nullptr);     // steady state: no new block
}

TEST(ArenaTest, ChargesTrackerPerBlockAndFailsTyped) {
  MemoryTracker tracker(Arena::kMinBlockBytes);
  Arena arena(&tracker);
  EXPECT_NE(arena.Allocate(64), nullptr);  // first block fits exactly
  EXPECT_EQ(tracker.used(), arena.allocated_bytes());
  // The next block would exceed the budget: Allocate degrades to nullptr,
  // never throws, and the arena stays usable for in-block allocations.
  EXPECT_EQ(arena.Allocate(2 * Arena::kMinBlockBytes), nullptr);
  EXPECT_NE(arena.Allocate(64), nullptr);
}

TEST(ArenaTest, ResetReleasesTrackerCharges) {
  MemoryTracker tracker;
  {
    Arena arena(&tracker);
    EXPECT_NE(arena.Allocate(100000), nullptr);
    EXPECT_GT(tracker.used(), 0u);
    arena.Reset();
    EXPECT_EQ(tracker.used(), arena.allocated_bytes());
  }
  EXPECT_EQ(tracker.used(), 0u);  // destruction returns everything
}

}  // namespace
}  // namespace agentfirst

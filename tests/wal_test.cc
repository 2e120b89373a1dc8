// Durability subsystem tests (src/wal/): framing fuzz torture, group-commit
// concurrency, checkpoint/recovery round trips, branch restore-or-report,
// and the kill-and-recover crash torture the PR's acceptance criterion
// demands: for every seeded crash site (> 50 distinct injection points
// across append, group commit, checkpoint write, rename, and replay),
// restart + recovery must yield a catalog and memory store byte-identical
// to a committed prefix of a reference run — no torn state, no silent loss.
//
// Mirrors tests/fuzz_wire_test.cc's discipline: all randomness is seeded,
// hostile bytes must come back as Status (never UB), and the whole file is
// expected to pass under ASan/TSan/UBSan (tools/run_sanitized.sh).

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/system.h"
#include "gtest/gtest.h"
#include "io/file_util.h"
#include "wal/checkpoint.h"
#include "wal/recovery.h"
#include "wal/wal.h"

namespace agentfirst {
namespace wal {
namespace {

std::string TempDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/wal_test_" + name;
  (void)io::RemoveFile(WalPath(dir));
  (void)io::RemoveFile(CheckpointPath(dir));
  (void)io::RemoveFile(CheckpointPath(dir) + ".tmp");
  EXPECT_TRUE(io::CreateDirectories(dir).ok());
  return dir;
}

void CopyFileIfExists(const std::string& from, const std::string& to) {
  auto bytes = io::ReadFileToString(from);
  if (!bytes.ok()) return;
  auto f = io::File::OpenForWrite(to);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f->WriteAll(*bytes).ok());
  ASSERT_TRUE(f->Close().ok());
}

/// Snapshots data_dir into a second directory — the moral equivalent of the
/// machine dying at this instant and the disk being re-mounted elsewhere.
void SnapshotDataDir(const std::string& data_dir, const std::string& into) {
  ASSERT_TRUE(io::CreateDirectories(into).ok());
  (void)io::RemoveFile(WalPath(into));
  (void)io::RemoveFile(CheckpointPath(into));
  CopyFileIfExists(WalPath(data_dir), WalPath(into));
  CopyFileIfExists(CheckpointPath(data_dir), CheckpointPath(into));
}

std::string Canonical(AgentFirstSystem* sys) {
  auto state = EncodeCanonicalState(*sys->catalog(), sys->memory());
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  return state.ok() ? *state : std::string();
}

// ---------------------------------------------------------------------------
// The scripted episode. Deterministic: same ops, same order, every run.
// ---------------------------------------------------------------------------

/// One step = one mutation batch through a public API. The episode covers
/// every WAL record type: DDL, batched inserts, updates, deletes, index
/// create/drop, memory puts/evictions, and branch import/fork/rollback.
/// Returns at the first failed step (the injected crash); `acked` counts
/// steps that returned OK and were therefore durability-acknowledged, and
/// `acked_digest` (when set) tracks the canonical state as of the last
/// acknowledged step — the exact boundary the durability contract promises
/// to preserve. A step that fails may still have mutated in-memory state;
/// those mutations were never acknowledged and recovery owes them nothing.
Status RunEpisode(AgentFirstSystem* sys, bool with_checkpoints, size_t* acked,
                  std::string* acked_digest = nullptr) {
  auto sql = [&](const std::string& statement) -> Status {
    auto result = sys->ExecuteSql(statement);
    return result.ok() ? Status::OK() : result.status();
  };
  auto step = [&](Status s) -> Status {
    if (s.ok()) {
      if (acked != nullptr) ++(*acked);
      if (acked_digest != nullptr) *acked_digest = Canonical(sys);
    }
    return s;
  };
  AF_RETURN_IF_ERROR(step(sql(
      "CREATE TABLE sales (id BIGINT, region VARCHAR, amount DOUBLE)")));
  AF_RETURN_IF_ERROR(step(sql(
      "INSERT INTO sales VALUES (1,'west',10.5),(2,'east',20.0),(3,'west',7.25)")));
  AF_RETURN_IF_ERROR(step(sql(
      "CREATE TABLE agents (agent_id BIGINT, name VARCHAR)")));
  AF_RETURN_IF_ERROR(step(sql(
      "INSERT INTO agents VALUES (1,'scout'),(2,'verifier')")));
  AF_RETURN_IF_ERROR(step(sql("CREATE INDEX ON sales (region)")));
  // Memory artifacts: puts and a same-key supersede (logs put + remove).
  {
    MemoryArtifact a;
    a.kind = ArtifactKind::kColumnEncoding;
    a.key = "table:sales/col:region";
    a.content = "regions are lowercase cardinal names";
    a.table_deps = {"sales"};
    (void)sys->memory()->Put(std::move(a));
    MemoryArtifact b;
    b.kind = ArtifactKind::kStatSummary;
    b.key = "table:sales/stats";
    b.content = "3 rows, 2 regions";
    b.table_deps = {"sales"};
    (void)sys->memory()->Put(std::move(b));
    MemoryArtifact c;
    c.kind = ArtifactKind::kColumnEncoding;
    c.key = "table:sales/col:region";
    c.content = "revised: regions may also be 'north'";
    c.table_deps = {"sales"};
    (void)sys->memory()->Put(std::move(c));
    AF_RETURN_IF_ERROR(step(sys->DurabilityBarrier()));
  }
  AF_RETURN_IF_ERROR(step(sql("UPDATE sales SET amount = 11.0 WHERE id = 1")));
  if (with_checkpoints) AF_RETURN_IF_ERROR(step(sys->CheckpointNow()));
  AF_RETURN_IF_ERROR(step(sql(
      "INSERT INTO sales VALUES (4,'north',3.5),(5,'east',8.75)")));
  AF_RETURN_IF_ERROR(step(sql("DELETE FROM sales WHERE region = 'east'")));
  AF_RETURN_IF_ERROR(step(sql("UPDATE agents SET name = 'planner' WHERE agent_id = 2")));
  AF_RETURN_IF_ERROR(step(sql("DROP INDEX ON sales (region)")));
  AF_RETURN_IF_ERROR(step(sql("CREATE INDEX ON agents (agent_id)")));
  AF_RETURN_IF_ERROR(step(sql(
      "CREATE TABLE scratch (k BIGINT, v VARCHAR)")));
  AF_RETURN_IF_ERROR(step(sql("INSERT INTO scratch VALUES (1,'a'),(2,'b')")));
  AF_RETURN_IF_ERROR(step(sql("DROP TABLE scratch")));
  if (with_checkpoints) AF_RETURN_IF_ERROR(step(sys->CheckpointNow()));
  AF_RETURN_IF_ERROR(step(sql(
      "INSERT INTO sales VALUES (6,'south',99.0),(7,'west',1.0)")));
  AF_RETURN_IF_ERROR(step(sql("UPDATE sales SET amount = 2.0 WHERE id = 7")));
  return Status::OK();
}

/// Builds the committed-prefix digest chain of the reference run: recover
/// every record-prefix of the reference WAL (plus checkpoint, if any) into a
/// fresh system and canonicalize it. out[j] == state after j replayable
/// records; the full chain is what "a committed prefix of the reference run"
/// means, byte for byte. (gtest ASSERT_* macros need a void return, hence
/// the out-parameter + MakeReferenceDigests wrapper.)
void BuildReferencePrefixDigests(const std::string& ref_dir,
                                 const std::string& scratch_dir,
                                 std::vector<std::string>* out) {
  auto wal_bytes = io::ReadFileToString(WalPath(ref_dir));
  ASSERT_TRUE(wal_bytes.ok());
  WalReadStats stats;
  auto records = ReadWalImage(*wal_bytes, &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(stats.torn_bytes, 0u);
  for (size_t k = 0; k <= records->size(); ++k) {
    uint64_t cut = (k == records->size()) ? stats.valid_bytes
                                          : (*records)[k].file_offset;
    ASSERT_TRUE(io::CreateDirectories(scratch_dir).ok());
    (void)io::RemoveFile(CheckpointPath(scratch_dir));
    CopyFileIfExists(CheckpointPath(ref_dir), CheckpointPath(scratch_dir));
    auto f = io::File::OpenForWrite(WalPath(scratch_dir));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f->WriteAll(wal_bytes->substr(0, cut)).ok());
    ASSERT_TRUE(f->Close().ok());
    AgentFirstSystem sys;
    auto report = Recover(scratch_dir, sys.catalog(), sys.memory(),
                          sys.branches());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    out->push_back(Canonical(&sys));
  }
}

std::vector<std::string> MakeReferenceDigests(const std::string& ref_dir,
                                              const std::string& scratch_dir) {
  std::vector<std::string> digests;
  BuildReferencePrefixDigests(ref_dir, scratch_dir, &digests);
  return digests;
}

// ---------------------------------------------------------------------------
// Framing torture (fuzz_wire_test discipline applied to durable bytes).
// ---------------------------------------------------------------------------

std::string BuildWalImage(size_t nrecords) {
  std::string dir = TempDir("image");
  DurabilityOptions options;
  options.fsync = FsyncPolicy::kAlways;
  auto writer = WalWriter::Open(WalPath(dir), options, 1);
  EXPECT_TRUE(writer.ok());
  for (size_t i = 0; i < nrecords; ++i) {
    ByteWriter body;
    body.Str("table_" + std::to_string(i % 3));
    body.U64(i);
    auto lsn = (*writer)->Append(
        static_cast<WalRecordType>(1 + (i % 14)), body.buffer());
    EXPECT_TRUE(lsn.ok());
  }
  EXPECT_TRUE((*writer)->Close().ok());
  auto bytes = io::ReadFileToString(WalPath(dir));
  EXPECT_TRUE(bytes.ok());
  return *bytes;
}

TEST(WalFraming, RoundTripAndLsnAssignment) {
  std::string image = BuildWalImage(20);
  WalReadStats stats;
  auto records = ReadWalImage(image, &stats);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 20u);
  EXPECT_EQ(stats.torn_bytes, 0u);
  EXPECT_EQ(stats.valid_bytes, image.size());
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].lsn, i + 1);
    EXPECT_EQ(static_cast<int>((*records)[i].type), static_cast<int>(1 + (i % 14)));
  }
}

TEST(WalFraming, EveryStrictPrefixIsACleanPrefix) {
  std::string image = BuildWalImage(12);
  WalReadStats full_stats;
  auto full = ReadWalImage(image, &full_stats);
  ASSERT_TRUE(full.ok());
  for (size_t cut = 0; cut < image.size(); ++cut) {
    std::string prefix = image.substr(0, cut);
    WalReadStats stats;
    auto records = ReadWalImage(prefix, &stats);
    if (cut < kWalHeaderSize) {
      EXPECT_FALSE(records.ok());
      continue;
    }
    ASSERT_TRUE(records.ok()) << "cut=" << cut;
    ASSERT_LE(records->size(), full->size());
    for (size_t i = 0; i < records->size(); ++i) {
      EXPECT_EQ((*records)[i].lsn, (*full)[i].lsn);
      EXPECT_EQ((*records)[i].body, (*full)[i].body);
    }
    EXPECT_EQ(stats.valid_bytes + stats.torn_bytes, prefix.size());
  }
}

TEST(WalFraming, SeededByteFlipsNeverCrashAndNeverForgeRecords) {
  std::string image = BuildWalImage(10);
  WalReadStats full_stats;
  auto full = ReadWalImage(image, &full_stats);
  ASSERT_TRUE(full.ok());
  Rng rng(20260807);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = image;
    size_t pos = rng.NextUint(mutated.size());
    uint8_t flip = static_cast<uint8_t>(1 + rng.NextUint(255));
    mutated[pos] = static_cast<char>(static_cast<uint8_t>(mutated[pos]) ^ flip);
    WalReadStats stats;
    auto records = ReadWalImage(mutated, &stats);
    if (!records.ok()) continue;  // header flip: clean error
    // Every surviving record must be one of the original records, verbatim:
    // a flip may shorten the readable prefix but never invent history.
    ASSERT_LE(records->size(), full->size());
    for (size_t i = 0; i < records->size(); ++i) {
      EXPECT_EQ((*records)[i].lsn, (*full)[i].lsn);
      EXPECT_EQ((*records)[i].body, (*full)[i].body)
          << "trial " << trial << " forged record " << i;
    }
  }
}

TEST(WalFraming, RandomGarbageIsSurvivable) {
  Rng rng(77);
  for (int trial = 0; trial < 300; ++trial) {
    size_t len = rng.NextUint(400);
    std::string garbage;
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.NextUint(256)));
    }
    WalReadStats stats;
    auto records = ReadWalImage(garbage, &stats);  // error or short prefix
    if (records.ok()) {
      EXPECT_LE(stats.valid_bytes, garbage.size());
    }
  }
}

TEST(CheckpointFraming, FlipAndTruncateTortureNeverCrashes) {
  AgentFirstSystem sys;
  ASSERT_TRUE(sys.ExecuteSql("CREATE TABLE t (a BIGINT, b VARCHAR)").ok());
  ASSERT_TRUE(sys.ExecuteSql("INSERT INTO t VALUES (1,'x'),(2,'y')").ok());
  std::string dir = TempDir("ckpt_torture");
  BranchMeta meta;
  ASSERT_TRUE(WriteCheckpoint(CheckpointPath(dir), *sys.catalog(),
                              sys.memory(), meta, 7)
                  .ok());
  auto image = io::ReadFileToString(CheckpointPath(dir));
  ASSERT_TRUE(image.ok());
  auto decoded = DecodeCheckpoint(*image);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->lsn, 7u);
  ASSERT_EQ(decoded->tables.size(), 1u);
  EXPECT_EQ(decoded->tables[0].rows.size(), 2u);

  // A checkpoint is all-or-nothing: every strict prefix must be rejected.
  for (size_t cut = 0; cut < image->size(); ++cut) {
    EXPECT_FALSE(DecodeCheckpoint(image->substr(0, cut)).ok()) << cut;
  }
  Rng rng(31337);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = *image;
    size_t pos = rng.NextUint(mutated.size());
    mutated[pos] = static_cast<char>(
        static_cast<uint8_t>(mutated[pos]) ^ (1 + rng.NextUint(255)));
    auto result = DecodeCheckpoint(mutated);  // must not crash; usually error
    (void)result;
  }
}

TEST(ArtifactSerde, RoundTripAndTruncationRejection) {
  MemoryArtifact a;
  a.id = 42;
  a.kind = ArtifactKind::kStatSummary;
  a.key = "table:sales/stats";
  a.content = "v=1 rows=3";
  a.table_deps = {"sales", "agents"};
  a.schema_version = 9;
  a.table_versions = {{"sales", 5}, {"agents", 2}};
  a.owner = "agent-7";
  a.created_tick = 11;
  a.last_used_tick = 13;
  ByteWriter w;
  AppendArtifact(a, &w);
  std::string bytes = w.Take();
  ByteReader r(bytes);
  MemoryArtifact back;
  ASSERT_TRUE(ReadArtifact(&r, &back).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(back.id, a.id);
  EXPECT_EQ(back.key, a.key);
  EXPECT_EQ(back.content, a.content);
  EXPECT_EQ(back.table_deps, a.table_deps);
  EXPECT_EQ(back.table_versions, a.table_versions);
  EXPECT_EQ(back.owner, a.owner);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    ByteReader rr(std::string_view(bytes).substr(0, cut));
    MemoryArtifact out;
    EXPECT_FALSE(ReadArtifact(&rr, &out).ok() && rr.ExpectEnd().ok()) << cut;
  }
}

// ---------------------------------------------------------------------------
// Group commit: concurrency + durability semantics.
// ---------------------------------------------------------------------------

class WalGroupCommitTest : public ::testing::TestWithParam<int> {};

TEST_P(WalGroupCommitTest, ConcurrentWritersAllDurableNoTearing) {
  const int nthreads = GetParam();
  const int per_thread = 200;
  std::string dir = TempDir("group_" + std::to_string(nthreads));
  DurabilityOptions options;
  options.fsync = FsyncPolicy::kGroupCommit;
  options.group_window_us = 50;
  auto writer = WalWriter::Open(WalPath(dir), options, 1);
  ASSERT_TRUE(writer.ok());
  // Dedicated OS threads, deliberately: each writer blocks in WaitDurable,
  // and the point is nthreads truly concurrent appenders regardless of the
  // shared pool's size. aflint:allow(raw-thread)
  std::vector<std::thread> threads;
  std::vector<Status> results(static_cast<size_t>(nthreads), Status::OK());
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < per_thread; ++i) {
        ByteWriter body;
        body.U64(static_cast<uint64_t>(t));
        body.U64(static_cast<uint64_t>(i));
        auto lsn = (*writer)->Append(WalRecordType::kMemoryRemove, body.buffer());
        if (!lsn.ok()) {
          results[static_cast<size_t>(t)] = lsn.status();
          return;
        }
        Status durable = (*writer)->WaitDurable(*lsn);
        if (!durable.ok()) {
          results[static_cast<size_t>(t)] = durable;
          return;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& s : results) EXPECT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE((*writer)->Close().ok());

  auto bytes = io::ReadFileToString(WalPath(dir));
  ASSERT_TRUE(bytes.ok());
  WalReadStats stats;
  auto records = ReadWalImage(*bytes, &stats);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(stats.torn_bytes, 0u);
  ASSERT_EQ(records->size(), static_cast<size_t>(nthreads) * per_thread);
  // LSNs are dense, unique, and file order == LSN order (one log, one order).
  for (size_t i = 0; i < records->size(); ++i) {
    EXPECT_EQ((*records)[i].lsn, i + 1);
  }
  // Every (thread, seq) pair landed exactly once, in per-thread order.
  std::map<uint64_t, uint64_t> next_seq;
  for (const WalRecord& rec : *records) {
    ByteReader r(rec.body);
    uint64_t t = 0;
    uint64_t i = 0;
    ASSERT_TRUE(r.U64(&t).ok());
    ASSERT_TRUE(r.U64(&i).ok());
    EXPECT_EQ(i, next_seq[t]++);
  }
}

INSTANTIATE_TEST_SUITE_P(Writers, WalGroupCommitTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(WalGroupCommit, FsyncPolicyNamesAreStable) {
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kAlways), "always");
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kGroupCommit), "group_commit");
  EXPECT_STREQ(FsyncPolicyName(FsyncPolicy::kNever), "never");
}

// ---------------------------------------------------------------------------
// System-level round trips.
// ---------------------------------------------------------------------------

TEST(WalRecovery, CleanCloseRoundTripIsByteIdentical) {
  for (FsyncPolicy policy : {FsyncPolicy::kAlways, FsyncPolicy::kGroupCommit,
                             FsyncPolicy::kNever}) {
    std::string dir = TempDir(std::string("roundtrip_") + FsyncPolicyName(policy));
    std::string digest;
    {
      AgentFirstSystem sys;
      DurabilityOptions options;
      options.data_dir = dir;
      options.fsync = policy;
      ASSERT_TRUE(sys.EnableDurability(options).ok());
      ASSERT_TRUE(RunEpisode(&sys, /*with_checkpoints=*/false, nullptr).ok());
      digest = Canonical(&sys);
      ASSERT_TRUE(sys.CloseDurability().ok());
    }
    AgentFirstSystem recovered;
    DurabilityOptions options;
    options.data_dir = dir;
    ASSERT_TRUE(recovered.EnableDurability(options).ok());
    EXPECT_EQ(Canonical(&recovered), digest) << FsyncPolicyName(policy);
    EXPECT_GT(recovered.recovery_report().records_replayed, 0u);
  }
}

TEST(WalRecovery, CheckpointRoundTripAndWalTruncation) {
  std::string dir = TempDir("ckpt_roundtrip");
  std::string digest;
  uint64_t live_bytes_after_checkpoint = 0;
  {
    AgentFirstSystem sys;
    DurabilityOptions options;
    options.data_dir = dir;
    options.fsync = FsyncPolicy::kAlways;
    ASSERT_TRUE(sys.EnableDurability(options).ok());
    ASSERT_TRUE(RunEpisode(&sys, /*with_checkpoints=*/true, nullptr).ok());
    digest = Canonical(&sys);
    live_bytes_after_checkpoint = sys.wal()->writer()->live_bytes();
    ASSERT_TRUE(sys.CloseDurability().ok());
  }
  // The checkpoint truncated the WAL: only post-checkpoint records remain.
  auto wal_size = io::FileSize(WalPath(dir));
  ASSERT_TRUE(wal_size.ok());
  EXPECT_EQ(*wal_size, kWalHeaderSize + live_bytes_after_checkpoint);
  ASSERT_TRUE(io::FileExists(CheckpointPath(dir)));

  AgentFirstSystem recovered;
  DurabilityOptions options;
  options.data_dir = dir;
  ASSERT_TRUE(recovered.EnableDurability(options).ok());
  EXPECT_TRUE(recovered.recovery_report().checkpoint_loaded);
  EXPECT_EQ(Canonical(&recovered), digest);
}

TEST(WalRecovery, AutoCheckpointByBytesThreshold) {
  std::string dir = TempDir("auto_ckpt");
  AgentFirstSystem sys;
  DurabilityOptions options;
  options.data_dir = dir;
  options.fsync = FsyncPolicy::kAlways;
  options.checkpoint_every_bytes = 512;
  ASSERT_TRUE(sys.EnableDurability(options).ok());
  ASSERT_TRUE(RunEpisode(&sys, /*with_checkpoints=*/false, nullptr).ok());
  EXPECT_TRUE(io::FileExists(CheckpointPath(dir)));  // threshold crossed
  std::string digest = Canonical(&sys);
  ASSERT_TRUE(sys.CloseDurability().ok());
  AgentFirstSystem recovered;
  DurabilityOptions ropts;
  ropts.data_dir = dir;
  ASSERT_TRUE(recovered.EnableDurability(ropts).ok());
  EXPECT_EQ(Canonical(&recovered), digest);
}

// An artifact pins (table, data_version). A re-created table must not
// restart at a version its dropped predecessor had, or the artifact reads as
// fresh; the version seed has to hold across reboots on the same data dir.
TEST(WalRecovery, ArtifactPinnedToDroppedTableStaysStale) {
  std::string dir = TempDir("recreated_table");
  AgentFirstSystem::Options system_options;
  // Lazy staleness flags a stale hit instead of dropping it, so one artifact
  // can be checked before and after each reboot.
  system_options.memory.staleness = AgenticMemoryStore::StalenessPolicy::kLazy;
  DurabilityOptions options;
  options.data_dir = dir;
  auto stale = [](AgentFirstSystem* sys) {
    std::optional<MemoryHit> hit = sys->memory()->GetExact("stats:t");
    EXPECT_TRUE(hit.has_value());
    return hit.has_value() && hit->stale;
  };
  {
    AgentFirstSystem sys(system_options);
    ASSERT_TRUE(sys.EnableDurability(options).ok());
    ASSERT_TRUE(sys.ExecuteSql("CREATE TABLE t (x BIGINT)").ok());
    ASSERT_TRUE(sys.ExecuteSql("INSERT INTO t VALUES (1)").ok());
    MemoryArtifact note;
    note.kind = ArtifactKind::kStatSummary;
    note.key = "stats:t";
    note.content = "t holds one row, x = 1";
    note.table_deps = {"t"};
    sys.memory()->Put(std::move(note));
    EXPECT_FALSE(stale(&sys));
    ASSERT_TRUE(sys.ExecuteSql("DROP TABLE t").ok());
    // The next incarnation seeds its version from the checkpoint.
    ASSERT_TRUE(sys.CheckpointNow().ok());
    ASSERT_TRUE(sys.CloseDurability().ok());
  }
  {
    AgentFirstSystem sys(system_options);
    ASSERT_TRUE(sys.EnableDurability(options).ok());
    ASSERT_TRUE(sys.ExecuteSql("CREATE TABLE t (x BIGINT)").ok());
    ASSERT_TRUE(sys.ExecuteSql("INSERT INTO t VALUES (1000)").ok());
    EXPECT_TRUE(stale(&sys));
    ASSERT_TRUE(sys.CloseDurability().ok());
  }
  AgentFirstSystem recovered(system_options);
  ASSERT_TRUE(recovered.EnableDurability(options).ok());
  EXPECT_TRUE(stale(&recovered));
}

TEST(WalRecovery, TornTailIsTruncatedAndRecoveryIsIdempotent) {
  std::string dir = TempDir("torn");
  std::string digest;
  {
    AgentFirstSystem sys;
    DurabilityOptions options;
    options.data_dir = dir;
    options.fsync = FsyncPolicy::kAlways;
    ASSERT_TRUE(sys.EnableDurability(options).ok());
    ASSERT_TRUE(RunEpisode(&sys, /*with_checkpoints=*/false, nullptr).ok());
    digest = Canonical(&sys);
    ASSERT_TRUE(sys.CloseDurability().ok());
  }
  // The machine died mid-write: garbage half-frame lands on the tail.
  {
    auto f = io::File::OpenForAppend(WalPath(dir));
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f->WriteAll(std::string("\x42\x00\x00\x00garbagetail", 15)).ok());
    ASSERT_TRUE(f->Close().ok());
  }
  auto size_before = io::FileSize(WalPath(dir));
  ASSERT_TRUE(size_before.ok());
  AgentFirstSystem recovered;
  DurabilityOptions options;
  options.data_dir = dir;
  ASSERT_TRUE(recovered.EnableDurability(options).ok());
  EXPECT_EQ(Canonical(&recovered), digest);
  EXPECT_EQ(recovered.recovery_report().torn_bytes_truncated, 15u);
  auto size_after = io::FileSize(WalPath(dir));
  ASSERT_TRUE(size_after.ok());
  EXPECT_EQ(*size_after + 15u, *size_before);
  ASSERT_TRUE(recovered.CloseDurability().ok());

  AgentFirstSystem again;
  ASSERT_TRUE(again.EnableDurability(options).ok());
  EXPECT_EQ(Canonical(&again), digest);
  EXPECT_EQ(again.recovery_report().torn_bytes_truncated, 0u);
}

TEST(WalRecovery, EnableDurabilityRejectsNonEmptySystem) {
  AgentFirstSystem sys;
  ASSERT_TRUE(sys.ExecuteSql("CREATE TABLE t (a BIGINT)").ok());
  DurabilityOptions options;
  options.data_dir = TempDir("nonempty");
  Status enabled = sys.EnableDurability(options);
  EXPECT_EQ(enabled.code(), StatusCode::kFailedPrecondition);
}

// ---------------------------------------------------------------------------
// Branch restore-or-report.
// ---------------------------------------------------------------------------

TEST(WalRecovery, CleanBranchesAreRestoredWithIdsAndContents) {
  std::string dir = TempDir("branch_clean");
  uint64_t fork1 = 0;
  uint64_t fork2 = 0;
  {
    AgentFirstSystem sys;
    DurabilityOptions options;
    options.data_dir = dir;
    options.fsync = FsyncPolicy::kAlways;
    ASSERT_TRUE(sys.EnableDurability(options).ok());
    ASSERT_TRUE(sys.ExecuteSql("CREATE TABLE inv (sku BIGINT, qty BIGINT)").ok());
    ASSERT_TRUE(sys.ExecuteSql("INSERT INTO inv VALUES (1,10),(2,20)").ok());
    ASSERT_TRUE(sys.EnableBranching("inv").ok());
    auto f1 = sys.branches()->Fork(BranchManager::kMainBranch);
    ASSERT_TRUE(f1.ok());
    fork1 = *f1;
    auto f2 = sys.branches()->Fork(*f1);  // fork-of-fork, still clean
    ASSERT_TRUE(f2.ok());
    fork2 = *f2;
    ASSERT_TRUE(sys.DurabilityBarrier().ok());
    ASSERT_TRUE(sys.CloseDurability().ok());
  }
  AgentFirstSystem recovered;
  DurabilityOptions options;
  options.data_dir = dir;
  Status enabled = recovered.EnableDurability(options);
  ASSERT_TRUE(enabled.ok()) << enabled.ToString();
  EXPECT_TRUE(recovered.recovery_report().dropped_branches.empty());
  EXPECT_TRUE(recovered.branches()->HasBranch(fork1));
  EXPECT_TRUE(recovered.branches()->HasBranch(fork2));
  auto rows = recovered.QueryBranch(fork2, "SELECT qty FROM inv WHERE sku = 2");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ((*rows)->rows.size(), 1u);
  EXPECT_EQ((*rows)->rows[0][0].int_value(), 20);
  // A new fork after recovery must not collide with restored ids.
  auto f3 = recovered.branches()->Fork(BranchManager::kMainBranch);
  ASSERT_TRUE(f3.ok());
  EXPECT_GT(*f3, fork2);
}

TEST(WalRecovery, MutatedBranchIsDroppedWithTypedErrorNeverSilently) {
  std::string dir = TempDir("branch_dirty");
  uint64_t clean_fork = 0;
  uint64_t dirty_fork = 0;
  uint64_t child_of_dirty = 0;
  {
    AgentFirstSystem sys;
    DurabilityOptions options;
    options.data_dir = dir;
    options.fsync = FsyncPolicy::kAlways;
    ASSERT_TRUE(sys.EnableDurability(options).ok());
    ASSERT_TRUE(sys.ExecuteSql("CREATE TABLE inv (sku BIGINT, qty BIGINT)").ok());
    ASSERT_TRUE(sys.ExecuteSql("INSERT INTO inv VALUES (1,10),(2,20)").ok());
    ASSERT_TRUE(sys.EnableBranching("inv").ok());
    auto cf = sys.branches()->Fork(BranchManager::kMainBranch);
    ASSERT_TRUE(cf.ok());
    clean_fork = *cf;
    auto df = sys.branches()->Fork(BranchManager::kMainBranch);
    ASSERT_TRUE(df.ok());
    dirty_fork = *df;
    // COW write: the branch's cloned segment contents are NOT in the log.
    ASSERT_TRUE(sys.branches()->Write(dirty_fork, "inv", 0, 1,
                                      Value::Int(99)).ok());
    auto cd = sys.branches()->Fork(dirty_fork);  // inherits unlogged state
    ASSERT_TRUE(cd.ok());
    child_of_dirty = *cd;
    ASSERT_TRUE(sys.DurabilityBarrier().ok());
    ASSERT_TRUE(sys.CloseDurability().ok());
  }
  AgentFirstSystem recovered;
  DurabilityOptions options;
  options.data_dir = dir;
  Status enabled = recovered.EnableDurability(options);
  // Recovery succeeded, but the verdict is typed and names the losses.
  EXPECT_EQ(enabled.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(enabled.message().find(std::to_string(dirty_fork)),
            std::string::npos);
  EXPECT_NE(enabled.message().find(std::to_string(child_of_dirty)),
            std::string::npos);
  EXPECT_TRUE(recovered.branches()->HasBranch(clean_fork));
  EXPECT_FALSE(recovered.branches()->HasBranch(dirty_fork));
  EXPECT_FALSE(recovered.branches()->HasBranch(child_of_dirty));
  std::vector<uint64_t> dropped = recovered.recovery_report().dropped_branches;
  EXPECT_EQ(dropped.size(), 2u);
}

// ---------------------------------------------------------------------------
// Kill-and-recover torture: the acceptance criterion.
// ---------------------------------------------------------------------------

struct CrashSite {
  const char* site;
  uint64_t skip_first;
};

/// Runs the episode against `crash_dir` with one fault armed, simulating a
/// machine crash at that exact hit. Returns true when the fault actually
/// fired (a crash was induced).
bool RunCrashingEpisode(const std::string& crash_dir, const CrashSite& site,
                        size_t* acked, std::string* last_acked_digest) {
  FaultRegistry::Global().ClearArmed();
  FaultRegistry::Global().Enable(0x5EED);
  FaultSpec spec;
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kInternal;
  spec.probability = 1.0;
  spec.max_fires = 1;
  spec.skip_first = site.skip_first;
  {
    AgentFirstSystem sys;
    DurabilityOptions options;
    options.data_dir = crash_dir;
    options.fsync = FsyncPolicy::kAlways;
    Status enabled = sys.EnableDurability(options);
    if (!enabled.ok()) {
      FaultRegistry::Global().ClearArmed();
      FaultRegistry::Global().Disable();
      return FaultRegistry::Global().fired(site.site) > 0;
    }
    FaultRegistry::Global().Arm(site.site, spec);
    *acked = 0;
    // The empty post-recovery state is itself an acknowledged boundary (a
    // crash before the first acked step must recover to it).
    *last_acked_digest = Canonical(&sys);
    Status episode = RunEpisode(&sys, /*with_checkpoints=*/true, acked,
                                last_acked_digest);
    (void)episode;
    // Simulated crash: the process dies here. The system object is destroyed
    // with the WAL in whatever state the fault left it; kAlways has no
    // buffered records, so destruction adds no bytes (verified below by the
    // committed-prefix check itself).
  }
  bool fired = FaultRegistry::Global().fired(site.site) > 0;
  FaultRegistry::Global().ClearArmed();
  FaultRegistry::Global().Disable();
  return fired;
}

TEST(WalCrashTorture, EveryCrashSiteRecoversToACommittedPrefix) {
  // Reference run: same episode, no faults.
  std::string ref_dir = TempDir("torture_ref");
  size_t ref_acked = 0;
  {
    AgentFirstSystem sys;
    DurabilityOptions options;
    options.data_dir = ref_dir;
    options.fsync = FsyncPolicy::kAlways;
    ASSERT_TRUE(sys.EnableDurability(options).ok());
    ASSERT_TRUE(RunEpisode(&sys, /*with_checkpoints=*/true, &ref_acked).ok());
    ASSERT_TRUE(sys.CloseDurability().ok());
  }
  // Committed-prefix digests of the reference run, one per record boundary.
  // The reference WAL was checkpoint-truncated, so rebuild the full-history
  // digest chain from a checkpoint-free reference instead.
  std::string ref_full_dir = TempDir("torture_ref_full");
  {
    AgentFirstSystem sys;
    DurabilityOptions options;
    options.data_dir = ref_full_dir;
    options.fsync = FsyncPolicy::kAlways;
    ASSERT_TRUE(sys.EnableDurability(options).ok());
    size_t acked = 0;
    ASSERT_TRUE(RunEpisode(&sys, /*with_checkpoints=*/false, &acked).ok());
    ASSERT_TRUE(sys.CloseDurability().ok());
  }
  std::vector<std::string> prefix_digests =
      MakeReferenceDigests(ref_full_dir, TempDir("torture_scratch"));
  ASSERT_FALSE(prefix_digests.empty());
  ASSERT_FALSE(::testing::Test::HasFailure());

  // Crash sites: every file-I/O and WAL-layer fault point, swept across hit
  // indexes so the same site crashes at different records / bytes. Together
  // these cover append, group-commit flush, checkpoint write, rename, and
  // replay with > 50 distinct injection points.
  std::vector<CrashSite> sites;
  for (uint64_t k = 0; k < 10; ++k) sites.push_back({"io.file.short_write", k});
  for (uint64_t k = 0; k < 10; ++k) sites.push_back({"io.file.write", k});
  for (uint64_t k = 0; k < 10; ++k) sites.push_back({"io.file.fsync", k});
  for (uint64_t k = 0; k < 10; ++k) sites.push_back({"wal.append", k});
  for (uint64_t k = 0; k < 3; ++k) sites.push_back({"io.file.open", k});
  sites.push_back({"wal.open", 0});
  for (uint64_t k = 0; k < 2; ++k) {
    sites.push_back({"wal.checkpoint.encode", k});
    sites.push_back({"wal.checkpoint.write", k});
    sites.push_back({"io.file.rename", k});
    sites.push_back({"io.dir.fsync", k});
    sites.push_back({"wal.reset.truncate", k});
    sites.push_back({"io.file.truncate", k});
  }

  size_t crashes_induced = 0;
  for (const CrashSite& site : sites) {
    std::string crash_dir =
        TempDir("torture_" + std::string(site.site) + "_" +
                std::to_string(site.skip_first));
    size_t acked = 0;
    std::string last_acked_digest;
    bool fired = RunCrashingEpisode(crash_dir, site, &acked,
                                    &last_acked_digest);
    if (fired) ++crashes_induced;

    // Restart on the same data dir; recovery must always succeed.
    AgentFirstSystem recovered;
    DurabilityOptions options;
    options.data_dir = crash_dir;
    Status enabled = recovered.EnableDurability(options);
    ASSERT_TRUE(enabled.ok())
        << site.site << " skip=" << site.skip_first << ": "
        << enabled.ToString();
    std::string digest = Canonical(&recovered);
    auto it = std::find(prefix_digests.begin(), prefix_digests.end(), digest);
    ASSERT_NE(it, prefix_digests.end())
        << site.site << " skip=" << site.skip_first
        << ": recovered state is not any committed prefix of the reference";
    // No silent loss: everything acknowledged before the crash is included.
    // (The recovered state may extend past the last ack — records written
    // but not yet acknowledged are legitimately replayed.)
    auto acked_it = std::find(prefix_digests.begin(), prefix_digests.end(),
                              last_acked_digest);
    ASSERT_NE(acked_it, prefix_digests.end())
        << site.site << " skip=" << site.skip_first;
    EXPECT_GE(it - prefix_digests.begin(), acked_it - prefix_digests.begin())
        << site.site << " skip=" << site.skip_first
        << ": acknowledged data lost";
  }
  // The acceptance floor: >= 50 distinct (site, hit-index) crash points
  // actually induced a crash.
  EXPECT_GE(crashes_induced, 50u);
}

TEST(WalCrashTorture, CrashDuringRecoveryIsRetryable) {
  // Build one crashed dir (short write at record 5).
  std::string crash_dir = TempDir("recover_crash");
  size_t acked = 0;
  std::string last_acked_digest;
  (void)RunCrashingEpisode(crash_dir, {"io.file.short_write", 5}, &acked,
                           &last_acked_digest);

  // Baseline: what a clean recovery of this dir yields.
  std::string baseline_dir = TempDir("recover_crash_baseline");
  SnapshotDataDir(crash_dir, baseline_dir);
  std::string baseline_digest;
  {
    AgentFirstSystem sys;
    DurabilityOptions options;
    options.data_dir = baseline_dir;
    ASSERT_TRUE(sys.EnableDurability(options).ok());
    baseline_digest = Canonical(&sys);
  }

  // Now crash recovery itself at a sweep of points, then retry cleanly.
  std::vector<CrashSite> recovery_sites;
  recovery_sites.push_back({"wal.recover.open", 0});
  for (uint64_t k = 0; k < 2; ++k) recovery_sites.push_back({"io.file.read", k});
  for (uint64_t k = 0; k < 6; ++k) {
    recovery_sites.push_back({"wal.recover.replay_record", k});
  }
  for (const CrashSite& site : recovery_sites) {
    std::string dir = TempDir("recover_crash_" + std::string(site.site) + "_" +
                              std::to_string(site.skip_first));
    SnapshotDataDir(crash_dir, dir);
    FaultRegistry::Global().ClearArmed();
    FaultRegistry::Global().Enable(0x5EED);
    FaultSpec spec;
    spec.max_fires = 1;
    spec.skip_first = site.skip_first;
    FaultRegistry::Global().Arm(site.site, spec);
    {
      AgentFirstSystem sys;
      DurabilityOptions options;
      options.data_dir = dir;
      Status enabled = sys.EnableDurability(options);
      // When the armed fault actually fired, recovery must have surfaced the
      // error (faults that never fired — skip_first beyond the hit count —
      // leave recovery untouched).
      if (FaultRegistry::Global().fired(site.site) > 0) {
        EXPECT_FALSE(enabled.ok()) << site.site << " skip=" << site.skip_first;
      }
    }
    FaultRegistry::Global().ClearArmed();
    FaultRegistry::Global().Disable();
    // Retry without faults: recovery is idempotent and lossless.
    AgentFirstSystem sys;
    DurabilityOptions options;
    options.data_dir = dir;
    Status enabled = sys.EnableDurability(options);
    ASSERT_TRUE(enabled.ok()) << site.site << ": " << enabled.ToString();
    EXPECT_EQ(Canonical(&sys), baseline_digest) << site.site;
  }
}

}  // namespace
}  // namespace wal
}  // namespace agentfirst

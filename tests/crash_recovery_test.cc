// LaserDB-level crash-recovery tests: the FaultInjectionEnv semantics the
// crash driver (tests/crash_harness.h) assumes; three of its four scripts
// (six phases under every WalSyncPolicy, four writers sharing group
// commits, cross-shard two-phase commit), each killed at every mutating
// filesystem operation and, for two of them, at every operation of a
// recovery; and transient I/O errors.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "laser/laser_db.h"
#include "laser/sharded_laser_db.h"
#include "tests/crash_harness.h"
#include "tests/test_util.h"
#include "util/env_fault.h"

namespace laser {
namespace {

using test::CountOps;
using test::CrashDriver;
using test::CrashOutcome;
using test::CrashProfile;
using test::CrashTreeOptions;
using test::FirstOp;
using test::HasSuffix;
using test::kCrashColumns;
using test::Model;
using test::OpKind;
using test::PhaseSpan;

// ---------------------------------------------------------------------------
// FaultInjectionEnv semantics (pinned so the harness's assumptions hold).
// ---------------------------------------------------------------------------

TEST(FaultInjectionEnvTest, UnsyncedDataDropsSyncedDataSurvives) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("/f", &file).ok());
  ASSERT_TRUE(file->Append(Slice("durable")).ok());
  ASSERT_TRUE(file->Sync().ok());
  ASSERT_TRUE(file->Append(Slice("+volatile")).ok());
  ASSERT_TRUE(file->Close().ok());

  env.DropUnsyncedData();
  std::string data;
  ASSERT_TRUE(env.ReadFileToString("/f", &data).ok());
  EXPECT_EQ(data, "durable");
}

TEST(FaultInjectionEnvTest, NeverSyncedFileVanishesOnCrash) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("/f", &file).ok());
  ASSERT_TRUE(file->Append(Slice("lost")).ok());
  ASSERT_TRUE(file->Close().ok());  // close without sync is not durable

  env.DropUnsyncedData();
  EXPECT_FALSE(env.FileExists("/f"));
}

TEST(FaultInjectionEnvTest, RecreationWithoutSyncRevertsToOldContent) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());

  ASSERT_TRUE(env.WriteStringToFile(Slice("v1"), "/f", /*sync=*/true).ok());
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("/f", &file).ok());  // truncates, unsynced
  ASSERT_TRUE(file->Append(Slice("v2")).ok());
  ASSERT_TRUE(file->Close().ok());

  env.DropUnsyncedData();
  std::string data;
  ASSERT_TRUE(env.ReadFileToString("/f", &data).ok());
  EXPECT_EQ(data, "v1");
}

TEST(FaultInjectionEnvTest, RenameCarriesDurableContent) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());

  ASSERT_TRUE(env.WriteStringToFile(Slice("old"), "/target", /*sync=*/true).ok());
  ASSERT_TRUE(env.WriteStringToFile(Slice("new"), "/tmp", /*sync=*/true).ok());
  ASSERT_TRUE(env.RenameFile("/tmp", "/target").ok());

  env.DropUnsyncedData();
  std::string data;
  ASSERT_TRUE(env.ReadFileToString("/target", &data).ok());
  EXPECT_EQ(data, "new");
  EXPECT_FALSE(env.FileExists("/tmp"));
}

TEST(FaultInjectionEnvTest, CrashAfterOpsKillsEverythingBeyondThreshold) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());

  env.CrashAfterOps(2);  // create + append succeed, sync dies
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("/f", &file).ok());
  ASSERT_TRUE(file->Append(Slice("x")).ok());
  EXPECT_FALSE(file->Sync().ok());
  EXPECT_TRUE(env.killed());
  EXPECT_FALSE(file->Append(Slice("y")).ok());
  std::unique_ptr<WritableFile> other;
  EXPECT_FALSE(env.NewWritableFile("/g", &other).ok());
  EXPECT_EQ(env.mutating_ops(), 2u);  // the killed ops were never admitted

  env.ClearFaults();
  EXPECT_TRUE(env.NewWritableFile("/g", &other).ok());
}

TEST(FaultInjectionEnvTest, FailOperationIsOneShot) {
  auto base = NewMemEnv();
  FaultInjectionEnv env(base.get());

  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env.NewWritableFile("/f", &file).ok());
  env.FailOperation(0);
  EXPECT_FALSE(file->Append(Slice("rejected")).ok());
  EXPECT_FALSE(env.killed());
  ASSERT_TRUE(file->Append(Slice("accepted")).ok());
  ASSERT_TRUE(file->Sync().ok());

  env.DropUnsyncedData();
  std::string data;
  ASSERT_TRUE(env.ReadFileToString("/f", &data).ok());
  EXPECT_EQ(data, "accepted");  // the rejected append never hit the file
}

// ---------------------------------------------------------------------------
// The six-phase script, over every WalSyncPolicy.
// ---------------------------------------------------------------------------

/// WAL appends, a flush, overwrites/partial updates/tombstones/fresh inserts,
/// a second flush (L0 now exceeds its trigger), column-group compactions,
/// and writes on the compacted tree. Each phase is named in the outcome.
CrashOutcome SixPhaseScript(LaserDB* db, const FaultInjectionEnv& env) {
  CrashOutcome out(env);
  for (uint64_t key = 1; key <= 24; ++key) {
    if (!out.Insert(db, key)) return out;
  }
  out.EndPhase("wal-append-1", env);

  // Memtable flush + manifest install + old-WAL delete.
  if (!db->Flush().ok()) return out;
  out.EndPhase("flush-1", env);

  for (uint64_t key = 1; key <= 8; ++key) {
    if (!out.Update(db, key, {{2, key * 1000 + 2}})) return out;
  }
  for (uint64_t key = 9; key <= 12; ++key) {
    if (!out.Update(db, key, {{1, key * 1000 + 1}, {4, key * 1000 + 4}})) return out;
  }
  for (uint64_t key = 21; key <= 24; ++key) {
    if (!out.Delete(db, key)) return out;
  }
  for (uint64_t key = 25; key <= 40; ++key) {
    if (!out.Insert(db, key)) return out;
  }
  out.EndPhase("wal-append-2", env);

  if (!db->Flush().ok()) return out;
  out.EndPhase("flush-2", env);

  // Column-group compactions (L0 -> CG levels) + manifest installs +
  // obsolete-file deletes.
  if (!db->CompactUntilStable().ok()) return out;
  out.EndPhase("compaction", env);

  for (uint64_t key = 41; key <= 48; ++key) {
    if (!out.Insert(db, key)) return out;
  }
  if (!out.Update(db, 3, {{3, 3303}})) return out;
  if (!out.Delete(db, 40)) return out;
  out.EndPhase("wal-append-3", env);

  out.completed = true;
  return out;
}

/// The unfaulted run covers all four crash sites: WAL appends, memtable
/// flushes, manifest installs (the only renames) and CG compactions.
void ExpectSixPhaseOps(const CrashProfile& profile, WalSyncPolicy policy) {
  EXPECT_GT(profile.history.size(), 100u);
  auto count = [&](const std::string& phase, OpKind kind, const std::string& suffix) {
    const PhaseSpan* span = profile.outcome.Phase(phase);
    EXPECT_NE(span, nullptr) << "phase " << phase << " missing";
    if (span == nullptr) return size_t{0};
    return CountOps(profile.history, span->begin, span->end, kind, suffix);
  };
  EXPECT_GT(count("wal-append-1", OpKind::kAppend, ".wal"), 0u);
  // Acked == durable policies, and only they, fsync inside the write path.
  EXPECT_EQ(count("wal-append-1", OpKind::kSync, ".wal") > 0,
            test::AckedIsDurable(policy));
  for (const char* phase : {"flush-1", "flush-2", "compaction"}) {
    EXPECT_GT(count(phase, OpKind::kSync, ".sst"), 0u) << phase;
    EXPECT_GT(count(phase, OpKind::kRename, "MANIFEST.tmp"), 0u)
        << phase << " saw no manifest install";
  }
  EXPECT_GT(count("compaction", OpKind::kRemove, ".sst"), 0u)
      << "compaction deleted no obsolete files";
}

/// What the driver relies on in a run's op stream: the op index of every
/// manifest rename, and per phase, the count of each kind of op.
std::map<std::string, size_t> StreamShape(const CrashProfile& profile) {
  std::map<std::string, size_t> shape;
  for (uint64_t i = 0; i < profile.history.size(); ++i) {
    if (profile.history[i].kind == OpKind::kRename) {
      ++shape["rename@" + std::to_string(i)];
    }
  }
  for (const PhaseSpan& span : profile.outcome.phases) {
    for (uint64_t i = span.begin; i < span.end; ++i) {
      const int kind = static_cast<int>(profile.history[i].kind);
      ++shape[span.name + "/" + std::to_string(kind)];
    }
  }
  return shape;
}

class CrashMatrixTest : public ::testing::TestWithParam<WalSyncPolicy> {};

TEST_P(CrashMatrixTest, CrashAtEveryFilesystemOperation) {
  const WalSyncPolicy policy = GetParam();
  CrashDriver<LaserDB> driver(SixPhaseScript, CrashTreeOptions(policy));
  driver.on_profile = [policy](LaserDB*, const CrashProfile& profile) {
    ExpectSixPhaseOps(profile, policy);
  };
  // Two unfaulted runs agree on what the driver relies on.
  CrashProfile second;
  ASSERT_NO_FATAL_FAILURE(driver.RunUnfaulted(&second));
  EXPECT_EQ(StreamShape(driver.Profile()), StreamShape(second));

  driver.CrashAtEveryOp();
}

INSTANTIATE_TEST_SUITE_P(
    AllSyncPolicies, CrashMatrixTest,
    ::testing::Values(WalSyncPolicy::kSyncEveryWrite, WalSyncPolicy::kSyncEveryGroup,
                      WalSyncPolicy::kSyncIntervalMs, WalSyncPolicy::kNoSync),
    [](const ::testing::TestParamInfo<WalSyncPolicy>& info) {
      switch (info.param) {
        case WalSyncPolicy::kSyncEveryWrite:
          return "SyncEveryWrite";
        case WalSyncPolicy::kSyncEveryGroup:
          return "SyncEveryGroup";
        case WalSyncPolicy::kSyncIntervalMs:
          return "SyncIntervalMs";
        case WalSyncPolicy::kNoSync:
          return "NoSync";
      }
      return "Unknown";
    });

// Crash once mid-compaction (at its first manifest install), then crash
// again at every operation of the recovery itself.
TEST(CrashRecoveryTest, CrashDuringRecoveryAfterCrash) {
  CrashDriver<LaserDB> driver(SixPhaseScript, CrashTreeOptions());
  const CrashProfile& profile = driver.Profile();
  const PhaseSpan* compaction = profile.outcome.Phase("compaction");
  ASSERT_NE(compaction, nullptr);
  driver.CrashRecoveryAtEveryOp(
      FirstOp(profile.history, compaction->begin, OpKind::kRename, ""));
}

// ---------------------------------------------------------------------------
// The four-writer group-commit script: concurrent writers' batches share
// coalesced WAL records.
// ---------------------------------------------------------------------------

TEST(GroupCommitCrashTest, MultiWriterCrashAtEveryOperation) {
  constexpr int kWriters = 4;
  constexpr int kWritesPerWriter = 10;
  std::atomic<int> entered{0};  // writers that reached their first Insert
  std::atomic<bool> held{false};

  // Each writer inserts its own key range and stops at its first failure.
  // kSyncEveryGroup acks only after the group's fsync, so the acknowledged
  // prefixes are exactly what must survive: a torn coalesced record drops
  // whole, and an unsynced tail acks no one.
  auto key_of = [](int t, int i) { return uint64_t{1} + t * kWritesPerWriter + i; };
  auto writers = [&](LaserDB* db, const FaultInjectionEnv&) {
    entered = 0;
    held = false;
    std::array<int, kWriters> acked{};
    std::vector<std::thread> threads;
    for (int t = 0; t < kWriters; ++t) {
      threads.emplace_back([&, t] {
        entered.fetch_add(1);
        for (int i = 0; i < kWritesPerWriter; ++i) {
          const uint64_t key = key_of(t, i);
          if (!db->Insert(key, test::TestRow(key, kCrashColumns)).ok()) break;
          acked[t] = i + 1;
        }
      });
    }
    for (auto& thread : threads) thread.join();
    CrashOutcome out;
    out.completed = true;
    for (int t = 0; t < kWriters; ++t) {
      for (int i = 0; i < acked[t]; ++i) {
        out.model.Insert(key_of(t, i), test::TestRow(key_of(t, i), kCrashColumns));
      }
      out.completed &= acked[t] == kWritesPerWriter;
    }
    return out;
  };

  CrashDriver<LaserDB> driver(writers, CrashTreeOptions(WalSyncPolicy::kSyncEveryGroup));
  // The op count depends on the schedule: a crash after op k may come after
  // a run's last op, and that run completes.
  driver.deterministic = false;
  // The first WAL sync of the writers is held until all of them have entered
  // Insert, and a moment longer, as a slow disk would: the others then queue
  // behind that leader and the next group coalesces them, on any schedule.
  driver.profile_sync_hook = [&](const std::string& fname) {
    if (!HasSuffix(fname, ".wal") || entered.load() == 0 || held.exchange(true)) return;
    while (entered.load() < kWriters) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  driver.on_profile = [&](LaserDB* db, const CrashProfile& profile) {
    EXPECT_TRUE(held.load());
    // Strictly fewer commit groups than writes: some group carried several
    // writers' batches.
    EXPECT_LT(db->stats().wal_group_commits.load(),
              static_cast<uint64_t>(kWriters * kWritesPerWriter));
    EXPECT_GT(profile.history.size(), 20u);
  };
  driver.CrashAtEveryOp();
}

// ---------------------------------------------------------------------------
// The cross-shard two-phase-commit script: cross-shard WriteBatches prepare
// on every touched shard and commit with a record in txn.log. Recovery is
// all-or-nothing per batch: an acknowledged batch is visible on both shards,
// an unacknowledged one on neither (presumed abort).
// ---------------------------------------------------------------------------

/// Single writer: cross-shard batches (shard 0 owns keys < 32, shard 1 the
/// rest) interleaved with routed singles and a flush, under kSyncEveryWrite
/// (a prepare and the commit record are fsynced under any policy).
CrashOutcome CrossShardScript(ShardedLaserDB* db, const FaultInjectionEnv& env) {
  CrashOutcome out(env);

  // Cross-shard inserts, one key per side.
  for (uint64_t j = 0; j < 6; ++j) {
    WriteBatch batch;
    batch.Insert(1 + j, test::TestRow(1 + j, kCrashColumns));
    batch.Insert(33 + j, test::TestRow(33 + j, kCrashColumns));
    if (!out.Write(db, batch)) return out;
  }

  // Routed single-key writes ride each shard's ordinary group commit.
  for (uint64_t key : {12, 13, 44}) {
    if (!out.Insert(db, key)) return out;
  }

  // A mixed cross-shard batch: update + tombstone + fresh inserts.
  {
    WriteBatch batch;
    batch.Update(1, {{2, 9002}});
    batch.Delete(33);
    batch.Insert(20, test::TestRow(20, kCrashColumns));
    batch.Insert(50, test::TestRow(50, kCrashColumns));
    if (!out.Write(db, batch)) return out;
  }

  // Flush both shards (memtable -> L0, manifest install, WAL delete), then
  // commit more cross-shard batches on the flushed tree.
  if (!db->Flush().ok()) return out;
  for (uint64_t j = 0; j < 3; ++j) {
    WriteBatch batch;
    batch.Insert(24 + j, test::TestRow(24 + j, kCrashColumns));
    batch.Insert(54 + j, test::TestRow(54 + j, kCrashColumns));
    batch.Update(34 + j, {{4, 7000 + j}});
    if (!out.Write(db, batch)) return out;
  }

  out.completed = true;
  return out;
}

TEST(ShardedCrashMatrixTest, CrossShardBatchesAtomicAtEveryOperation) {
  CrashDriver<ShardedLaserDB> driver(CrossShardScript, CrashTreeOptions());
  // The run exercises the protocol: prepared-group WAL syncs and commit
  // records.
  driver.on_profile = [](ShardedLaserDB*, const CrashProfile& profile) {
    const uint64_t end = profile.history.size();
    const size_t txn_syncs = CountOps(profile.history, 0, end, OpKind::kSync, "txn.log");
    const size_t wal_syncs = CountOps(profile.history, 0, end, OpKind::kSync, ".wal");
    EXPECT_EQ(txn_syncs, 10u);  // one commit point per cross-shard batch
    // Two forced prepare syncs per cross-shard batch plus the routed singles.
    EXPECT_GE(wal_syncs, 2 * txn_syncs + 3);
    EXPECT_GT(end, 50u);
  };
  driver.CrashAtEveryOp();
}

// Crash exactly at the commit point (the first coordinator-log append): both
// shards hold a durable prepared fragment with no commit record. Then crash
// the recovery itself at every operation: the undecided fragments must never
// surface, however recovery is interrupted (presumed abort is idempotent).
TEST(ShardedCrashMatrixTest, RecoveryWithUndecidedPreparedBatchIsIdempotent) {
  CrashDriver<ShardedLaserDB> driver(CrossShardScript, CrashTreeOptions());
  const uint64_t first_txn_append =
      FirstOp(driver.Profile().history, 0, OpKind::kAppend, "txn.log");
  ASSERT_GT(first_txn_append, 0u);
  driver.CrashRecoveryAtEveryOp(first_txn_append);
}

// ---------------------------------------------------------------------------
// Transient I/O errors (no crash): the engine must fail safe.
// ---------------------------------------------------------------------------

// A failed WAL sync leaves an unacknowledged record in the log tail. If the
// engine kept writing, the next successful sync would make that record
// durable and it would resurrect on replay — so the engine must go
// read-only. The poisoning must hold under both acked==durable policies
// (with one scripted writer, kSyncEveryGroup issues the same append+sync
// sequence as kSyncEveryWrite).
TEST(CrashRecoveryTest, WalSyncFailurePoisonsWrites) {
  for (WalSyncPolicy policy :
       {WalSyncPolicy::kSyncEveryWrite, WalSyncPolicy::kSyncEveryGroup}) {
    SCOPED_TRACE(policy == WalSyncPolicy::kSyncEveryWrite ? "kSyncEveryWrite"
                                                          : "kSyncEveryGroup");
    auto base = NewMemEnv();
    FaultInjectionEnv fault(base.get());
    LaserOptions options = CrashTreeOptions(policy);
    options.env = &fault;
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(options, &db).ok());

    ASSERT_TRUE(db->Insert(1, test::TestRow(1, kCrashColumns)).ok());

    // Each write is append (op +0) then sync (op +1): fail the next sync.
    fault.FailOperation(1);
    EXPECT_FALSE(db->Insert(2, test::TestRow(2, kCrashColumns)).ok());
    // Poisoned: later writes must not be accepted (their sync would have
    // made the failed record durable).
    EXPECT_FALSE(db->Insert(3, test::TestRow(3, kCrashColumns)).ok());
    // Reads still work.
    LaserDB::ReadResult result;
    const ColumnSet all = MakeColumnRange(1, kCrashColumns);
    ASSERT_TRUE(db->Read(1, all, &result).ok());
    EXPECT_TRUE(result.found);

    db.reset();
    fault.DropUnsyncedData();
    fault.ClearFaults();
    ASSERT_TRUE(LaserDB::Open(options, &db).ok());

    Model model;
    model.Insert(1, test::TestRow(1, kCrashColumns));
    test::ExpectHoldsModel(db.get(), model);
  }
}

// A flush whose SST sync fails must not delete the WAL; a reopen recovers
// every acknowledged write from it.
TEST(CrashRecoveryTest, FlushSyncFailureKeepsWalForRecovery) {
  // Profile the op offset of the flush's first SST sync.
  uint64_t sst_sync_offset = 0;
  {
    auto base = NewMemEnv();
    FaultInjectionEnv fault(base.get());
    LaserOptions options = CrashTreeOptions();
    options.env = &fault;
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(options, &db).ok());
    for (uint64_t key = 1; key <= 10; ++key) {
      ASSERT_TRUE(db->Insert(key, test::TestRow(key, kCrashColumns)).ok());
    }
    const uint64_t before = fault.mutating_ops();
    ASSERT_TRUE(db->Flush().ok());
    const auto history = fault.history();
    for (uint64_t i = before; i < history.size(); ++i) {
      if (history[i].kind == OpKind::kSync && HasSuffix(history[i].fname, ".sst")) {
        sst_sync_offset = i - before;
        break;
      }
    }
    ASSERT_GT(sst_sync_offset, 0u);
  }

  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get());
  LaserOptions options = CrashTreeOptions();
  options.env = &fault;
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  Model model;
  for (uint64_t key = 1; key <= 10; ++key) {
    ASSERT_TRUE(db->Insert(key, test::TestRow(key, kCrashColumns)).ok());
    model.Insert(key, test::TestRow(key, kCrashColumns));
  }
  fault.FailOperation(sst_sync_offset);
  EXPECT_FALSE(db->Flush().ok());
  // The background error poisons writes.
  EXPECT_FALSE(db->Insert(11, test::TestRow(11, kCrashColumns)).ok());

  db.reset();
  fault.DropUnsyncedData();
  fault.ClearFaults();
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  test::ExpectHoldsModel(db.get(), model);
}

}  // namespace
}  // namespace laser

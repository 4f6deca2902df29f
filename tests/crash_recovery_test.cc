// LaserDB-level crash-recovery tests: a deterministic scripted workload is
// killed at every mutating filesystem operation (WAL appends/syncs, SST
// flush writes, MANIFEST tmp-write + rename installs, compaction outputs and
// obsolete-file deletes), the durable image is restored, and the reopened
// database must hold exactly the acknowledged writes — nothing lost, nothing
// resurrected. Also covers crash-during-recovery and transient I/O errors.

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
#include "tests/recovery_harness.h"
#include "tests/test_util.h"
#include "util/env_fault.h"

namespace laser {
namespace {

using test::Model;
using test::PhaseSpan;
using test::RecoveryHarness;
using test::ScriptOutcome;
using OpKind = FaultInjectionEnv::OpKind;
using OpRecord = FaultInjectionEnv::OpRecord;

bool HasSuffix(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

size_t CountOps(const std::vector<OpRecord>& history, const PhaseSpan& span,
                OpKind kind, const std::string& suffix) {
  size_t count = 0;
  for (uint64_t i = span.begin; i < span.end && i < history.size(); ++i) {
    if (history[i].kind == kind && HasSuffix(history[i].fname, suffix)) ++count;
  }
  return count;
}

const PhaseSpan& FindPhase(const ScriptOutcome& outcome, const std::string& name) {
  for (const PhaseSpan& span : outcome.phases) {
    if (span.name == name) return span;
  }
  ADD_FAILURE() << "phase " << name << " missing";
  static PhaseSpan empty;
  return empty;
}

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
// The crash matrix, over every WalSyncPolicy.
// ---------------------------------------------------------------------------

class CrashMatrixTest : public ::testing::TestWithParam<WalSyncPolicy> {};

TEST_P(CrashMatrixTest, CrashAtEveryFilesystemOperation) {
  const WalSyncPolicy policy = GetParam();

  // Profiling run: no faults, script must complete; record the op stream.
  uint64_t total_ops = 0;
  std::vector<OpRecord> history;
  ScriptOutcome baseline;
  {
    RecoveryHarness harness(policy);
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    baseline = harness.RunScript(db.get());
    ASSERT_TRUE(baseline.completed);
    test::RecoveryHarness::VerifyMatchesModel(db.get(), baseline.model);
    // Capture the op count before the destructor's own close/cleanup ops:
    // the matrix below asserts every enumerated index crashes the *script*.
    total_ops = harness.fault_env()->mutating_ops();
    history = harness.fault_env()->history();
  }
  ASSERT_GT(total_ops, 100u);

  // The matrix must cover all four crash sites: WAL appends, memtable
  // flushes, manifest installs (the only renames), and CG compactions.
  const PhaseSpan& wal1 = FindPhase(baseline, "wal-append-1");
  EXPECT_GT(CountOps(history, wal1, OpKind::kAppend, ".wal"), 0u);
  if (policy == WalSyncPolicy::kSyncEveryWrite ||
      policy == WalSyncPolicy::kSyncEveryGroup) {
    // Acked == durable policies fsync inside the write path itself.
    EXPECT_GT(CountOps(history, wal1, OpKind::kSync, ".wal"), 0u);
  } else {
    EXPECT_EQ(CountOps(history, wal1, OpKind::kSync, ".wal"), 0u);
  }
  for (const char* phase : {"flush-1", "flush-2", "compaction"}) {
    const PhaseSpan& span = FindPhase(baseline, phase);
    EXPECT_GT(CountOps(history, span, OpKind::kSync, ".sst"), 0u) << phase;
    EXPECT_GT(CountOps(history, span, OpKind::kRename, "MANIFEST.tmp"), 0u)
        << phase << " saw no manifest install";
  }
  const PhaseSpan& compaction = FindPhase(baseline, "compaction");
  EXPECT_GT(CountOps(history, compaction, OpKind::kRemove, ".sst"), 0u)
      << "compaction deleted no obsolete files";

  // Crash at every op index (0 = the very first CreateDir of Open). Each
  // iteration replays the same deterministic prefix, dies, reboots, and the
  // reopened DB must hold exactly the acknowledged state (sync policies) or
  // a clean prefix of it (interval / no-sync policies).
  for (uint64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("crash after op " + std::to_string(k));
    RecoveryHarness harness(policy);
    harness.fault_env()->CrashAfterOps(k);

    ScriptOutcome outcome;
    {
      std::unique_ptr<LaserDB> db;
      if (harness.Open(&db).ok()) {
        outcome = harness.RunScript(db.get());
      }
    }
    EXPECT_FALSE(outcome.completed);  // every k < total_ops crashes somewhere

    harness.fault_env()->DropUnsyncedData();
    harness.fault_env()->ClearFaults();
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    if (harness.acked_is_durable()) {
      test::RecoveryHarness::VerifyMatchesModel(db.get(), outcome.model);
    } else {
      test::RecoveryHarness::VerifyMatchesSomeSnapshot(db.get(), outcome.snapshots);
    }
  }
}

// Two profiling runs of the script agree on what the harness promises: the
// op index of every manifest rename, and per phase, the count of each kind
// of op.
TEST_P(CrashMatrixTest, ProfilingRunsAgreeOnRenamesAndPhaseOpCounts) {
  auto profile = [&](std::vector<uint64_t>* renames,
                     std::map<std::string, size_t>* phase_counts) {
    RecoveryHarness harness(GetParam());
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    const ScriptOutcome outcome = harness.RunScript(db.get());
    ASSERT_TRUE(outcome.completed);
    const std::vector<OpRecord> history = harness.fault_env()->history();
    for (uint64_t i = 0; i < history.size(); ++i) {
      if (history[i].kind == OpKind::kRename) renames->push_back(i);
    }
    for (const PhaseSpan& span : outcome.phases) {
      for (uint64_t i = span.begin; i < span.end; ++i) {
        const int kind = static_cast<int>(history[i].kind);
        ++(*phase_counts)[span.name + "/" + std::to_string(kind)];
      }
    }
  };
  std::vector<uint64_t> renames_a, renames_b;
  std::map<std::string, size_t> counts_a, counts_b;
  profile(&renames_a, &counts_a);
  profile(&renames_b, &counts_b);
  EXPECT_FALSE(renames_a.empty());
  EXPECT_EQ(renames_a, renames_b);
  EXPECT_EQ(counts_a, counts_b);
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

// ---------------------------------------------------------------------------
// Multi-writer group commit under crash: concurrent writers' batches share
// coalesced WAL records; kill the filesystem at every operation index.
// ---------------------------------------------------------------------------

TEST(GroupCommitCrashTest, MultiWriterCrashAtEveryOperation) {
  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 10;
  constexpr int kColumns = RecoveryHarness::kColumns;

  auto make_options = [](Env* env) {
    LaserOptions options;
    options.env = env;
    options.path = "/db";
    options.schema = Schema::UniformInt32(kColumns);
    options.num_levels = 4;
    options.cg_config = CgConfig::EquiWidth(kColumns, 4, 2);
    options.write_buffer_size = 1 << 20;  // no rotation mid-run
    options.background_threads = 1;
    options.disable_auto_compactions = true;
    options.wal_sync_policy = WalSyncPolicy::kSyncEveryGroup;
    return options;
  };
  auto key_of = [](int t, int i) { return 1000u * (t + 1) + i; };

  // Each thread inserts its own key range and stops at its first failure;
  // acked[t] counts its acknowledged prefix. `entered`, when given, counts
  // the threads that have reached their first Insert.
  auto run_writers = [&](LaserDB* db, std::array<int, kThreads>* acked,
                         std::atomic<int>* entered = nullptr) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, db] {
        if (entered != nullptr) entered->fetch_add(1);
        for (int i = 0; i < kWritesPerThread; ++i) {
          const uint64_t key = key_of(t, i);
          if (!db->Insert(key, test::TestRow(key, kColumns)).ok()) break;
          (*acked)[t] = i + 1;
        }
      });
    }
    for (auto& thread : threads) thread.join();
  };

  // Profile an unfaulted run for the op-index upper bound. Thread schedules
  // differ run to run, but every faulted run below is killed at op k; runs
  // whose schedule finishes in fewer than k ops simply complete, which the
  // per-key checks handle.
  uint64_t total_ops = 0;
  {
    auto base = NewMemEnv();
    FaultInjectionEnv fault(base.get());
    // The first WAL sync of the writers is held until all of them have
    // entered Insert, and a moment longer, as a slow disk would: the others
    // then queue behind that leader and the next group coalesces them, on
    // any thread schedule.
    std::atomic<int> entered{0};
    std::atomic<bool> held{false};
    test::SyncHookEnv env(&fault, [&](const std::string& fname) {
      if (!HasSuffix(fname, ".wal") || entered.load() == 0 || held.exchange(true)) {
        return;
      }
      while (entered.load() < kThreads) std::this_thread::yield();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(make_options(&env), &db).ok());
    std::array<int, kThreads> acked{};
    run_writers(db.get(), &acked, &entered);
    EXPECT_TRUE(held.load());
    for (int t = 0; t < kThreads; ++t) ASSERT_EQ(acked[t], kWritesPerThread);
    // Grouping must actually have happened at least once for this test to
    // mean anything: strictly fewer commit groups than writes means some
    // group carried several writers' batches.
    EXPECT_LT(db->stats().wal_group_commits.load(),
              static_cast<uint64_t>(kThreads * kWritesPerThread));
    total_ops = fault.mutating_ops();
  }
  ASSERT_GT(total_ops, 20u);

  for (uint64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("crash after op " + std::to_string(k));
    auto base = NewMemEnv();
    FaultInjectionEnv fault(base.get());
    fault.CrashAfterOps(k);
    std::array<int, kThreads> acked{};
    {
      std::unique_ptr<LaserDB> db;
      if (LaserDB::Open(make_options(&fault), &db).ok()) {
        run_writers(db.get(), &acked);
      }
    }
    fault.DropUnsyncedData();
    fault.ClearFaults();
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(make_options(&fault), &db).ok());
    // kSyncEveryGroup acks only after the group's fsync: every acked write
    // must survive; every unacked write must be gone (a torn coalesced
    // record drops whole, and unsynced tails never ack anyone).
    const ColumnSet all = MakeColumnRange(1, kColumns);
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kWritesPerThread; ++i) {
        LaserDB::ReadResult result;
        ASSERT_TRUE(db->Read(key_of(t, i), all, &result).ok());
        if (i < acked[t]) {
          EXPECT_TRUE(result.found)
              << "acked write lost: thread " << t << " write " << i;
        } else {
          EXPECT_FALSE(result.found)
              << "unacked write resurrected: thread " << t << " write " << i;
        }
      }
    }
  }
}

// Crash once mid-compaction (at the manifest install), then crash again at
// every operation of the *recovery* itself, and require the third, clean
// recovery to still land on the acknowledged state: recovery must be
// idempotent.
TEST(CrashRecoveryTest, CrashDuringRecoveryAfterCrash) {
  // Locate the compaction phase's first manifest install in a profiling run.
  uint64_t first_crash = 0;
  {
    RecoveryHarness harness;
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    ScriptOutcome baseline = harness.RunScript(db.get());
    ASSERT_TRUE(baseline.completed);
    db.reset();
    const PhaseSpan& span = FindPhase(baseline, "compaction");
    const auto history = harness.fault_env()->history();
    for (uint64_t i = span.begin; i < span.end; ++i) {
      if (history[i].kind == OpKind::kRename) {
        first_crash = i;
        break;
      }
    }
    ASSERT_GT(first_crash, 0u);
  }

  // First crash; keep the durable image and the acknowledged model.
  RecoveryHarness harness;
  harness.fault_env()->CrashAfterOps(first_crash);
  ScriptOutcome outcome;
  {
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    outcome = harness.RunScript(db.get());
    EXPECT_FALSE(outcome.completed);
  }
  harness.fault_env()->DropUnsyncedData();
  const FaultInjectionEnv::DurableState image =
      harness.fault_env()->SnapshotDurableState();

  // Profile how many ops one clean recovery performs from this image.
  harness.fault_env()->ClearFaults();
  const uint64_t before = harness.fault_env()->mutating_ops();
  {
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    test::RecoveryHarness::VerifyMatchesModel(db.get(), outcome.model);
  }
  const uint64_t recovery_ops = harness.fault_env()->mutating_ops() - before;
  ASSERT_GT(recovery_ops, 0u);

  // Second crash at every recovery op, then a clean third recovery.
  for (uint64_t j = 0; j < recovery_ops; ++j) {
    SCOPED_TRACE("second crash after recovery op " + std::to_string(j));
    harness.fault_env()->RestoreDurableState(image);
    harness.fault_env()->ClearFaults();
    harness.fault_env()->CrashAfterOps(j);
    {
      std::unique_ptr<LaserDB> db;
      harness.Open(&db);  // usually fails mid-recovery; either way we crash
    }
    harness.fault_env()->DropUnsyncedData();
    harness.fault_env()->ClearFaults();
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    test::RecoveryHarness::VerifyMatchesModel(db.get(), outcome.model);
  }
}

// ---------------------------------------------------------------------------
// Sharded crash matrix: cross-shard WriteBatches through the two-phase
// coordinator (prepare on every touched shard, commit record in txn.log),
// killed at every filesystem operation. Recovery must be all-or-nothing per
// batch: acknowledged batches fully visible on both shards, unacknowledged
// ones fully invisible (presumed abort) — never a half-applied batch.
// ---------------------------------------------------------------------------

class ShardedCrashHarness {
 public:
  static constexpr int kColumns = RecoveryHarness::kColumns;
  static constexpr uint64_t kMaxKey = RecoveryHarness::kMaxKey;  // split at 32

  ShardedCrashHarness() : base_(NewMemEnv()), fault_(base_.get()) {}

  FaultInjectionEnv* fault_env() { return &fault_; }

  ShardedLaserOptions MakeOptions() {
    ShardedLaserOptions options;
    LaserOptions& base = options.base;
    base.env = &fault_;
    base.path = "/sharded";
    base.schema = Schema::UniformInt32(kColumns);
    base.num_levels = 4;
    base.size_ratio = 2;
    base.cg_config = CgConfig::EquiWidth(kColumns, 4, 2);
    base.write_buffer_size = 1 << 20;  // never rotates on its own
    base.level0_bytes = 2 * 1024;
    base.level0_file_compaction_trigger = 2;
    base.target_sst_size = 2 * 1024;
    base.block_size = 1024;
    base.background_threads = 1;
    base.disable_auto_compactions = true;
    // Acked == durable: singles fsync per write, prepares force fsync anyway,
    // and the commit record is fsynced by the coordinator — so a crash must
    // preserve exactly the acknowledged model.
    base.wal_sync_policy = WalSyncPolicy::kSyncEveryWrite;
    base.wal_sync_interval_ms = 60 * 60 * 1000;
    options.num_shards = 2;
    options.key_domain = kMaxKey;
    return options;
  }

  Status Open(std::unique_ptr<ShardedLaserDB>* db) {
    return ShardedLaserDB::Open(MakeOptions(), db);
  }

  struct Outcome {
    Model model;  // acknowledged state only
    bool completed = false;
  };

  /// Single-writer deterministic script: cross-shard batches (shard 0 owns
  /// keys < 32, shard 1 the rest) interleaved with routed singles and a
  /// flush. The model advances only on acknowledged ops.
  Outcome RunScript(ShardedLaserDB* db) {
    Outcome out;

    // Cross-shard inserts, one key per side, committed atomically.
    for (uint64_t j = 0; j < 6; ++j) {
      WriteBatch batch;
      batch.Insert(1 + j, test::TestRow(1 + j, kColumns));
      batch.Insert(33 + j, test::TestRow(33 + j, kColumns));
      if (!db->Write(batch).ok()) return out;
      out.model.Apply(batch);
    }

    // Routed single-key writes ride each shard's ordinary group commit.
    for (uint64_t key : {12, 13, 44}) {
      if (!db->Insert(key, test::TestRow(key, kColumns)).ok()) return out;
      out.model.Insert(key, test::TestRow(key, kColumns));
    }

    // A mixed cross-shard batch: update + tombstone + fresh inserts.
    {
      WriteBatch batch;
      batch.Update(1, {{2, 9002}});
      batch.Delete(33);
      batch.Insert(20, test::TestRow(20, kColumns));
      batch.Insert(50, test::TestRow(50, kColumns));
      if (!db->Write(batch).ok()) return out;
      out.model.Apply(batch);
    }

    // Flush both shards (memtable -> L0, manifest install, WAL delete),
    // then commit more cross-shard batches on the flushed tree.
    if (!db->Flush().ok()) return out;
    for (uint64_t j = 0; j < 3; ++j) {
      WriteBatch batch;
      batch.Insert(24 + j, test::TestRow(24 + j, kColumns));
      batch.Insert(54 + j, test::TestRow(54 + j, kColumns));
      batch.Update(34 + j, {{4, 7000 + j}});
      if (!db->Write(batch).ok()) return out;
      out.model.Apply(batch);
    }

    out.completed = true;
    return out;
  }

 private:
  std::unique_ptr<Env> base_;
  FaultInjectionEnv fault_;
};

TEST(ShardedCrashMatrixTest, CrossShardBatchesAtomicAtEveryOperation) {
  // Profiling run: no faults; pin down the op stream and check it actually
  // exercises the protocol (prepared-group WAL syncs, commit records).
  uint64_t total_ops = 0;
  {
    ShardedCrashHarness harness;
    std::unique_ptr<ShardedLaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    ShardedCrashHarness::Outcome outcome = harness.RunScript(db.get());
    ASSERT_TRUE(outcome.completed);
    RecoveryHarness::VerifyMatchesModel(db.get(), outcome.model);
    total_ops = harness.fault_env()->mutating_ops();
    size_t txn_syncs = 0;
    size_t wal_syncs = 0;
    for (const OpRecord& op : harness.fault_env()->history()) {
      if (op.kind == OpKind::kSync && HasSuffix(op.fname, "txn.log")) {
        ++txn_syncs;
      }
      if (op.kind == OpKind::kSync && HasSuffix(op.fname, ".wal")) {
        ++wal_syncs;
      }
    }
    EXPECT_EQ(txn_syncs, 10u);  // one commit point per cross-shard batch
    // Two forced prepare syncs per cross-shard batch plus the routed singles.
    EXPECT_GE(wal_syncs, 2 * txn_syncs + 3);
  }
  ASSERT_GT(total_ops, 50u);

  for (uint64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("crash after op " + std::to_string(k));
    ShardedCrashHarness harness;
    harness.fault_env()->CrashAfterOps(k);
    ShardedCrashHarness::Outcome outcome;
    {
      std::unique_ptr<ShardedLaserDB> db;
      if (harness.Open(&db).ok()) {
        outcome = harness.RunScript(db.get());
      }
    }
    EXPECT_FALSE(outcome.completed);
    harness.fault_env()->DropUnsyncedData();
    harness.fault_env()->ClearFaults();
    std::unique_ptr<ShardedLaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    RecoveryHarness::VerifyMatchesModel(db.get(), outcome.model);
  }
}

// Crash exactly at the commit point (the first coordinator-log append):
// both shards hold a durable prepared fragment with no commit record. Then
// crash the recovery itself at every operation. Every clean reopen must land
// on exactly the acked state — the undecided fragments must never surface,
// no matter how recovery is interrupted (presumed abort is idempotent).
TEST(ShardedCrashMatrixTest, RecoveryWithUndecidedPreparedBatchIsIdempotent) {
  uint64_t first_txn_append = 0;
  {
    ShardedCrashHarness harness;
    std::unique_ptr<ShardedLaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    ShardedCrashHarness::Outcome outcome = harness.RunScript(db.get());
    ASSERT_TRUE(outcome.completed);
    const auto history = harness.fault_env()->history();
    for (uint64_t i = 0; i < history.size(); ++i) {
      if (history[i].kind == OpKind::kAppend &&
          HasSuffix(history[i].fname, "txn.log")) {
        first_txn_append = i;
        break;
      }
    }
    ASSERT_GT(first_txn_append, 0u);
  }

  ShardedCrashHarness harness;
  harness.fault_env()->CrashAfterOps(first_txn_append);
  ShardedCrashHarness::Outcome outcome;
  {
    std::unique_ptr<ShardedLaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    outcome = harness.RunScript(db.get());
    EXPECT_FALSE(outcome.completed);
  }
  harness.fault_env()->DropUnsyncedData();
  const FaultInjectionEnv::DurableState image =
      harness.fault_env()->SnapshotDurableState();

  // Profile how many ops one clean recovery performs from this image.
  harness.fault_env()->ClearFaults();
  const uint64_t before = harness.fault_env()->mutating_ops();
  {
    std::unique_ptr<ShardedLaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    RecoveryHarness::VerifyMatchesModel(db.get(), outcome.model);
  }
  const uint64_t recovery_ops = harness.fault_env()->mutating_ops() - before;
  ASSERT_GT(recovery_ops, 0u);

  for (uint64_t j = 0; j < recovery_ops; ++j) {
    SCOPED_TRACE("second crash after recovery op " + std::to_string(j));
    harness.fault_env()->RestoreDurableState(image);
    harness.fault_env()->ClearFaults();
    harness.fault_env()->CrashAfterOps(j);
    {
      std::unique_ptr<ShardedLaserDB> db;
      harness.Open(&db);  // usually dies mid-recovery; either way we crash
    }
    harness.fault_env()->DropUnsyncedData();
    harness.fault_env()->ClearFaults();
    std::unique_ptr<ShardedLaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    RecoveryHarness::VerifyMatchesModel(db.get(), outcome.model);
  }
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
    RecoveryHarness harness(policy);
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());

    ASSERT_TRUE(db->Insert(1, test::TestRow(1, RecoveryHarness::kColumns)).ok());

    // Each write is append (op +0) then sync (op +1): fail the next sync.
    harness.fault_env()->FailOperation(1);
    EXPECT_FALSE(db->Insert(2, test::TestRow(2, RecoveryHarness::kColumns)).ok());
    // Poisoned: later writes must not be accepted (their sync would have
    // made the failed record durable).
    EXPECT_FALSE(db->Insert(3, test::TestRow(3, RecoveryHarness::kColumns)).ok());
    // Reads still work.
    LaserDB::ReadResult result;
    const ColumnSet all = MakeColumnRange(1, RecoveryHarness::kColumns);
    ASSERT_TRUE(db->Read(1, all, &result).ok());
    EXPECT_TRUE(result.found);

    db.reset();
    harness.fault_env()->DropUnsyncedData();
    harness.fault_env()->ClearFaults();
    ASSERT_TRUE(harness.Open(&db).ok());

    Model model;
    model.Insert(1, test::TestRow(1, RecoveryHarness::kColumns));
    test::RecoveryHarness::VerifyMatchesModel(db.get(), model);
  }
}

// A flush whose SST sync fails must not delete the WAL; a reopen recovers
// every acknowledged write from it.
TEST(CrashRecoveryTest, FlushSyncFailureKeepsWalForRecovery) {
  // Profile the op offset of the flush's first SST sync.
  uint64_t sst_sync_offset = 0;
  {
    RecoveryHarness harness;
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(harness.Open(&db).ok());
    for (uint64_t key = 1; key <= 10; ++key) {
      ASSERT_TRUE(db->Insert(key, test::TestRow(key, RecoveryHarness::kColumns)).ok());
    }
    const uint64_t before = harness.fault_env()->mutating_ops();
    ASSERT_TRUE(db->Flush().ok());
    const auto history = harness.fault_env()->history();
    for (uint64_t i = before; i < history.size(); ++i) {
      if (history[i].kind == OpKind::kSync && HasSuffix(history[i].fname, ".sst")) {
        sst_sync_offset = i - before;
        break;
      }
    }
    ASSERT_GT(sst_sync_offset, 0u);
  }

  RecoveryHarness harness;
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(harness.Open(&db).ok());
  Model model;
  for (uint64_t key = 1; key <= 10; ++key) {
    ASSERT_TRUE(db->Insert(key, test::TestRow(key, RecoveryHarness::kColumns)).ok());
    model.Insert(key, test::TestRow(key, RecoveryHarness::kColumns));
  }
  harness.fault_env()->FailOperation(sst_sync_offset);
  EXPECT_FALSE(db->Flush().ok());
  // The background error poisons writes.
  EXPECT_FALSE(db->Insert(11, test::TestRow(11, RecoveryHarness::kColumns)).ok());

  db.reset();
  harness.fault_env()->DropUnsyncedData();
  harness.fault_env()->ClearFaults();
  ASSERT_TRUE(harness.Open(&db).ok());
  test::RecoveryHarness::VerifyMatchesModel(db.get(), model);
}

}  // namespace
}  // namespace laser

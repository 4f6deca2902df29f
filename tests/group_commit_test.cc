// Group-commit concurrency tests: many writer threads hammering one engine
// under each sync policy, a sync-delaying Env proving that concurrent
// batches actually coalesce (fewer fsyncs than writes), and the
// kSyncIntervalMs background thread's bounded durable window.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "laser/laser_db.h"
#include "laser/write_batch.h"
#include "tests/test_util.h"
#include "util/env.h"
#include "util/env_fault.h"

namespace laser {
namespace {

constexpr int kColumns = 4;

LaserOptions HammerOptions(Env* env, const std::string& path, WalSyncPolicy policy) {
  LaserOptions options;
  options.env = env;
  options.path = path;
  options.schema = Schema::UniformInt32(kColumns);
  options.num_levels = 4;
  options.cg_config = CgConfig::EquiWidth(kColumns, 4, 2);
  options.write_buffer_size = 4 << 20;  // keep everything in one memtable
  options.background_threads = 2;
  options.wal_sync_policy = policy;
  options.wal_sync_interval_ms = 5;
  return options;
}

/// `threads` writers each commit `writes` single-insert batches over
/// disjoint key ranges; every write must be acked and readable afterwards.
void HammerAndVerify(LaserDB* db, int threads, int writes) {
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < writes; ++i) {
        const uint64_t key = 100000u * (t + 1) + i;
        if (!db->Insert(key, test::TestRow(key, kColumns)).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  ASSERT_EQ(failures.load(), 0);

  EXPECT_EQ(db->LastSequence(), static_cast<uint64_t>(threads * writes));
  const ColumnSet all = MakeColumnRange(1, kColumns);
  for (int t = 0; t < threads; ++t) {
    for (int i = 0; i < writes; ++i) {
      const uint64_t key = 100000u * (t + 1) + i;
      LaserDB::ReadResult result;
      ASSERT_TRUE(db->Read(key, all, &result).ok());
      ASSERT_TRUE(result.found) << "key " << key;
      EXPECT_EQ(result.values[0], key * 100 + 1);
    }
  }
}

TEST(GroupCommitTest, ConcurrentWritersEveryPolicy) {
  for (WalSyncPolicy policy :
       {WalSyncPolicy::kSyncEveryWrite, WalSyncPolicy::kSyncEveryGroup,
        WalSyncPolicy::kSyncIntervalMs, WalSyncPolicy::kNoSync}) {
    auto env = NewMemEnv();
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(HammerOptions(env.get(), "/gc", policy), &db).ok());
    HammerAndVerify(db.get(), /*threads=*/8, /*writes=*/100);
    // Every write went through exactly one commit group.
    EXPECT_GE(db->stats().wal_group_writes.load(), 800u);
  }
}

TEST(GroupCommitTest, SlowSyncsCoalesceConcurrentWriters) {
  auto base = NewMemEnv();
  // Every sync sleeps 300 us, as a slow disk would.
  test::SyncHookEnv env(base.get(), [](const std::string&) {
    std::this_thread::sleep_for(std::chrono::microseconds(300));
  });
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(
                  HammerOptions(&env, "/gc_slow", WalSyncPolicy::kSyncEveryGroup), &db)
                  .ok());
  constexpr int kThreads = 8;
  constexpr int kWrites = 150;
  HammerAndVerify(db.get(), kThreads, kWrites);

  // The whole point of group commit: with 8 writers behind a slow fsync,
  // syncs (== commit groups with data) must be well below one per write.
  const uint64_t total = kThreads * kWrites;
  EXPECT_EQ(db->stats().wal_group_writes.load(), total);
  EXPECT_LT(db->stats().wal_syncs.load(), total);
  EXPECT_LT(db->stats().wal_group_commits.load(), total);
}

TEST(GroupCommitTest, ConcurrentMultiOpBatchesStayAtomic) {
  auto env = NewMemEnv();
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(
      LaserDB::Open(HammerOptions(env.get(), "/gc_batch", WalSyncPolicy::kSyncEveryGroup),
                    &db)
          .ok());
  constexpr int kThreads = 6;
  constexpr int kBatches = 60;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kBatches; ++i) {
        // Each batch inserts a pair of keys and deletes the previous pair:
        // at any point a reader sees the invariant "pair keys live or die
        // together".
        const uint64_t key = 100000u * (t + 1) + 2 * i;
        WriteBatch batch;
        batch.Insert(key, test::TestRow(key, kColumns));
        batch.Insert(key + 1, test::TestRow(key + 1, kColumns));
        if (i > 0) {
          batch.Delete(key - 2);
          batch.Delete(key - 1);
        }
        if (!db->Write(batch).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  ASSERT_EQ(failures.load(), 0);

  // Only each thread's final pair survives.
  const ColumnSet all = MakeColumnRange(1, kColumns);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kBatches; ++i) {
      const uint64_t key = 100000u * (t + 1) + 2 * i;
      LaserDB::ReadResult a, b;
      ASSERT_TRUE(db->Read(key, all, &a).ok());
      ASSERT_TRUE(db->Read(key + 1, all, &b).ok());
      EXPECT_EQ(a.found, b.found) << "pair torn at thread " << t << " batch " << i;
      EXPECT_EQ(a.found, i == kBatches - 1);
    }
  }
}

// ---------------------------------------------------------------------------
// kSyncIntervalMs: acks do not wait for fsync, but the background thread
// bounds the durable window.
// ---------------------------------------------------------------------------

TEST(GroupCommitTest, IntervalSyncMakesAckedWritesDurableWithinWindow) {
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get());
  LaserOptions options =
      HammerOptions(&fault, "/gc_interval", WalSyncPolicy::kSyncIntervalMs);
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());

  for (uint64_t key = 1; key <= 5; ++key) {
    ASSERT_TRUE(db->Insert(key, test::TestRow(key, kColumns)).ok());
  }
  const uint64_t appended = db->stats().bytes_written_wal.load();
  ASSERT_GT(appended, 0u);

  // Poll the durable image (non-destructively) until the background thread
  // has synced everything appended so far. 5ms interval, generous timeout.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool durable = false;
  while (std::chrono::steady_clock::now() < deadline) {
    const auto snapshot = fault.SnapshotDurableState();
    for (const auto& [name, contents] : snapshot.files) {
      if (name.size() > 4 && name.substr(name.size() - 4) == ".wal" &&
          contents.size() >= appended) {
        durable = true;
      }
    }
    if (durable) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(durable) << "interval sync thread never made acked writes durable";
  EXPECT_GE(db->stats().wal_syncs.load(), 1u);

  // Simulated power loss: everything acked survives because the interval
  // thread synced it.
  db.reset();
  fault.DropUnsyncedData();
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  const ColumnSet all = MakeColumnRange(1, kColumns);
  for (uint64_t key = 1; key <= 5; ++key) {
    LaserDB::ReadResult result;
    ASSERT_TRUE(db->Read(key, all, &result).ok());
    EXPECT_TRUE(result.found) << "key " << key;
  }
}

TEST(GroupCommitTest, IntervalSyncFailurePoisonsWrites) {
  auto base = NewMemEnv();
  FaultInjectionEnv fault(base.get());
  LaserOptions options =
      HammerOptions(&fault, "/gc_poison", WalSyncPolicy::kSyncIntervalMs);
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());

  ASSERT_TRUE(db->Insert(1, test::TestRow(1, kColumns)).ok());
  // Fail the next WAL operation — either the background interval sync or a
  // subsequent write's append, whichever the scheduler runs first. Both
  // paths must poison the engine rather than ack around a failed op.
  fault.FailOperation(0);
  uint64_t key = 2;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool poisoned = false;
  while (std::chrono::steady_clock::now() < deadline) {
    if (!db->Insert(key, test::TestRow(key, kColumns)).ok()) {
      poisoned = true;
      break;
    }
    ++key;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(poisoned);
  // Sticky: the engine stays read-only.
  EXPECT_FALSE(db->Insert(key + 1, test::TestRow(key + 1, kColumns)).ok());
  LaserDB::ReadResult result;
  ASSERT_TRUE(db->Read(1, MakeColumnRange(1, kColumns), &result).ok());
  EXPECT_TRUE(result.found);

  // After the crash, the survivors must be a clean prefix of the acked
  // stream: keys [1, m] for some m < key, nothing beyond it.
  db.reset();
  fault.DropUnsyncedData();
  fault.ClearFaults();
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  auto scan = db->NewScan(1, 1u << 20, MakeColumnRange(1, kColumns));
  ASSERT_NE(scan, nullptr);
  uint64_t expected = 1;
  for (; scan->Valid(); scan->Next(), ++expected) {
    EXPECT_EQ(scan->key(), expected) << "hole or resurrection in replayed prefix";
  }
  ASSERT_TRUE(scan->status().ok());
  EXPECT_LE(expected - 1, key);
}

}  // namespace
}  // namespace laser

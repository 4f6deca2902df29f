// ShardedLaserDB tests: router math, routed CRUD, cross-shard WriteBatch
// atomicity and persistence, concatenated fan-out scans (batch / row /
// aggregate / pushdown modes), stats aggregation, a multi-threaded
// cross-shard commit stress run (the TSan target), and the sharded settle:
// its shards overlap and end in the shape a shard-by-shard settle gives.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "laser/sharded_laser_db.h"
#include "tests/test_util.h"

namespace laser {
namespace {

// ----------------------------------------------------------- ShardRouter --

TEST(ShardRouterTest, UniformSplitsCoverTheDomain) {
  ShardRouter router = ShardRouter::Uniform(4, 1000);
  ASSERT_EQ(router.num_shards(), 4);
  EXPECT_EQ(router.split_points(), (std::vector<uint64_t>{250, 500, 750}));

  EXPECT_EQ(router.ShardOf(0), 0);
  EXPECT_EQ(router.ShardOf(249), 0);
  EXPECT_EQ(router.ShardOf(250), 1);  // a split point opens the next shard
  EXPECT_EQ(router.ShardOf(499), 1);
  EXPECT_EQ(router.ShardOf(500), 2);
  EXPECT_EQ(router.ShardOf(999), 3);
  // Keys past the nominal domain still route (to the last shard).
  EXPECT_EQ(router.ShardOf(UINT64_MAX), 3);

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(router.ShardOf(router.shard_lo(i)), i);
    EXPECT_EQ(router.ShardOf(router.shard_hi(i)), i);
  }
  EXPECT_EQ(router.shard_lo(0), 0u);
  EXPECT_EQ(router.shard_hi(0), 249u);
  EXPECT_EQ(router.shard_lo(3), 750u);
  EXPECT_EQ(router.shard_hi(3), UINT64_MAX);
}

TEST(ShardRouterTest, SingleShardHasNoSplits) {
  ShardRouter router = ShardRouter::Uniform(1, 1000);
  EXPECT_EQ(router.num_shards(), 1);
  EXPECT_EQ(router.ShardOf(0), 0);
  EXPECT_EQ(router.ShardOf(UINT64_MAX), 0);
}

TEST(ShardRouterTest, DegenerateDomainKeepsEveryShardNonEmpty) {
  // Domain smaller than the shard count: uniform width rounds to zero, but
  // the router must still hand every shard a non-empty range.
  ShardRouter router = ShardRouter::Uniform(4, 2);
  ASSERT_EQ(router.num_shards(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_LE(router.shard_lo(i), router.shard_hi(i));
    if (i > 0) {
      EXPECT_GT(router.shard_lo(i), router.shard_hi(i - 1));
    }
  }
}

TEST(ShardRouterTest, ExplicitSplitPoints) {
  ShardRouter router({100});
  EXPECT_EQ(router.num_shards(), 2);
  EXPECT_EQ(router.ShardOf(99), 0);
  EXPECT_EQ(router.ShardOf(100), 1);
}

// -------------------------------------------------------- ShardedLaserDB --

class ShardedLaserDbTest : public ::testing::Test {
 protected:
  static constexpr int kColumns = 4;
  static constexpr int kLevels = 4;
  static constexpr int kShards = 4;
  static constexpr uint64_t kDomain = 1000;

  void SetUp() override {
    env_ = NewMemEnv();
    Reopen();
  }

  void Reopen() {
    db_.reset();
    ASSERT_TRUE(ShardedLaserDB::Open(MakeOptions(), &db_).ok());
  }

  ShardedLaserOptions MakeOptions() {
    ShardedLaserOptions options;
    options.base =
        test::TinyTreeOptions(env_.get(), "/sharded", kColumns, kLevels);
    options.base.cg_config = CgConfig::EquiWidth(kColumns, kLevels, 2);
    options.base.background_threads = 1;
    options.num_shards = kShards;
    options.key_domain = kDomain;
    return options;
  }

  std::vector<ColumnValue> Row(uint64_t key) {
    return test::TestRow(key, kColumns);
  }

  void ExpectRow(uint64_t key) {
    LaserDB::ReadResult result;
    ASSERT_TRUE(db_->Read(key, MakeColumnRange(1, kColumns), &result).ok());
    ASSERT_TRUE(result.found) << "key " << key;
    for (int c = 1; c <= kColumns; ++c) {
      ASSERT_TRUE(result.values[c - 1].has_value());
      EXPECT_EQ(*result.values[c - 1], key * 100 + static_cast<uint64_t>(c));
    }
  }

  /// Drains a scan through NextBatch, returning the keys in emission order.
  std::vector<uint64_t> ScanKeys(uint64_t lo, uint64_t hi) {
    auto scan = db_->NewScan(lo, hi, MakeColumnRange(1, kColumns));
    EXPECT_NE(scan, nullptr);
    std::vector<uint64_t> keys;
    ScanBatch batch;
    while (scan->NextBatch(&batch) > 0) {
      keys.insert(keys.end(), batch.keys.begin(), batch.keys.end());
    }
    EXPECT_TRUE(scan->status().ok());
    return keys;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<ShardedLaserDB> db_;
};

TEST_F(ShardedLaserDbTest, OpenValidatesOptions) {
  ShardedLaserOptions bad = MakeOptions();
  bad.num_shards = 0;
  std::unique_ptr<ShardedLaserDB> db;
  EXPECT_TRUE(ShardedLaserDB::Open(bad, &db).IsInvalidArgument());

  bad = MakeOptions();
  bad.split_points = {10, 20};  // arity != num_shards - 1
  EXPECT_TRUE(ShardedLaserDB::Open(bad, &db).IsInvalidArgument());
}

TEST_F(ShardedLaserDbTest, RoutedCrudLandsOnOwningShard) {
  ASSERT_EQ(db_->num_shards(), kShards);
  ASSERT_TRUE(db_->Insert(10, Row(10)).ok());   // shard 0
  ASSERT_TRUE(db_->Insert(510, Row(510)).ok());  // shard 2
  ExpectRow(10);
  ExpectRow(510);

  // Each key lives only on its owning shard.
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->shard(0)->Read(10, {1}, &result).ok());
  EXPECT_TRUE(result.found);
  ASSERT_TRUE(db_->shard(0)->Read(510, {1}, &result).ok());
  EXPECT_FALSE(result.found);
  ASSERT_TRUE(db_->shard(2)->Read(510, {1}, &result).ok());
  EXPECT_TRUE(result.found);

  ASSERT_TRUE(db_->Update(510, {{2, 9999}}).ok());
  ASSERT_TRUE(db_->Read(510, {2}, &result).ok());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(*result.values[0], 9999u);

  ASSERT_TRUE(db_->Delete(10).ok());
  ASSERT_TRUE(db_->Read(10, {1}, &result).ok());
  EXPECT_FALSE(result.found);
}

TEST_F(ShardedLaserDbTest, CrossShardBatchIsAppliedEverywhere) {
  WriteBatch batch;
  batch.Insert(10, Row(10));    // shard 0
  batch.Insert(260, Row(260));  // shard 1
  batch.Insert(510, Row(510));  // shard 2
  batch.Insert(760, Row(760));  // shard 3
  batch.Update(260, {{1, 42}});
  ASSERT_TRUE(db_->Write(batch).ok());

  ExpectRow(10);
  ExpectRow(510);
  ExpectRow(760);
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(260, MakeColumnRange(1, kColumns), &result).ok());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(*result.values[0], 42u);  // intra-shard op order preserved
  EXPECT_EQ(*result.values[1], 260u * 100 + 2);
}

TEST_F(ShardedLaserDbTest, SingleShardBatchTakesTheFastPath) {
  // Both keys in shard 1: rides ordinary group commit, no xid burned.
  WriteBatch batch;
  batch.Insert(300, Row(300));
  batch.Delete(301);
  ASSERT_TRUE(db_->Write(batch).ok());
  ExpectRow(300);
  EXPECT_TRUE(db_->Write(WriteBatch()).ok());  // empty batch is a no-op
}

TEST_F(ShardedLaserDbTest, CrossShardBatchSurvivesReopen) {
  WriteBatch batch;
  batch.Insert(20, Row(20));
  batch.Insert(270, Row(270));
  batch.Insert(770, Row(770));
  ASSERT_TRUE(db_->Write(batch).ok());
  ASSERT_TRUE(db_->Insert(520, Row(520)).ok());

  // No flush: recovery replays each shard's WAL, consulting the coordinator
  // log for the prepared cross-shard groups.
  Reopen();
  ExpectRow(20);
  ExpectRow(270);
  ExpectRow(520);
  ExpectRow(770);

  // And again after a flush cycle (nothing left in any WAL).
  ASSERT_TRUE(db_->Flush().ok());
  Reopen();
  ExpectRow(20);
  ExpectRow(770);
}

TEST_F(ShardedLaserDbTest, ScanConcatenatesShardsInKeyOrder) {
  for (uint64_t k = 0; k < 600; ++k) {
    ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  }
  std::vector<uint64_t> keys = ScanKeys(0, 599);
  ASSERT_EQ(keys.size(), 600u);
  for (uint64_t k = 0; k < 600; ++k) EXPECT_EQ(keys[k], k);

  // A sub-range straddling the shard-0/shard-1 boundary at 250.
  keys = ScanKeys(240, 270);
  ASSERT_EQ(keys.size(), 31u);
  EXPECT_EQ(keys.front(), 240u);
  EXPECT_EQ(keys.back(), 270u);

  // Range confined to one shard.
  keys = ScanKeys(500, 520);
  ASSERT_EQ(keys.size(), 21u);
  EXPECT_EQ(keys.front(), 500u);
}

TEST_F(ShardedLaserDbTest, ScanRowModeCrossesShardBoundary) {
  for (uint64_t k = 245; k <= 255; ++k) {
    ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  }
  auto scan = db_->NewScan(245, 255, MakeColumnRange(1, kColumns));
  ASSERT_NE(scan, nullptr);
  uint64_t expect = 245;
  for (; scan->Valid(); scan->Next(), ++expect) {
    EXPECT_EQ(scan->key(), expect);
    ASSERT_TRUE(scan->values()[0].has_value());
    EXPECT_EQ(*scan->values()[0], expect * 100 + 1);
  }
  EXPECT_EQ(expect, 256u);
  EXPECT_TRUE(scan->status().ok());
}

TEST_F(ShardedLaserDbTest, PushdownPredicatesFilterAcrossShards) {
  for (uint64_t k = 0; k < 600; ++k) {
    ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());

  // Column 2 holds key*100 + 2: the band selects keys 250..260, straddling
  // the shard boundary at 250.
  ScanSpec spec;
  spec.predicates = {{2, PredOp::kBetween, 25002, 26002}};
  auto scan = db_->NewScan(0, 599, MakeColumnRange(1, kColumns), spec);
  ASSERT_NE(scan, nullptr);
  std::vector<uint64_t> keys;
  ScanBatch batch;
  while (scan->NextBatch(&batch) > 0) {
    keys.insert(keys.end(), batch.keys.begin(), batch.keys.end());
  }
  ASSERT_TRUE(scan->status().ok());
  ASSERT_EQ(keys.size(), 11u);
  EXPECT_EQ(keys.front(), 250u);
  EXPECT_EQ(keys.back(), 260u);
}

TEST_F(ShardedLaserDbTest, AggregateAllFoldsOverEveryShard) {
  uint64_t sum_c1 = 0;
  for (uint64_t k = 0; k < 600; ++k) {
    ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
    sum_c1 += k * 100 + 1;
  }
  auto scan = db_->NewScan(0, 599, {1});
  ASSERT_NE(scan, nullptr);
  ScanAggregates agg;
  ASSERT_TRUE(scan->AggregateAll(&agg).ok());
  EXPECT_EQ(agg.rows, 600u);
  ASSERT_EQ(agg.counts.size(), 1u);
  EXPECT_EQ(agg.counts[0], 600u);
  EXPECT_EQ(agg.sums[0], sum_c1);
  EXPECT_EQ(agg.minima[0], 1u);
  EXPECT_EQ(agg.maxima[0], 599u * 100 + 1);
}

TEST_F(ShardedLaserDbTest, AggregateStatsSumsShardCounters) {
  for (uint64_t k = 0; k < 600; k += 10) {
    ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  }
  ASSERT_TRUE(db_->Flush().ok());
  Stats total;
  db_->AggregateStats(&total);
  uint64_t flush_jobs = 0;
  for (int i = 0; i < db_->num_shards(); ++i) {
    flush_jobs += db_->shard(i)->stats().flush_jobs.load();
  }
  EXPECT_GT(flush_jobs, 0u);
  EXPECT_EQ(total.flush_jobs.load(), flush_jobs);
  EXPECT_GT(total.wal_group_commits.load(), 0u);
  EXPECT_FALSE(db_->DebugString().empty());
}

TEST_F(ShardedLaserDbTest, ConcurrentCrossShardWritesStress) {
  // Each thread commits cross-shard batches on its own key slice: key1 in
  // shards 0/1 ([t*125, t*125+100)), key2 = key1 + 500 in shards 2/3. This
  // drives the prepare/commit path from many coordinators at once and is the
  // suite's TSan anchor.
  constexpr int kThreads = 4;
  constexpr int kBatches = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kBatches; ++j) {
        const uint64_t key1 = static_cast<uint64_t>(t) * 125 + j;
        WriteBatch batch;
        batch.Insert(key1, Row(key1));
        batch.Insert(key1 + 500, Row(key1 + 500));
        if (!db_->Write(batch).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  for (int t = 0; t < kThreads; ++t) {
    for (int j = 0; j < kBatches; ++j) {
      const uint64_t key1 = static_cast<uint64_t>(t) * 125 + j;
      ExpectRow(key1);
      ExpectRow(key1 + 500);
    }
  }
  // Everything still intact after recovery.
  Reopen();
  ExpectRow(0);
  ExpectRow(500);
  ExpectRow(3 * 125 + kBatches - 1 + 500);
}

// ---------------------------------------------------------- sharded settle --

/// Two shards over keys [0, 1000), one background thread each, auto
/// compactions off: a shard flushes and compacts only when told to.
ShardedLaserOptions TwoShardSettleOptions(Env* env, const std::string& root) {
  ShardedLaserOptions options;
  options.base = test::TinyTreeOptions(env, root, 4, 4);
  options.base.cg_config = CgConfig::EquiWidth(4, 4, 2);
  options.base.background_threads = 1;
  options.base.disable_auto_compactions = true;
  options.num_shards = 2;
  options.key_domain = 1000;
  return options;
}

TEST(ShardedSettleTest, CompactUntilStableOverlapsShards) {
  // The first SST sync under shard-0/ blocks until released. If the sharded
  // call settled shard 0 before starting shard 1, shard 1's flush could not
  // land while shard 0 is held.
  std::mutex mu;
  std::condition_variable cv;
  bool blocked = false;
  bool released = false;
  std::unique_ptr<Env> base = NewMemEnv();
  test::SyncHookEnv env(base.get(), [&](const std::string& fname) {
    if (fname.find("/shard-0/") == std::string::npos ||
        fname.size() < 4 || fname.compare(fname.size() - 4, 4, ".sst") != 0) {
      return;
    }
    std::unique_lock<std::mutex> lock(mu);
    if (blocked) return;
    blocked = true;
    cv.wait(lock, [&] { return released; });
  });
  auto release = [&] {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  };

  std::unique_ptr<ShardedLaserDB> db;
  ASSERT_TRUE(
      ShardedLaserDB::Open(TwoShardSettleOptions(&env, "/overlap"), &db).ok());
  for (uint64_t k = 0; k < 1000; k += 5) {
    ASSERT_TRUE(db->Insert(k, test::TestRow(k, 4)).ok());
  }
  LaserDB* shard1 = db->shard(1);
  const uint64_t shard1_flushes = shard1->stats().flush_jobs.load();

  Status settle;
  std::thread settler([&] { settle = db->CompactUntilStable(); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  // Shard 1's flush may land before shard 0's thread reaches its sync, so
  // wait for both.
  bool overlapped = false;
  bool held = false;
  while (std::chrono::steady_clock::now() < deadline && !(overlapped && held)) {
    overlapped = shard1->stats().flush_jobs.load() > shard1_flushes;
    {
      std::lock_guard<std::mutex> lock(mu);
      held = blocked;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(held) << "shard 0 never synced an SST";
  EXPECT_EQ(db->shard(0)->stats().flush_jobs.load(), 0u);
  release();
  settler.join();
  EXPECT_TRUE(overlapped)
      << "shard 1 did not flush while shard 0's settle was held";
  ASSERT_TRUE(settle.ok()) << settle.ToString();
  EXPECT_GT(db->shard(0)->stats().flush_jobs.load(), 0u);
}

TEST(ShardedSettleTest, FailedShardStartStillSettlesTheOthers) {
  std::unique_ptr<Env> env = NewMemEnv();
  const ShardedLaserOptions options =
      TwoShardSettleOptions(env.get(), "/failed");
  std::unique_ptr<ShardedLaserDB> db;
  ASSERT_TRUE(ShardedLaserDB::Open(options, &db).ok());
  for (uint64_t round = 0; round < 3; ++round) {
    for (uint64_t k = 0; k < 1000; ++k) {
      ASSERT_TRUE(db->Insert(k, test::TestRow(k + round, 4)).ok());
    }
  }
  db->shard(0)->Poison(Status::IOError("injected"));
  LaserDB* shard1 = db->shard(1);

  // Shard 0's start fails, so it is not waited on; shard 1 still settles,
  // and shard 0's error is the one returned.
  Status s = db->CompactUntilStable();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(s.ToString(), Status::IOError("injected").ToString());
  const uint64_t flush_jobs = shard1->stats().flush_jobs.load();
  const uint64_t compaction_jobs = shard1->stats().compaction_jobs.load();
  EXPECT_GT(compaction_jobs, 0u);
  ASSERT_TRUE(shard1->CompactUntilStable().ok());
  EXPECT_EQ(shard1->stats().flush_jobs.load(), flush_jobs);
  EXPECT_EQ(shard1->stats().compaction_jobs.load(), compaction_jobs);

  // Shard 1's settle request was released: flushes past its L0 trigger
  // schedule no compaction.
  for (int f = 0; f < options.base.level0_file_compaction_trigger + 2; ++f) {
    const uint64_t k = 500 + static_cast<uint64_t>(f);
    ASSERT_TRUE(db->Insert(k, test::TestRow(k, 4)).ok());
    ASSERT_TRUE(shard1->Flush().ok());
  }
  shard1->WaitForBackgroundWork();
  EXPECT_EQ(shard1->stats().compaction_jobs.load(), compaction_jobs);
}

TEST(ShardedSettleTest, SettleMatchesShardByShardSettle) {
  std::unique_ptr<Env> env = NewMemEnv();
  std::unique_ptr<ShardedLaserDB> fanned;
  std::unique_ptr<ShardedLaserDB> serial;
  ASSERT_TRUE(ShardedLaserDB::Open(TwoShardSettleOptions(env.get(), "/fanned"),
                                   &fanned)
                  .ok());
  ASSERT_TRUE(ShardedLaserDB::Open(TwoShardSettleOptions(env.get(), "/serial"),
                                   &serial)
                  .ok());

  auto scan_all = [](ShardedLaserDB* db) {
    auto scan = db->NewScan(0, UINT64_MAX, MakeColumnRange(1, 4));
    EXPECT_NE(scan, nullptr);
    std::vector<uint64_t> cells;
    ScanBatch batch;
    while (scan->NextBatch(&batch) > 0) {
      for (size_t r = 0; r < batch.keys.size(); ++r) {
        cells.push_back(batch.keys[r]);
        for (size_t c = 0; c < batch.columns.size(); ++c) {
          const ScanBatch::Column& column = batch.columns[c];
          cells.push_back(column.present[r] ? column.values[r] : UINT64_MAX);
        }
      }
    }
    EXPECT_TRUE(scan->status().ok());
    return cells;
  };

  // Three rounds of inserts, partial updates and deletes on both shards,
  // each ended by a settle: the fanned-out call on one DB, shard by shard on
  // the other.
  for (uint64_t round = 0; round < 3; ++round) {
    for (ShardedLaserDB* db : {fanned.get(), serial.get()}) {
      for (uint64_t k = round; k < 1000; k += 2) {
        ASSERT_TRUE(db->Insert(k, test::TestRow(k + round, 4)).ok());
      }
      for (uint64_t k = 0; k < 1000; k += 7) {
        ASSERT_TRUE(db->Update(k, {{2, k * 3 + round}}).ok());
      }
      for (uint64_t k = round; k < 1000; k += 11) {
        ASSERT_TRUE(db->Delete(k).ok());
      }
    }
    ASSERT_TRUE(fanned->CompactUntilStable().ok());
    for (int i = 0; i < serial->num_shards(); ++i) {
      ASSERT_TRUE(serial->shard(i)->CompactUntilStable().ok());
    }
    for (int i = 0; i < fanned->num_shards(); ++i) {
      EXPECT_EQ(fanned->shard(i)->DebugString(),
                serial->shard(i)->DebugString())
          << "round " << round << ", shard " << i;
      EXPECT_EQ(fanned->shard(i)->stats().compaction_jobs.load(),
                serial->shard(i)->stats().compaction_jobs.load());
    }
    EXPECT_EQ(scan_all(fanned.get()), scan_all(serial.get()))
        << "round " << round;
  }
  EXPECT_GT(fanned->shard(0)->stats().compaction_jobs.load(), 0u);
  EXPECT_GT(fanned->shard(1)->stats().compaction_jobs.load(), 0u);
}

}  // namespace
}  // namespace laser

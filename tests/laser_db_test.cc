// End-to-end tests of the LASER engine: CRUD with projections, partial
// updates across layouts, flush/compaction correctness for every §7.2
// design, crash recovery, snapshots/scans, and a randomized property test
// against an in-memory reference model.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "laser/laser_db.h"
#include "tests/model.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace laser {
namespace {

using test::DesignParam;

class LaserDbTest : public ::testing::TestWithParam<DesignParam> {
 protected:
  static constexpr int kColumns = 8;
  static constexpr int kLevels = 5;

  void SetUp() override {
    env_ = NewMemEnv();
    Reopen();
  }

  void Reopen() {
    db_.reset();
    LaserOptions options = MakeOptions();
    ASSERT_TRUE(LaserDB::Open(options, &db_).ok());
  }

  LaserOptions MakeOptions() {
    LaserOptions options = test::TinyTreeOptions(env_.get(), "/db", kColumns,
                                                 kLevels);
    options.background_threads = 2;
    options.cg_config = test::DesignConfig(GetParam(), kColumns, kLevels);
    return options;
  }

  std::vector<ColumnValue> Row(uint64_t key) {
    return test::TestRow(key, kColumns);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<LaserDB> db_;
};

TEST_P(LaserDbTest, InsertThenReadFullProjection) {
  ASSERT_TRUE(db_->Insert(42, Row(42)).ok());
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(42, MakeColumnRange(1, kColumns), &result).ok());
  ASSERT_TRUE(result.found);
  for (int c = 1; c <= kColumns; ++c) {
    ASSERT_TRUE(result.values[c - 1].has_value());
    EXPECT_EQ(*result.values[c - 1], 42u * 100 + c);
  }
}

TEST_P(LaserDbTest, ReadWithNarrowProjection) {
  ASSERT_TRUE(db_->Insert(7, Row(7)).ok());
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(7, {3, 5}, &result).ok());
  ASSERT_TRUE(result.found);
  ASSERT_EQ(result.values.size(), 2u);
  EXPECT_EQ(*result.values[0], 703u);
  EXPECT_EQ(*result.values[1], 705u);
}

TEST_P(LaserDbTest, MissingKeyNotFound) {
  ASSERT_TRUE(db_->Insert(1, Row(1)).ok());
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(2, {1}, &result).ok());
  EXPECT_FALSE(result.found);
}

TEST_P(LaserDbTest, UpdateOverwritesColumns) {
  ASSERT_TRUE(db_->Insert(5, Row(5)).ok());
  ASSERT_TRUE(db_->Update(5, {{2, 9999}, {7, 8888}}).ok());
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(5, MakeColumnRange(1, kColumns), &result).ok());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(*result.values[1], 9999u);
  EXPECT_EQ(*result.values[6], 8888u);
  EXPECT_EQ(*result.values[0], 501u);  // untouched column
}

TEST_P(LaserDbTest, DeleteHidesRow) {
  ASSERT_TRUE(db_->Insert(5, Row(5)).ok());
  ASSERT_TRUE(db_->Delete(5).ok());
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(5, {1}, &result).ok());
  EXPECT_FALSE(result.found);
}

TEST_P(LaserDbTest, ReinsertAfterDelete) {
  ASSERT_TRUE(db_->Insert(5, Row(5)).ok());
  ASSERT_TRUE(db_->Delete(5).ok());
  ASSERT_TRUE(db_->Insert(5, Row(6)).ok());
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(5, {1}, &result).ok());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(*result.values[0], 601u);
}

TEST_P(LaserDbTest, PersistsThroughFlush) {
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  ASSERT_TRUE(db_->Update(50, {{1, 11}}).ok());
  ASSERT_TRUE(db_->Delete(60).ok());
  ASSERT_TRUE(db_->Flush().ok());

  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(50, MakeColumnRange(1, kColumns), &result).ok());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(*result.values[0], 11u);
  EXPECT_EQ(*result.values[1], 5002u);
  ASSERT_TRUE(db_->Read(60, {1}, &result).ok());
  EXPECT_FALSE(result.found);
}

TEST_P(LaserDbTest, PersistsThroughFullCompaction) {
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  ASSERT_TRUE(db_->Update(100, {{3, 333}}).ok());
  ASSERT_TRUE(db_->Delete(200).ok());
  ASSERT_TRUE(db_->CompactUntilStable().ok());

  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(100, MakeColumnRange(1, kColumns), &result).ok());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(*result.values[2], 333u);
  EXPECT_EQ(*result.values[0], 100u * 100 + 1);
  ASSERT_TRUE(db_->Read(200, {1}, &result).ok());
  EXPECT_FALSE(result.found);
  ASSERT_TRUE(db_->Read(1999, {8}, &result).ok());
  ASSERT_TRUE(result.found);

  // Data actually moved below level 0.
  auto version = db_->current_version();
  uint64_t deep_entries = 0;
  for (int level = 1; level < version->num_levels(); ++level) {
    for (int g = 0; g < version->num_groups(level); ++g) {
      deep_entries += version->GroupEntries(level, g);
    }
  }
  EXPECT_GT(deep_entries, 0u);
}

TEST_P(LaserDbTest, UpdatesMergeAcrossLevels) {
  // Old full rows pushed deep; fresh partial updates on top.
  for (uint64_t k = 0; k < 1000; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  for (uint64_t k = 0; k < 1000; k += 10) {
    ASSERT_TRUE(db_->Update(k, {{4, k + 7}}).ok());
  }
  for (uint64_t k = 0; k < 1000; k += 10) {
    LaserDB::ReadResult result;
    ASSERT_TRUE(db_->Read(k, MakeColumnRange(1, kColumns), &result).ok());
    ASSERT_TRUE(result.found) << k;
    EXPECT_EQ(*result.values[3], k + 7) << k;       // updated column
    EXPECT_EQ(*result.values[0], k * 100 + 1) << k; // from the deep full row
  }
}

TEST_P(LaserDbTest, ScanReturnsSortedStitchedRows) {
  for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  for (uint64_t k = 0; k < 500; k += 7) {
    ASSERT_TRUE(db_->Update(k, {{2, k}}).ok());
  }
  ASSERT_TRUE(db_->Delete(100).ok());

  auto scan = db_->NewScan(50, 149, {1, 2});
  ASSERT_NE(scan, nullptr);
  uint64_t expected_key = 50;
  int count = 0;
  for (; scan->Valid(); scan->Next()) {
    if (expected_key == 100) ++expected_key;  // deleted
    EXPECT_EQ(scan->key(), expected_key);
    const auto& row = scan->values();
    ASSERT_TRUE(row[0].has_value());
    EXPECT_EQ(*row[0], expected_key * 100 + 1);
    ASSERT_TRUE(row[1].has_value());
    if (expected_key % 7 == 0) {
      EXPECT_EQ(*row[1], expected_key);
    } else {
      EXPECT_EQ(*row[1], expected_key * 100 + 2);
    }
    ++expected_key;
    ++count;
  }
  EXPECT_TRUE(scan->status().ok());
  EXPECT_EQ(count, 99);  // 100 keys minus the deleted one
}

TEST_P(LaserDbTest, ScanEmptyRange) {
  ASSERT_TRUE(db_->Insert(10, Row(10)).ok());
  auto scan = db_->NewScan(20, 30, {1});
  ASSERT_NE(scan, nullptr);
  EXPECT_FALSE(scan->Valid());
}

TEST_P(LaserDbTest, RecoversFromWalAfterCrash) {
  for (uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  ASSERT_TRUE(db_->Update(10, {{1, 424242}}).ok());
  // No flush: data only in WAL + memtable. Simulate crash by reopening.
  Reopen();
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(10, MakeColumnRange(1, kColumns), &result).ok());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(*result.values[0], 424242u);
  ASSERT_TRUE(db_->Read(49, {8}, &result).ok());
  ASSERT_TRUE(result.found);
}

TEST_P(LaserDbTest, RecoversManifestState) {
  for (uint64_t k = 0; k < 3000; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  const SequenceNumber seq_before = db_->LastSequence();
  Reopen();
  EXPECT_GE(db_->LastSequence(), seq_before);
  for (uint64_t k : {0ull, 1499ull, 2999ull}) {
    LaserDB::ReadResult result;
    ASSERT_TRUE(db_->Read(k, {1, kColumns}, &result).ok());
    ASSERT_TRUE(result.found) << k;
    EXPECT_EQ(*result.values[0], k * 100 + 1);
  }
}

TEST_P(LaserDbTest, InvalidArgumentsRejected) {
  EXPECT_FALSE(db_->Insert(1, {1, 2}).ok());  // wrong arity
  EXPECT_FALSE(db_->Update(1, {}).ok());
  EXPECT_FALSE(db_->Update(1, {{0, 5}}).ok());
  EXPECT_FALSE(db_->Update(1, {{kColumns + 1, 5}}).ok());
  EXPECT_FALSE(db_->Update(1, {{3, 1}, {3, 2}}).ok());  // duplicate column
  LaserDB::ReadResult result;
  EXPECT_FALSE(db_->Read(1, {}, &result).ok());
  EXPECT_FALSE(db_->Read(1, {5, 3}, &result).ok());  // unsorted
  EXPECT_EQ(db_->NewScan(0, 1, {99}), nullptr);
}

TEST_P(LaserDbTest, UpdateNonexistentKeyYieldsPartialRow) {
  // §4.2: partial rows are inserted blindly; reading other columns gives
  // null, reading the updated column gives the value.
  ASSERT_TRUE(db_->Update(77, {{2, 5}}).ok());
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(77, {2}, &result).ok());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(*result.values[0], 5u);
  ASSERT_TRUE(db_->Read(77, {1}, &result).ok());
  EXPECT_FALSE(result.found);  // column 1 was never written
}

TEST_P(LaserDbTest, PartialUpdateAfterDeleteResurrectsOnlyThoseColumns) {
  ASSERT_TRUE(db_->Insert(9, Row(9)).ok());
  ASSERT_TRUE(db_->Delete(9).ok());
  ASSERT_TRUE(db_->Update(9, {{3, 123}}).ok());
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(9, MakeColumnRange(1, kColumns), &result).ok());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(*result.values[2], 123u);
  EXPECT_FALSE(result.values[0].has_value());  // killed by the tombstone
}

TEST_P(LaserDbTest, RandomizedAgainstReferenceModel) {
  Random rng(2024);
  test::Model model;

  for (int op = 0; op < 6000; ++op) {
    const uint64_t key = rng.Uniform(400);
    const int action = static_cast<int>(rng.Uniform(10));
    if (action < 5) {  // insert
      auto row = Row(key + rng.Uniform(1000) * 1000);
      ASSERT_TRUE(db_->Insert(key, row).ok());
      model.Insert(key, row);
    } else if (action < 8) {  // partial update
      const int col = 1 + static_cast<int>(rng.Uniform(kColumns));
      const ColumnValue value = rng.Next() % 100000;
      ASSERT_TRUE(db_->Update(key, {{col, value}}).ok());
      model.Update(key, {{col, value}});
    } else if (action < 9) {  // delete
      ASSERT_TRUE(db_->Delete(key).ok());
      model.Delete(key);
    } else if (op % 500 == 9) {  // occasional forced compaction
      ASSERT_TRUE(db_->CompactUntilStable().ok());
    }
  }
  ASSERT_TRUE(db_->CompactUntilStable().ok());

  // Full verification: every key, full projection, then one scan through
  // every consumer.
  const ColumnSet all = MakeColumnRange(1, kColumns);
  ASSERT_NO_FATAL_FAILURE(test::ExpectReadsMatch(db_.get(), model, 0, 399, all));
  test::ExpectScanMatches(db_.get(), model, 0, 399, all);
}

TEST_P(LaserDbTest, StatsCountBlockReads) {
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  db_->stats().Reset();
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(1234, {1}, &result).ok());
  ASSERT_TRUE(result.found);
  EXPECT_GT(db_->stats().point_reads.load(), 0u);
  EXPECT_GT(db_->stats().data_block_reads.load() +
                db_->stats().block_cache_hits.load(),
            0u);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, LaserDbTest,
    ::testing::Values(DesignParam{"RowOnly", 0}, DesignParam{"Columnar", 1},
                      DesignParam{"CgSize2", 2}, DesignParam{"CgSize3", 3},
                      DesignParam{"HtapSimple", -1}),
    [](const auto& info) { return info.param.name; });

// CompactUntilStable with auto compactions off: its settle request
// schedules compactions only after the memtable it rotated is flushed, and
// only while the call waits.
class LaserDbSettleTest : public ::testing::Test {
 protected:
  static constexpr int kColumns = 8;

  void SetUp() override { env_ = NewMemEnv(); }

  LaserOptions Options(const std::string& path, int background_threads) {
    LaserOptions options =
        test::TinyTreeOptions(env_.get(), path, kColumns, 5);
    options.disable_auto_compactions = true;
    options.background_threads = background_threads;
    return options;
  }

  static void Insert(LaserDB* db, uint64_t* key, int rows) {
    for (int i = 0; i < rows; ++i, ++*key) {
      ASSERT_TRUE(db->Insert(*key, test::TestRow(*key, kColumns)).ok());
    }
  }

  std::unique_ptr<Env> env_;
};

TEST_F(LaserDbSettleTest, FlushLandsBeforeTheFirstCompaction) {
  // Both trees hold an L0 past its trigger and a non-empty memtable. One
  // settles directly; the other flushes before it settles. A settle that
  // compacted ahead of its own flush would pick from fewer L0 files. One
  // background thread keeps each tree's job order deterministic.
  const LaserOptions options = Options("/direct", 1);
  std::unique_ptr<LaserDB> direct;
  std::unique_ptr<LaserDB> flushed;
  ASSERT_TRUE(LaserDB::Open(options, &direct).ok());
  ASSERT_TRUE(LaserDB::Open(Options("/flushed", 1), &flushed).ok());
  const int flushes = options.level0_file_compaction_trigger + 2;
  for (LaserDB* db : {direct.get(), flushed.get()}) {
    uint64_t key = 0;
    for (int f = 0; f < flushes; ++f) {
      Insert(db, &key, 50);
      ASSERT_TRUE(db->Flush().ok());
    }
    Insert(db, &key, 50);
  }
  ASSERT_TRUE(flushed->Flush().ok());
  ASSERT_TRUE(direct->CompactUntilStable().ok());
  ASSERT_TRUE(flushed->CompactUntilStable().ok());
  EXPECT_EQ(direct->DebugString(), flushed->DebugString());
  EXPECT_EQ(direct->stats().compaction_jobs.load(),
            flushed->stats().compaction_jobs.load());
  EXPECT_GT(direct->stats().compaction_jobs.load(), 0u);
}

// Once a call returns, flushes that push L0 past its trigger schedule no
// compaction; two concurrent calls both return on a stable tree.
TEST_F(LaserDbSettleTest, SettleRequestEndsWithItsCall) {
  const LaserOptions options = Options("/db", 2);
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  Stats& stats = db->stats();

  uint64_t key = 0;
  auto insert = [&](int rows) { Insert(db.get(), &key, rows); };
  insert(2000);
  ASSERT_TRUE(db->CompactUntilStable().ok());
  const uint64_t settled_jobs = stats.compaction_jobs.load();
  ASSERT_GT(settled_jobs, 0u);

  // Each Flush lands one small L0 file, well past the trigger in total.
  const int flushes = options.level0_file_compaction_trigger + 2;
  for (int f = 0; f < flushes; ++f) {
    insert(50);
    ASSERT_TRUE(db->Flush().ok());
  }
  db->WaitForBackgroundWork();
  EXPECT_EQ(stats.compaction_jobs.load(), settled_jobs);
  EXPECT_GE(db->current_version()->files(0, 0).size(),
            static_cast<size_t>(flushes));

  insert(50);  // in the memtable: both calls race on its rotation
  Status results[2];
  std::thread first([&] { results[0] = db->CompactUntilStable(); });
  std::thread second([&] { results[1] = db->CompactUntilStable(); });
  first.join();
  second.join();
  ASSERT_TRUE(results[0].ok()) << results[0].ToString();
  ASSERT_TRUE(results[1].ok()) << results[1].ToString();
  EXPECT_GT(stats.compaction_jobs.load(), settled_jobs);

  // Stable: with the memtable empty, one more call runs no job at all.
  const uint64_t flush_jobs = stats.flush_jobs.load();
  const uint64_t compaction_jobs = stats.compaction_jobs.load();
  ASSERT_TRUE(db->CompactUntilStable().ok());
  EXPECT_EQ(stats.flush_jobs.load(), flush_jobs);
  EXPECT_EQ(stats.compaction_jobs.load(), compaction_jobs);
}

}  // namespace
}  // namespace laser

// Advanced engine tests: snapshots, concurrency, write stalls, obsolete-file
// GC, compaction priorities end-to-end, reopen cycles, WAL torn tails,
// manifest corruption, Posix-backed operation, and scan consistency under
// concurrent writes.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "laser/laser_db.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace laser {
namespace {

class LaserDbAdvancedTest : public ::testing::Test {
 protected:
  static constexpr int kColumns = 6;
  static constexpr int kLevels = 4;

  void SetUp() override {
    env_ = NewMemEnv();
    Reopen();
  }

  LaserOptions MakeOptions() {
    LaserOptions options = test::TinyTreeOptions(env_.get(), "/adv", kColumns,
                                                 kLevels);
    options.cg_config = CgConfig::EquiWidth(kColumns, kLevels, 3);
    return options;
  }

  void Reopen(LaserOptions options = LaserOptions()) {
    db_.reset();
    if (options.path.empty()) options = MakeOptions();
    ASSERT_TRUE(LaserDB::Open(options, &db_).ok());
  }

  std::vector<ColumnValue> Row(uint64_t key) {
    return test::TestRow(key, kColumns);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Env> wrapped_env_;  // outlives db_
  std::unique_ptr<LaserDB> db_;
};

/// Slows every unlink, so a wait that returned before the I/O helpers had
/// run their queued unlinks would leave files on disk.
class SlowRemoveEnv final : public test::SyncHookEnv {
 public:
  explicit SlowRemoveEnv(Env* base) : SyncHookEnv(base, [](const std::string&) {}) {}

  Status RemoveFile(const std::string& fname) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return SyncHookEnv::RemoveFile(fname);
  }
};

TEST_F(LaserDbAdvancedTest, ObsoleteFilesAreDeletedFromDisk) {
  auto ssts_on_disk = [&] {
    std::vector<std::string> children;
    EXPECT_TRUE(env_->GetChildren("/adv", &children).ok());
    std::set<std::string> on_disk;
    for (const auto& name : children) {
      if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
        on_disk.insert(name);
      }
    }
    return on_disk;
  };
  auto live_ssts = [&] {
    auto version = db_->current_version();
    std::set<std::string> referenced;
    for (int level = 0; level < version->num_levels(); ++level) {
      for (int group = 0; group < version->num_groups(level); ++group) {
        for (const auto& f : version->files(level, group)) {
          referenced.insert(SstFileName(f->file_number));
        }
      }
    }
    return referenced;
  };
  auto overwrite = [&](uint64_t value_base) {
    for (uint64_t k = 0; k < 3000; ++k) {
      ASSERT_TRUE(db_->Insert(k, Row(k + value_base)).ok());
    }
  };
  const ColumnSet all = MakeColumnRange(1, kColumns);
  wrapped_env_ = std::make_unique<SlowRemoveEnv>(env_.get());
  LaserOptions options = MakeOptions();
  options.env = wrapped_env_.get();
  Reopen(options);

  // Unlinks run on the I/O thread, and both waits drain it: every .sst in
  // the directory must then be referenced by the current version.
  overwrite(0);
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  EXPECT_EQ(ssts_on_disk(), live_ssts()) << "after CompactUntilStable";
  EXPECT_FALSE(ssts_on_disk().empty());
  overwrite(1);
  db_->WaitForBackgroundWork();
  EXPECT_EQ(ssts_on_disk(), live_ssts()) << "after WaitForBackgroundWork";

  // A scan opened before a compaction keeps the files it retires until the
  // scan is released; the next drain then removes them.
  auto scan = db_->NewScan(0, 3000, all);
  ASSERT_NE(scan, nullptr);
  const std::set<std::string> pinned = live_ssts();
  overwrite(2);
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  std::set<std::string> expected = live_ssts();
  size_t retired = 0;
  for (const std::string& name : pinned) retired += expected.insert(name).second;
  EXPECT_GT(retired, 0u) << "the compaction retired no pinned file";
  EXPECT_EQ(ssts_on_disk(), expected) << "pinned files must stay";
  scan.reset();
  EXPECT_EQ(ssts_on_disk(), expected) << "nothing is unlinked before a drain";
  db_->WaitForBackgroundWork();
  EXPECT_EQ(ssts_on_disk(), live_ssts()) << "released files outlived the drain";

  // Closing the DB while its unlinks are queued (the close itself queues
  // the released scan's files) leaves no unreferenced SST. Checked before
  // any reopen, whose recovery would delete a leftover.
  scan = db_->NewScan(0, 3000, all);
  ASSERT_NE(scan, nullptr);
  overwrite(3);
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  scan.reset();
  const std::set<std::string> live = live_ssts();
  db_.reset();
  EXPECT_EQ(ssts_on_disk(), live) << "after close";
}

TEST_F(LaserDbAdvancedTest, WriteStallsAreRecordedUnderLoad) {
  LaserOptions options = MakeOptions();
  options.level0_stop_writes_trigger = 5;
  options.level0_file_compaction_trigger = 4;
  options.background_threads = 1;
  Reopen(options);
  for (uint64_t k = 0; k < 20000; ++k) {
    ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  }
  db_->WaitForBackgroundWork();
  // With a tiny stop trigger and one background thread, some stall must
  // have occurred (this is the §7.2 insert-throughput backpressure).
  EXPECT_GT(db_->stats().write_stall_micros.load() +
                db_->stats().compaction_jobs.load(),
            0u);
}

TEST_F(LaserDbAdvancedTest, ConcurrentReadersWhileWriting) {
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::atomic<uint64_t> write_done{0};

  std::thread writer([&] {
    for (uint64_t k = 0; k < 20000; ++k) {
      if (!db_->Insert(k, Row(k)).ok()) break;
      write_done.store(k + 1, std::memory_order_release);
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Random rng(t + 1);
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t upper = write_done.load(std::memory_order_acquire);
        if (upper == 0) continue;
        const uint64_t key = rng.Uniform(upper);
        LaserDB::ReadResult result;
        if (!db_->Read(key, {1, kColumns}, &result).ok() || !result.found ||
            *result.values[0] != key * 100 + 1) {
          ++read_errors;
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(read_errors.load(), 0);
  db_->WaitForBackgroundWork();
}

TEST_F(LaserDbAdvancedTest, ConcurrentScansWhileWriting) {
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  std::atomic<bool> stop{false};
  std::atomic<int> scan_errors{0};

  std::thread scanner([&] {
    while (!stop.load()) {
      auto scan = db_->NewScan(100, 300, {2});
      uint64_t prev = 0;
      bool first = true;
      for (; scan->Valid(); scan->Next()) {
        if (!first && scan->key() <= prev) ++scan_errors;  // must be sorted
        prev = scan->key();
        first = false;
      }
      if (!scan->status().ok()) ++scan_errors;
    }
  });
  for (uint64_t k = 2000; k < 12000; ++k) {
    ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  }
  stop.store(true);
  scanner.join();
  EXPECT_EQ(scan_errors.load(), 0);
}

TEST_F(LaserDbAdvancedTest, ScanIsolatedFromConcurrentDeletes) {
  for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  auto scan = db_->NewScan(0, 499, {1});
  // Delete everything after the scan snapshot was taken.
  for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(db_->Delete(k).ok());
  uint64_t rows = 0;
  for (; scan->Valid(); scan->Next()) ++rows;
  EXPECT_EQ(rows, 500u);  // the pinned snapshot still sees all rows
}

TEST_F(LaserDbAdvancedTest, ManyReopenCyclesPreserveData) {
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (uint64_t k = cycle * 100; k < (cycle + 1) * 100u; ++k) {
      ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
    }
    Reopen();
    for (uint64_t k = 0; k < (cycle + 1) * 100u; k += 37) {
      LaserDB::ReadResult result;
      ASSERT_TRUE(db_->Read(k, {1}, &result).ok());
      ASSERT_TRUE(result.found) << "cycle " << cycle << " key " << k;
    }
  }
}

TEST_F(LaserDbAdvancedTest, TornWalTailRecoversPrefix) {
  for (uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  db_.reset();

  // Truncate the newest WAL mid-record.
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/adv", &children).ok());
  std::string wal_name;
  for (const auto& name : children) {
    if (name.size() > 4 && name.substr(name.size() - 4) == ".wal") {
      if (name > wal_name) wal_name = name;
    }
  }
  ASSERT_FALSE(wal_name.empty());
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString("/adv/" + wal_name, &contents).ok());
  ASSERT_GT(contents.size(), 10u);
  ASSERT_TRUE(env_->WriteStringToFile(
                      Slice(contents.data(), contents.size() - 7),
                      "/adv/" + wal_name)
                  .ok());

  Reopen();
  // All but at most the torn record must be readable.
  int found = 0;
  for (uint64_t k = 0; k < 50; ++k) {
    LaserDB::ReadResult result;
    ASSERT_TRUE(db_->Read(k, {1}, &result).ok());
    if (result.found) ++found;
  }
  EXPECT_GE(found, 48);
}

TEST_F(LaserDbAdvancedTest, CorruptManifestFailsOpenLoudly) {
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  ASSERT_TRUE(db_->Flush().ok());
  db_.reset();

  std::string manifest;
  ASSERT_TRUE(env_->ReadFileToString("/adv/MANIFEST", &manifest).ok());
  manifest[manifest.size() / 3] ^= 0x10;
  ASSERT_TRUE(env_->WriteStringToFile(Slice(manifest), "/adv/MANIFEST").ok());

  std::unique_ptr<LaserDB> db;
  Status s = LaserDB::Open(MakeOptions(), &db);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(LaserDbAdvancedTest, CompactionPrioritiesBothConverge) {
  for (CompactionPriority priority :
       {CompactionPriority::kByCompensatedSize,
        CompactionPriority::kOldestSmallestSeqFirst}) {
    LaserOptions options = MakeOptions();
    options.path = priority == CompactionPriority::kByCompensatedSize
                       ? "/adv_size"
                       : "/adv_time";
    options.compaction_priority = priority;
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(options, &db).ok());
    for (uint64_t k = 0; k < 4000; ++k) {
      ASSERT_TRUE(db->Insert(k * 13 % 5000, Row(k)).ok());
    }
    ASSERT_TRUE(db->CompactUntilStable().ok());
    LaserDB::ReadResult result;
    ASSERT_TRUE(db->Read(13 % 5000, {1}, &result).ok());
    EXPECT_TRUE(result.found);
  }
}

TEST_F(LaserDbAdvancedTest, WalDisabledStillWorksUntilClose) {
  LaserOptions options = MakeOptions();
  options.use_wal = false;
  options.path = "/adv_nowal";
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(db->Insert(k, Row(k)).ok());
  ASSERT_TRUE(db->Flush().ok());  // persist via flush instead of WAL
  db.reset();
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  LaserDB::ReadResult result;
  ASSERT_TRUE(db->Read(499, {1}, &result).ok());
  EXPECT_TRUE(result.found);
}

TEST_F(LaserDbAdvancedTest, SyncWalSurvivesReopen) {
  int variant = 0;
  for (WalSyncPolicy policy :
       {WalSyncPolicy::kSyncEveryWrite, WalSyncPolicy::kSyncEveryGroup}) {
    LaserOptions options = MakeOptions();
    options.wal_sync_policy = policy;
    options.path = "/adv_sync" + std::to_string(variant++);
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(options, &db).ok());
    ASSERT_TRUE(db->Insert(1, Row(1)).ok());
    db.reset();
    ASSERT_TRUE(LaserDB::Open(options, &db).ok());
    LaserDB::ReadResult result;
    ASSERT_TRUE(db->Read(1, {1}, &result).ok());
    EXPECT_TRUE(result.found);
  }
}

TEST_F(LaserDbAdvancedTest, PosixEnvEndToEnd) {
  LaserOptions options = MakeOptions();
  options.env = Env::Default();
  options.path = ::testing::TempDir() + "laser_posix_test";
  options.env->RemoveDir(options.path);
  {
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(options, &db).ok());
    for (uint64_t k = 0; k < 3000; ++k) ASSERT_TRUE(db->Insert(k, Row(k)).ok());
    ASSERT_TRUE(db->Update(100, {{2, 42}}).ok());
    ASSERT_TRUE(db->CompactUntilStable().ok());
  }
  {
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(options, &db).ok());
    LaserDB::ReadResult result;
    ASSERT_TRUE(db->Read(100, {1, 2}, &result).ok());
    ASSERT_TRUE(result.found);
    EXPECT_EQ(*result.values[0], 100u * 100 + 1);
    EXPECT_EQ(*result.values[1], 42u);
    uint64_t rows = 0;
    auto scan = db->NewScan(0, 5000, {kColumns});
    for (; scan->Valid(); scan->Next()) ++rows;
    EXPECT_EQ(rows, 3000u);
  }
  options.env->RemoveDir(options.path);
}

TEST_F(LaserDbAdvancedTest, LargeValuesAcrossBlocks) {
  // A 100-column schema makes each row span a noticeable chunk of a block.
  LaserOptions options = MakeOptions();
  options.path = "/adv_wide";
  options.schema = Schema::UniformInt32(100);
  options.cg_config = CgConfig::EquiWidth(100, kLevels, 10);
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  std::vector<ColumnValue> row(100);
  for (int c = 0; c < 100; ++c) row[c] = c + 1;
  for (uint64_t k = 0; k < 500; ++k) ASSERT_TRUE(db->Insert(k, row).ok());
  ASSERT_TRUE(db->CompactUntilStable().ok());
  LaserDB::ReadResult result;
  ASSERT_TRUE(db->Read(250, {55}, &result).ok());
  ASSERT_TRUE(result.found);
  EXPECT_EQ(*result.values[0], 55u);
}

TEST_F(LaserDbAdvancedTest, StatsAccumulateAcrossOperations) {
  for (uint64_t k = 0; k < 2000; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  EXPECT_GT(db_->stats().flush_jobs.load(), 0u);
  EXPECT_GT(db_->stats().compaction_jobs.load(), 0u);
  EXPECT_GT(db_->stats().bytes_flushed.load(), 0u);
  EXPECT_GT(db_->stats().bytes_compacted.load(), 0u);
  EXPECT_GT(db_->stats().bytes_written_wal.load(), 0u);
  const std::string rendered = db_->stats().ToString();
  EXPECT_NE(rendered.find("compaction_jobs="), std::string::npos);
  // Every scalar row of the stats table is rendered as `name=value`.
  ForEachStat(
      [&rendered](StatKind, const char* name, int n, const std::atomic<uint64_t>*) {
        if (n == 1) {
          EXPECT_NE(rendered.find(std::string(name) + "="), std::string::npos) << name;
        }
      },
      db_->stats());
}

TEST_F(LaserDbAdvancedTest, EmptyDatabaseBehaves) {
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(1, {1}, &result).ok());
  EXPECT_FALSE(result.found);
  auto scan = db_->NewScan(0, 100, {1});
  ASSERT_NE(scan, nullptr);
  EXPECT_FALSE(scan->Valid());
  ASSERT_TRUE(db_->Flush().ok());
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  EXPECT_EQ(db_->LastSequence(), 0u);
}

TEST_F(LaserDbAdvancedTest, OnlineTelemetryFeedsAdvisor) {
  for (uint64_t k = 0; k < 3000; ++k) ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  ASSERT_TRUE(db_->CompactUntilStable().ok());

  // Profiled phase: inserts, updates, reads, one scan. The Stats deltas are
  // what BuildTraceFromStats hands the advisor.
  const StatsSnapshot before = db_->stats().Snapshot();
  for (uint64_t k = 3000; k < 3100; ++k) {
    ASSERT_TRUE(db_->Insert(k, Row(k)).ok());
  }
  ASSERT_TRUE(db_->Update(5, {{2, 9}}).ok());
  LaserDB::ReadResult result;
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(db_->Read(k, {1, 2}, &result).ok());
  }
  ASSERT_TRUE(db_->Read(3050, MakeColumnRange(1, kColumns), &result).ok());
  {
    auto scan = db_->NewScan(0, 500, {3});
    uint64_t rows = 0;
    for (; scan->Valid(); scan->Next()) ++rows;
    EXPECT_EQ(rows, 501u);
  }  // scan counted on destruction
  const StatsSnapshot d = db_->stats().Snapshot() - before;

  EXPECT_EQ(d.inserts, 100u);
  EXPECT_EQ(d.updates, 1u);
  EXPECT_EQ(d.updated_by_column[Stats::ColumnSlot(2)], 1u);
  EXPECT_EQ(d.updated_by_column[Stats::ColumnSlot(3)], 0u);
  for (int column : {1, 2}) {
    EXPECT_EQ(d.point_projected_by_column[Stats::ColumnSlot(column)], 51u) << column;
  }
  EXPECT_EQ(d.point_projected_by_column[Stats::ColumnSlot(3)], 1u);
  // Old keys resolved in deep levels; the fresh key resolved in level 0.
  uint64_t deep = 0;
  for (int level = 1; level < Stats::kStatsLevels; ++level) {
    deep += d.point_reads_by_level[level];
  }
  EXPECT_GT(deep, 0u);
  EXPECT_GT(d.point_reads_by_level[0], 0u);
  EXPECT_EQ(deep + d.point_reads_by_level[0], 51u);
  EXPECT_EQ(d.range_scans, 1u);
  EXPECT_EQ(d.scan_projected_by_column[Stats::ColumnSlot(3)], 1u);
  EXPECT_EQ(d.scan_projected_by_column[Stats::ColumnSlot(1)], 0u);
  EXPECT_EQ(d.scan_rows_emitted, 501u);
}

TEST_F(LaserDbAdvancedTest, DeleteNonexistentThenInsert) {
  ASSERT_TRUE(db_->Delete(77).ok());
  ASSERT_TRUE(db_->Insert(77, Row(77)).ok());
  LaserDB::ReadResult result;
  ASSERT_TRUE(db_->Read(77, {1}, &result).ok());
  ASSERT_TRUE(result.found);
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  ASSERT_TRUE(db_->Read(77, {1}, &result).ok());
  EXPECT_TRUE(result.found);
}

}  // namespace
}  // namespace laser

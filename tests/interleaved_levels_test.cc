// Scans over interleaved levels against a reference model.
//
// A rolling window rewrites every key as a new full row, in a scrambled key
// order, across CompactUntilStable rounds. So every level holds a random
// subset of the keys, most keys have an older version one or more levels
// down, and a level split in column groups often holds one group's half of a
// version without the other's. That is the shape of the HW lifecycle
// workload, where most scan rows resolve across levels. About 1% of the ops
// are single-column partial updates and about 1% are tombstones; the last
// writes stay in the memtable, and one set of scans is opened before a final
// burst of writes and compactions (a snapshot cut).
//
// Every check runs the same scan through every consumer (tests/model.h) on a
// single LaserDB and on a 2-shard ShardedLaserDB, and compares each with the
// model.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "laser/laser_db.h"
#include "laser/sharded_laser_db.h"
#include "tests/model.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace laser {
namespace {

constexpr int kColumns = 12;
constexpr int kLevels = 5;
constexpr uint64_t kSlots = 1500;
constexpr uint64_t kKeyDomain = 4000;
constexpr int kInsertsPerRound = 250;

/// Slot -> key: distinct keys in a scrambled order (1237 is coprime with
/// kKeyDomain).
uint64_t KeyOf(uint64_t slot) { return (slot * 1237) % kKeyDomain; }

ColumnValue CellValue(uint64_t key, uint64_t version, int column) {
  uint64_t x = key * 0x9e3779b97f4a7c15ull ^ (version << 40) ^
               static_cast<uint64_t>(column) * 0xc2b2ae3d27d4eb4full;
  x ^= x >> 31;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 29;
  return x & 0x7fffffffull;
}

/// Row format in L0 and L1; two column groups in L2 and L3, three in L4. The
/// projections below cross the group boundaries.
CgConfig Design() {
  const ColumnSet all = MakeColumnRange(1, kColumns);
  const std::vector<ColumnSet> halves = {MakeColumnRange(1, 8), MakeColumnRange(9, 12)};
  return CgConfig({
      {all},
      {all},
      halves,
      halves,
      {MakeColumnRange(1, 4), MakeColumnRange(5, 8), MakeColumnRange(9, 12)},
  });
}

struct ScanCase {
  uint64_t lo;
  uint64_t hi;
  ColumnSet projection;
};

/// Whole table, a middle range and a narrow one; projections that cross the
/// column groups, the whole row, and one inside a single group.
std::vector<ScanCase> Cases() {
  const ColumnSet crossing = MakeColumnRange(5, 12);
  return {
      {0, kKeyDomain, crossing},
      {0, kKeyDomain, MakeColumnRange(1, kColumns)},
      {0, kKeyDomain, {10, 11}},
      {1000, 1999, crossing},
      {1500, 1530, {3, 9}},
  };
}

/// The engine under test, one LaserDB or a 2-shard ShardedLaserDB over the
/// same per-shard options, with the model of what it holds.
class InterleavedLevelsTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    ASSERT_TRUE(env_->CreateDir("/db").ok());
    LaserOptions options = test::TinyTreeOptions(env_.get(), "/db", kColumns, kLevels);
    options.cg_config = Design();
    options.level0_bytes = 8 * 1024;  // deeper levels fill up: 16K, 32K, 64K, ...
    options.use_wal = false;
    options.disable_auto_compactions = true;
    options.background_threads = 1;
    if (GetParam()) {
      ShardedLaserOptions sharded;
      sharded.base = options;
      sharded.num_shards = 2;
      sharded.key_domain = kKeyDomain;
      ASSERT_TRUE(ShardedLaserDB::Open(sharded, &sharded_).ok());
    } else {
      ASSERT_TRUE(LaserDB::Open(options, &db_).ok());
    }
  }

  void Insert(uint64_t slot) {
    const uint64_t key = KeyOf(slot);
    const uint64_t version = ++version_[slot];
    std::vector<ColumnValue> row(kColumns);
    for (int c = 1; c <= kColumns; ++c) row[c - 1] = CellValue(key, version, c);
    const Status s = sharded_ ? sharded_->Insert(key, row) : db_->Insert(key, row);
    ASSERT_TRUE(s.ok());
    model_.Insert(key, row);
  }

  void Update(uint64_t key, int column, ColumnValue value) {
    const Status s = sharded_ ? sharded_->Update(key, {{column, value}})
                              : db_->Update(key, {{column, value}});
    ASSERT_TRUE(s.ok());
    model_.Update(key, {{column, value}});
  }

  void Delete(uint64_t key) {
    const Status s = sharded_ ? sharded_->Delete(key) : db_->Delete(key);
    ASSERT_TRUE(s.ok());
    model_.Delete(key);
  }

  void Compact() {
    const Status s =
        sharded_ ? sharded_->CompactUntilStable() : db_->CompactUntilStable();
    ASSERT_TRUE(s.ok());
  }

  /// One op of the rolling window: the next slot's full row, and now and
  /// then a partial update or a tombstone of a random key (absent keys
  /// included).
  void RollingOp(Random* rng) {
    Insert(next_slot_++ % kSlots);
    if (rng->OneIn(100)) {
      Update(rng->Uniform(kKeyDomain), 1 + static_cast<int>(rng->Uniform(kColumns)),
             rng->Uniform(1u << 30));
    }
    if (rng->OneIn(100)) Delete(KeyOf(rng->Uniform(kSlots)));
  }

  /// The initial load in scrambled key order, then three passes of the
  /// rolling window, compacted every kInsertsPerRound inserts; the last
  /// 100 inserts stay in the memtable.
  void Load() {
    version_.assign(kSlots, 0);
    Random rng(22);
    const uint64_t ops = 4 * kSlots;
    for (uint64_t i = 0; i < ops; ++i) {
      RollingOp(&rng);
      if ((i + 1) % kInsertsPerRound == 0 && i + 100 < ops) Compact();
    }
  }

  template <typename Db>
  void CheckAll(Db* db) {
    for (const ScanCase& c : Cases()) {
      SCOPED_TRACE(std::string("[")
                       .append(std::to_string(c.lo))
                       .append(", ")
                       .append(std::to_string(c.hi))
                       .append("] width ")
                       .append(std::to_string(c.projection.size())));
      test::ExpectScanMatches(db, model_, c.lo, c.hi, c.projection);
    }
  }

  void Check() {
    if (sharded_) {
      CheckAll(sharded_.get());
    } else {
      CheckAll(db_.get());
    }
  }

  /// Opens every case's scans, applies a burst of writes, a flush and the
  /// compactions that fold away the versions the scans read, then checks
  /// the scans against the model as it was when they were opened.
  template <typename Db>
  void CheckSnapshotCut(Db* db) {
    using Scans = decltype(test::OpenConsumerScans(db, 0, 0, ColumnSet{1}));
    std::vector<Scans> open;
    for (const ScanCase& c : Cases()) {
      open.push_back(test::OpenConsumerScans(db, c.lo, c.hi, c.projection));
    }
    const test::Model frozen = model_;
    Random rng(7);
    for (int i = 0; i < 300; ++i) RollingOp(&rng);
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->CompactUntilStable().ok());
    for (int i = 0; i < 60; ++i) RollingOp(&rng);
    const std::vector<ScanCase> cases = Cases();
    for (size_t i = 0; i < cases.size(); ++i) {
      SCOPED_TRACE("snapshot cut, case " + std::to_string(i));
      const ScanCase& c = cases[i];
      test::ExpectScanMatches(&open[i], test::Expected(frozen, c.lo, c.hi, c.projection));
    }
  }

  /// The engine's scan_zip_rows and scan_heap_resifts counters.
  std::pair<uint64_t, uint64_t> ZipRowsAndResifts() const {
    Stats stats;
    if (sharded_) {
      sharded_->AggregateStats(&stats);
    } else {
      db_->stats().AddCountersTo(&stats);
    }
    return {stats.scan_zip_rows.load(), stats.scan_heap_resifts.load()};
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<LaserDB> db_;
  std::unique_ptr<ShardedLaserDB> sharded_;
  test::Model model_;
  std::vector<uint64_t> version_;
  uint64_t next_slot_ = 0;
};

TEST_P(InterleavedLevelsTest, ScansMatchModel) {
  Load();
  Check();
}

TEST_P(InterleavedLevelsTest, SnapshotCutScansMatchModel) {
  Load();
  if (sharded_) {
    CheckSnapshotCut(sharded_.get());
  } else {
    CheckSnapshotCut(db_.get());
  }
  // The cut's writes are visible to scans opened afterwards.
  Check();
}

// Most keys of this tree tie across levels. The run merge carries those rows
// (scan_zip_rows) and rebuilds the heap once per window instead of
// re-sifting it per key: the per-row tie fold it replaced took 6226 heap
// re-sifts for this scan on one engine and 7068 on two shards.
TEST_P(InterleavedLevelsTest, TiedRowsMergeAtRunGranularity) {
  Load();
  const ColumnSet crossing = MakeColumnRange(5, 12);
  const auto [zip_before, resifts_before] = ZipRowsAndResifts();
  const test::Rows got =
      sharded_ ? test::DrainBatches(sharded_->NewScan(0, kKeyDomain, crossing).get())
               : test::DrainBatches(db_->NewScan(0, kKeyDomain, crossing).get());
  const auto [zip_after, resifts_after] = ZipRowsAndResifts();
  test::ExpectSameRows(got, test::Expected(model_, 0, kKeyDomain, crossing));
  EXPECT_GT(zip_after - zip_before, 0u);
  EXPECT_LT(resifts_after - resifts_before, sharded_ ? 7068u : 6226u);
}

INSTANTIATE_TEST_SUITE_P(Engines, InterleavedLevelsTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Sharded" : "Single";
                         });

}  // namespace
}  // namespace laser

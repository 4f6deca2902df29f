// Predicated scans and pushed aggregates against a reference model, on trees
// shaped the way key-range narrowing (scan_pushdown.h) has to stay exact on:
// a shuffled load whose predicate column is clustered with the key, newer
// partial updates and tombstones over it, an overlay that holds none of the
// predicate column, predicates answered by different levels, a live
// memtable, predicates no row can satisfy, and trees morphed in stages.
//
// Every check runs the same scan through every consumer (tests/model.h) on a
// single LaserDB and on a 2-shard ShardedLaserDB, and compares each with the
// model.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "laser/laser_db.h"
#include "laser/sharded_laser_db.h"
#include "tests/model.h"
#include "tests/test_util.h"

namespace laser {
namespace {

constexpr int kColumns = 8;
constexpr int kLevels = 4;
constexpr uint64_t kKeys = 2000;
const ColumnSet kProjection = {1, 3, 6};

/// Column 1 holds the key itself (clustered with it); the others are a
/// deterministic scramble of (key, column) in [0, 2^16).
ColumnValue BaseValue(uint64_t key, int column) {
  if (column == 1) return key;
  return (key * 2654435761u + static_cast<uint64_t>(column) * 40503u) % 65536u;
}

std::vector<ColumnValue> BaseRow(uint64_t key) {
  std::vector<ColumnValue> row(kColumns);
  for (int c = 1; c <= kColumns; ++c) row[c - 1] = BaseValue(key, c);
  return row;
}

ScanPredicate Between(int column, uint64_t lo, uint64_t hi) {
  return {column, PredOp::kBetween, lo, hi};
}

ScanSpec Spec(std::vector<ScanPredicate> predicates) {
  ScanSpec spec;
  spec.predicates = std::move(predicates);
  return spec;
}

/// The engine under test, one LaserDB or a 2-shard ShardedLaserDB over the
/// same per-shard options, with the model of what it holds.
class ScanRangeNarrowingTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    ASSERT_TRUE(env_->CreateDir("/db").ok());
    LaserOptions options = test::TinyTreeOptions(env_.get(), "/db", kColumns, kLevels);
    options.cg_config = CgConfig::EquiWidth(kColumns, kLevels, 2);
    options.use_wal = false;
    options.disable_auto_compactions = true;
    options.background_threads = 1;
    options.block_cache_bytes = 0;  // every block fetch is a counted read
    if (GetParam()) {
      ShardedLaserOptions sharded;
      sharded.base = options;
      sharded.num_shards = 2;
      sharded.key_domain = kKeys;
      ASSERT_TRUE(ShardedLaserDB::Open(sharded, &sharded_).ok());
    } else {
      ASSERT_TRUE(LaserDB::Open(options, &db_).ok());
    }
  }

  void Insert(uint64_t key, const std::vector<ColumnValue>& row) {
    const Status s = sharded_ ? sharded_->Insert(key, row) : db_->Insert(key, row);
    ASSERT_TRUE(s.ok());
    model_.Insert(key, row);
  }

  void Update(uint64_t key, const std::vector<ColumnValuePair>& values) {
    const Status s = sharded_ ? sharded_->Update(key, values) : db_->Update(key, values);
    ASSERT_TRUE(s.ok());
    model_.Update(key, values);
  }

  void Delete(uint64_t key) {
    const Status s = sharded_ ? sharded_->Delete(key) : db_->Delete(key);
    ASSERT_TRUE(s.ok());
    model_.Delete(key);
  }

  void Flush() { ASSERT_TRUE(sharded_ ? sharded_->Flush().ok() : db_->Flush().ok()); }

  void Compact() {
    const Status s =
        sharded_ ? sharded_->CompactUntilStable() : db_->CompactUntilStable();
    ASSERT_TRUE(s.ok());
  }

  void SetTargetDesign(const CgConfig& design) {
    if (!sharded_) {
      ASSERT_TRUE(db_->SetTargetDesign(design).ok());
      return;
    }
    for (int i = 0; i < sharded_->num_shards(); ++i) {
      ASSERT_TRUE(sharded_->shard(i)->SetTargetDesign(design).ok());
    }
  }

  uint64_t DataBlockReads() const {
    if (!sharded_) return db_->stats().data_block_reads.load();
    Stats stats;
    sharded_->AggregateStats(&stats);
    return stats.data_block_reads.load();
  }

  /// Data blocks one NextBatch drain of the scan of `kProjection` reads;
  /// checks its rows.
  uint64_t BlocksRead(uint64_t lo, uint64_t hi, const ScanSpec& spec) {
    const uint64_t before = DataBlockReads();
    const test::Rows rows =
        sharded_ ? test::DrainBatches(sharded_->NewScan(lo, hi, kProjection, spec).get())
                 : test::DrainBatches(db_->NewScan(lo, hi, kProjection, spec).get());
    test::ExpectSameRows(rows, test::Expected(model_, lo, hi, kProjection, spec));
    return DataBlockReads() - before;
  }

  /// The whole table in a shuffled key order, compacted every 500 rows into
  /// a multi-level tree, with the last rows left in an L0 file that spans
  /// the key range (olap_scan's settled shape, scaled down).
  void LoadShuffled() {
    const uint64_t step = 769;  // prime, coprime with kKeys
    for (uint64_t p = 0; p < kKeys; ++p) {
      const uint64_t key = (p * step) % kKeys;
      Insert(key, BaseRow(key));
      if ((p + 1) % 500 == 0 && p + 1 < kKeys) Compact();
    }
    Flush();
  }

  /// Checks one scan on every consumer against the model.
  void Check(uint64_t lo, uint64_t hi, const ScanSpec& spec,
             const ColumnSet& projection = kProjection) {
    if (sharded_) {
      test::ExpectScanMatches(sharded_.get(), model_, lo, hi, projection, spec);
    } else {
      test::ExpectScanMatches(db_.get(), model_, lo, hi, projection, spec);
    }
  }

  /// A sweep of predicate shapes over the whole table and a sub-range.
  void CheckSweep() {
    const std::vector<ScanSpec> specs = {
        Spec({Between(1, 0, 99)}),
        Spec({Between(1, 700, 799)}),
        Spec({Between(1, 1900, kKeys + 50)}),
        Spec({{1, PredOp::kLt, 40, 0}}),
        Spec({{1, PredOp::kGt, 1950, 0}}),
        Spec({{1, PredOp::kEq, 1234, 0}}),
        Spec({Between(1, 300, 600), {3, PredOp::kLt, 30000, 0}}),
        Spec({{6, PredOp::kGe, 60000, 0}}),
    };
    for (size_t i = 0; i < specs.size(); ++i) {
      SCOPED_TRACE("spec " + std::to_string(i));
      Check(0, kKeys - 1, specs[i]);
      Check(500, 1500, specs[i]);
    }
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<LaserDB> db_;
  std::unique_ptr<ShardedLaserDB> sharded_;
  test::Model model_;
};

TEST_P(ScanRangeNarrowingTest, ClusteredShuffledLoad) {
  LoadShuffled();
  CheckSweep();
  Compact();
  CheckSweep();

  // The narrowed scan reads fewer blocks than the same scan once memtable
  // rows outside its range (one per shard) turn narrowing off.
  const ScanSpec spec = Spec({Between(1, 700, 799)});
  const uint64_t narrowed = BlocksRead(500, 1500, spec);
  Update(0, {{2, 1}});
  Update(kKeys - 1, {{2, 1}});
  const uint64_t unnarrowed = BlocksRead(500, 1500, spec);
  EXPECT_LT(narrowed, unnarrowed);
}

TEST_P(ScanRangeNarrowingTest, PartialUpdateMakesRowMatchOrStopMatching) {
  LoadShuffled();
  // Key 1500 starts matching BETWEEN(1, 700, 799); key 750 stops. Both
  // updates sit in a newer level than the values they replace.
  Update(1500, {{1, 720}, {3, 5}});
  Update(750, {{1, 1750}});
  Flush();
  const ScanSpec spec = Spec({Between(1, 700, 799)});
  Check(0, kKeys - 1, spec);
  Check(0, 1000, spec);
  Check(1200, kKeys - 1, spec);
  Compact();
  Check(0, kKeys - 1, spec);
}

TEST_P(ScanRangeNarrowingTest, TombstoneOverMatchingRow) {
  LoadShuffled();
  for (uint64_t key = 700; key <= 720; ++key) Delete(key);
  Delete(799);
  Flush();
  const ScanSpec spec = Spec({Between(1, 700, 799)});
  Check(0, kKeys - 1, spec);
  Check(700, 720, spec);
  Compact();
  Check(0, kKeys - 1, spec);
}

TEST_P(ScanRangeNarrowingTest, PredicatesWonAtDifferentLevels) {
  LoadShuffled();
  Compact();
  // Column 5's winning values for keys 650-849 come from a newer L0 file;
  // column 1's from the levels below it.
  for (uint64_t key = 650; key < 850; ++key) Update(key, {{5, 90000 + key}});
  Flush();
  const ColumnSet projection = {1, 5, 6};
  const ScanSpec spec = Spec({Between(1, 700, 999), {5, PredOp::kGe, 90000, 0}});
  Check(0, kKeys - 1, spec, projection);
  Check(800, 900, spec, projection);
  Compact();
  Check(0, kKeys - 1, spec, projection);
}

TEST_P(ScanRangeNarrowingTest, OverlayWithoutPredicateColumn) {
  LoadShuffled();
  Compact();
  // Partial rows over the whole key range that hold no column-1 value, some
  // for keys with no row at all.
  for (uint64_t key = 3; key < kKeys; key += 7) {
    Update(key, {{3, key % 97}, {6, key % 89}});
  }
  Flush();
  CheckSweep();
  Compact();
  CheckSweep();
}

TEST_P(ScanRangeNarrowingTest, NonEmptyMemtable) {
  LoadShuffled();
  Compact();
  // Unflushed: a row that starts matching, one that stops, a tombstone and a
  // new partial row without column 1.
  Update(1600, {{1, 710}});
  Update(740, {{1, 5}});
  Delete(760);
  Update(780, {{1, 785}, {3, 1}});
  Insert(kKeys - 1, BaseRow(730));
  CheckSweep();
}

TEST_P(ScanRangeNarrowingTest, EmptyHull) {
  LoadShuffled();
  // No stored value of column 1 can pass, alone or with a second predicate
  // whose own hull is disjoint from the first one's.
  Check(0, kKeys - 1, Spec({Between(1, kKeys + 10, kKeys + 500)}));
  Check(0, kKeys - 1, Spec({{1, PredOp::kGt, kKeys, 0}}));
  Check(0, kKeys - 1, Spec({Between(1, 0, 50), Between(1, 1500, 1600)}));
  Check(200, 400, Spec({Between(1, 1500, 1600)}));
  Compact();
  Check(0, kKeys - 1, Spec({Between(1, 0, 50), Between(1, 1500, 1600)}));
}

TEST_P(ScanRangeNarrowingTest, MidMorphTree) {
  LoadShuffled();
  Compact();
  for (uint64_t key = 100; key < kKeys; key += 13) Update(key, {{1, key + 3}});
  Flush();
  // Morph the tree toward one column per group in stages: stage k keeps
  // levels [1, k) in width-2 groups and lays [k, kLevels) out columnar.
  const CgConfig start = CgConfig::EquiWidth(kColumns, kLevels, 2);
  const CgConfig columnar = CgConfig::ColumnOnly(kColumns, kLevels);
  for (int k = kLevels - 1; k >= 1; --k) {
    SCOPED_TRACE("stage " + std::to_string(k));
    std::vector<std::vector<ColumnSet>> levels;
    for (int level = 0; level < kLevels; ++level) {
      levels.push_back((level < k ? start : columnar).groups(level));
    }
    const CgConfig stage(std::move(levels));
    SetTargetDesign(stage);
    Compact();
    CheckSweep();
  }
}

// AggregateAll counts the rows the same scan would emit. In a compacted
// row-format tree whose odd keys are partial rows without column 1, a scan of
// {1} emits only the 350 full rows; blocks answered from their zone maps must
// not count the partial rows, which hold no projected value.
TEST(ScanAggregateRowsTest, RowsWithoutProjectedValuesAreNotCounted) {
  constexpr uint64_t kRows = 700;
  auto env = NewMemEnv();
  ASSERT_TRUE(env->CreateDir("/db").ok());
  LaserOptions options = test::TinyTreeOptions(env.get(), "/db", kColumns, kLevels);
  options.cg_config = CgConfig::RowOnly(kColumns, kLevels);
  options.use_wal = false;
  options.disable_auto_compactions = true;
  options.background_threads = 1;
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  test::Model model;
  for (uint64_t key = 0; key < kRows; ++key) {
    if (key % 2 == 0) {
      ASSERT_TRUE(db->Insert(key, BaseRow(key)).ok());
      model.Insert(key, BaseRow(key));
    } else {
      ASSERT_TRUE(db->Update(key, {{2, key}}).ok());
      model.Update(key, {{2, key}});
    }
  }
  ASSERT_TRUE(db->CompactUntilStable().ok());

  const ColumnSet projection = {1};
  ASSERT_EQ(test::Expected(model, 0, kRows - 1, projection).size(), kRows / 2);
  test::ExpectScanMatches(db.get(), model, 0, kRows - 1, projection);
}

std::string EngineName(const ::testing::TestParamInfo<bool>& info) {
  return info.param ? "Sharded" : "Single";
}

INSTANTIATE_TEST_SUITE_P(Engines, ScanRangeNarrowingTest, ::testing::Bool(), EngineName);

}  // namespace
}  // namespace laser

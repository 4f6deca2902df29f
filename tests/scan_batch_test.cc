// The batched scan path's targeted cases: empty ranges, batch capacity,
// zip-path trees whose column groups diverge mid-run, pushdown API errors,
// zone-map aggregation folds, and scans that merge nothing at open. The
// randomized differential history lives in model_sweep_test; every check
// here goes through the same consumers and model (tests/model.h).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "laser/laser_db.h"
#include "laser/sharded_laser_db.h"
#include "tests/model.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace laser {
namespace {

constexpr int kColumns = 10;
constexpr int kLevels = 5;
constexpr uint64_t kKeySpace = 700;

// A scan opened on an empty range (or empty database) terminates cleanly in
// both styles.
TEST(ScanBatchTest, EmptyRangeAndEmptyDb) {
  auto env = NewMemEnv();
  LaserOptions options = test::TinyTreeOptions(env.get(), "/db", 4, 3);
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());

  auto scan = db->NewScan(10, 20, {1, 2});
  ASSERT_NE(scan, nullptr);
  EXPECT_FALSE(scan->Valid());
  ScanBatch batch;
  EXPECT_EQ(db->NewScan(10, 20, {1})->NextBatch(&batch), 0u);

  ASSERT_TRUE(db->Insert(5, {1, 2, 3, 4}).ok());
  ASSERT_TRUE(db->Insert(30, {5, 6, 7, 8}).ok());
  EXPECT_EQ(db->NewScan(10, 20, {1})->NextBatch(&batch), 0u);
  EXPECT_EQ(db->NewScan(0, 100, {1})->NextBatch(&batch), 2u);
}

// Regression (EnsureColumnCapacity pairing): the pre-fix code grew `present`
// only under the `values.size() < rows` check, so a caller that resized one
// vector independently left the pair silently diverged — later index writes
// then ran past the short vector. EnsureColumnCapacity is the single growth
// site and must restore values.size() == present.size() >= rows no matter
// how a consumer mangled the vectors.
TEST(ScanBatchTest, EnsureColumnCapacityRepairsDivergedVectors) {
  ScanBatch batch;
  batch.Reset(3);
  batch.EnsureColumnCapacity(8);
  for (const ScanBatch::Column& column : batch.columns) {
    EXPECT_EQ(column.values.size(), 8u);
    EXPECT_EQ(column.present.size(), 8u);
  }

  // A consumer shrank `present` below `values`: the old code saw
  // values.size() >= rows and grew NEITHER, leaving present too short.
  batch.columns[0].present.resize(2);
  batch.EnsureColumnCapacity(8);
  EXPECT_EQ(batch.columns[0].present.size(), 8u);
  EXPECT_EQ(batch.columns[0].values.size(), 8u);

  // The opposite divergence (present longer than values) must also heal,
  // and growth keeps the pairing.
  batch.columns[1].present.resize(32);
  batch.EnsureColumnCapacity(16);
  EXPECT_EQ(batch.columns[1].values.size(), batch.columns[1].present.size());
  EXPECT_GE(batch.columns[1].values.size(), 16u);

  // Shrinking requests never shrink storage (capacity is sticky).
  batch.EnsureColumnCapacity(1);
  EXPECT_GE(batch.columns[0].values.size(), 8u);
  EXPECT_EQ(batch.columns[0].values.size(), batch.columns[0].present.size());
}

// -- zip-path targeted coverage: CG-size-2/3 designs where every level is a
// stack of small column groups advancing in lockstep --

/// Every consumer over [lo, hi] x projection, plus NextBatch at sizes that
/// straddle zip splice boundaries (up to larger than the range), so zip<->fold
/// flips happen at batch edges.
void CheckAllStyles(LaserDB* db, const test::Model& model, uint64_t lo, uint64_t hi,
                    const ColumnSet& projection, const char* what) {
  SCOPED_TRACE(what);
  ASSERT_NO_FATAL_FAILURE(test::ExpectScanMatches(db, model, lo, hi, projection));
  const test::Rows want = test::Expected(model, lo, hi, projection);
  for (const size_t batch_rows :
       {size_t{2}, size_t{5}, size_t{29}, size_t{173}, size_t{4096}}) {
    SCOPED_TRACE("NextBatch " + std::to_string(batch_rows));
    const auto scan = db->NewScan(lo, hi, projection);
    test::ExpectSameRows(test::DrainBatches(scan.get(), batch_rows), want);
  }
}

class ZipPathTest : public ::testing::TestWithParam<int> {
 protected:
  /// Opens a tiny tree with CG size GetParam() (2 or 3).
  std::unique_ptr<LaserDB> OpenDb(Env* env) {
    LaserOptions options =
        test::TinyTreeOptions(env, "/zipdb", kColumns, kLevels);
    options.cg_config =
        CgConfig::EquiWidth(kColumns, kLevels, GetParam());
    std::unique_ptr<LaserDB> db;
    EXPECT_TRUE(LaserDB::Open(options, &db).ok());
    return db;
  }
};

// Clean contiguous rows with islands of partial updates: the zip must
// diverge mid-run at every island (only the updated column's group carries
// the extra version) and re-engage after it.
TEST_P(ZipPathTest, DivergenceMidRunFromPartialUpdates) {
  auto env = NewMemEnv();
  auto db = OpenDb(env.get());
  test::Model model;
  const uint64_t n = 400;
  for (uint64_t k = 0; k < n; ++k) {
    const auto row = test::TestRow(k, kColumns);
    ASSERT_TRUE(db->Insert(k, row).ok());
    model.Insert(k, row);
  }
  ASSERT_TRUE(db->CompactUntilStable().ok());
  // Update one column (one group) of every 17th key AFTER settling, so the
  // newer partial version sits above the settled full rows.
  for (uint64_t k = 3; k < n; k += 17) {
    const int column = 1 + static_cast<int>(k % kColumns);
    ASSERT_TRUE(db->Update(k, {{column, k * 7}}).ok());
    model.Update(k, {{column, k * 7}});
  }
  ASSERT_TRUE(db->Flush().ok());

  CheckAllStyles(db.get(), model, 0, n, MakeColumnRange(1, kColumns),
                 "divergence-mid-run");
  CheckAllStyles(db.get(), model, 120, 260, {1, 2, 9, 10},
                 "divergence-mid-run narrow");

  // And again after full compaction folds the islands back into full rows
  // (the zip steady state).
  ASSERT_TRUE(db->CompactUntilStable().ok());
  CheckAllStyles(db.get(), model, 0, n, MakeColumnRange(1, kColumns),
                 "divergence-mid-run settled");
}

// A tombstone resurrected in ONE column group only: delete the whole row,
// then partial-update columns of a single group. That group's cursor sees a
// newer value while every other group's newest version is the tombstone —
// the zip must veto these keys and the fold must keep the per-group
// tri-state semantics.
TEST_P(ZipPathTest, TombstoneInOneColumnGroupOnly) {
  auto env = NewMemEnv();
  auto db = OpenDb(env.get());
  test::Model model;
  const uint64_t n = 300;
  for (uint64_t k = 0; k < n; ++k) {
    const auto row = test::TestRow(k, kColumns);
    ASSERT_TRUE(db->Insert(k, row).ok());
    model.Insert(k, row);
  }
  ASSERT_TRUE(db->CompactUntilStable().ok());
  for (uint64_t k = 5; k < n; k += 23) {
    ASSERT_TRUE(db->Delete(k).ok());
    model.Delete(k);
    // Columns 1..cg_size form exactly the first group of every level.
    ASSERT_TRUE(db->Update(k, {{1, k + 1000}}).ok());
    model.Update(k, {{1, k + 1000}});
  }
  ASSERT_TRUE(db->Flush().ok());

  CheckAllStyles(db.get(), model, 0, n, MakeColumnRange(1, kColumns),
                 "tombstone-one-group");
  // Projection entirely inside the resurrected group, and entirely outside.
  CheckAllStyles(db.get(), model, 0, n, {1}, "tombstone-one-group inside");
  CheckAllStyles(db.get(), model, 0, n, {kColumns},
                 "tombstone-one-group outside");

  ASSERT_TRUE(db->CompactUntilStable().ok());
  CheckAllStyles(db.get(), model, 0, n, MakeColumnRange(1, kColumns),
                 "tombstone-one-group settled");
}

// Zip<->fold mode flips across batch boundaries: every batch boundary lands
// the merge mid-stream (often mid-splice), and the next NextBatch call must
// resume exactly where the zip stopped — including when the resume point is
// a mutation island that needs the fold.
TEST_P(ZipPathTest, ModeFlipsAcrossBatchBoundaries) {
  auto env = NewMemEnv();
  auto db = OpenDb(env.get());
  test::Model model;
  const uint64_t n = 500;
  for (uint64_t k = 0; k < n; ++k) {
    const auto row = test::TestRow(k, kColumns);
    ASSERT_TRUE(db->Insert(k, row).ok());
    model.Insert(k, row);
  }
  // Alternating mutation islands: a delete, a partial update, and a
  // re-insert every 31 keys, flushed in two waves so versions span levels.
  for (uint64_t k = 7; k < n; k += 31) {
    ASSERT_TRUE(db->Delete(k).ok());
    model.Delete(k);
  }
  ASSERT_TRUE(db->Flush().ok());
  for (uint64_t k = 13; k < n; k += 31) {
    ASSERT_TRUE(db->Update(k, {{2, k}, {kColumns, k + 1}}).ok());
    model.Update(k, {{2, k}, {kColumns, k + 1}});
  }
  for (uint64_t k = 7; k < 200; k += 62) {
    const auto row = test::TestRow(k + 9000, kColumns);
    ASSERT_TRUE(db->Insert(k, row).ok());
    model.Insert(k, row);
  }
  ASSERT_TRUE(db->CompactUntilStable().ok());

  CheckAllStyles(db.get(), model, 0, n, MakeColumnRange(1, kColumns),
                 "mode-flips");
  CheckAllStyles(db.get(), model, 50, 450, {1, 5, 6, kColumns}, "mode-flips mid");
}

INSTANTIATE_TEST_SUITE_P(CgSizes, ZipPathTest, ::testing::Values(2, 3));

// A predicate on a column outside the projection is a caller error: NewScan
// refuses it up front (the pushdown evaluates over projected vectors only).
TEST(ScanPushdownTest, PredicateColumnMustBeProjected) {
  auto env = NewMemEnv();
  LaserOptions options = test::TinyTreeOptions(env.get(), "/db", 4, 3);
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  ScanSpec spec;
  spec.predicates.push_back({3, PredOp::kGt, 5});
  EXPECT_EQ(db->NewScan(0, 100, {1, 2}, spec), nullptr);
  EXPECT_NE(db->NewScan(0, 100, {1, 2, 3}, spec), nullptr);
}

// Mode-mixing regression: a ScanIterator is either a batch cursor or a row
// cursor, never both — the two consumption styles share one underlying merge
// and mixing them silently skipped rows before the guard existed. In release
// builds (the default RelWithDebInfo defines NDEBUG) the misused call is
// inert and status() reports InvalidArgument; debug builds assert instead,
// so the release-path expectations are compiled out there.
TEST(ScanPushdownTest, MixingBatchAndRowModesIsAnError) {
#ifdef NDEBUG
  auto env = NewMemEnv();
  LaserOptions options = test::TinyTreeOptions(env.get(), "/db", 4, 3);
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  for (uint64_t k = 0; k < 50; ++k) {
    ASSERT_TRUE(db->Insert(k, test::TestRow(k, 4)).ok());
  }

  {
    // Batch first: the row API is then off limits.
    auto scan = db->NewScan(0, 49, {1, 2});
    ScanBatch batch;
    ASSERT_GT(scan->NextBatch(&batch, 8), 0u);
    EXPECT_FALSE(scan->Valid());
    EXPECT_FALSE(scan->status().ok());
    // The batch side keeps working; the error sticks in status().
    EXPECT_GT(scan->NextBatch(&batch, 8), 0u);
    EXPECT_FALSE(scan->status().ok());
  }
  {
    // Row first: NextBatch and AggregateAll are then off limits.
    auto scan = db->NewScan(0, 49, {1, 2});
    ASSERT_TRUE(scan->Valid());
    ScanBatch batch;
    EXPECT_EQ(scan->NextBatch(&batch, 8), 0u);
    EXPECT_FALSE(scan->status().ok());
    ScanAggregates aggs;
    EXPECT_FALSE(scan->AggregateAll(&aggs).ok());
  }
  {
    // AggregateAll is a batch-mode consumer.
    auto scan = db->NewScan(0, 49, {1, 2});
    ScanAggregates aggs;
    ASSERT_TRUE(scan->AggregateAll(&aggs).ok());
    EXPECT_EQ(aggs.rows, 50u);
    EXPECT_FALSE(scan->Valid());
    EXPECT_FALSE(scan->status().ok());
  }
#else
  GTEST_SKIP() << "debug builds assert on mode mixing";
#endif
}

// Zone-map aggregation fold: over a compacted tree, AggregateAll answers
// whole blocks from zone-map summaries (per-column count/sum plus min/max)
// without decoding them. The fold must (a) actually fire — the
// aggs_from_zonemap counter moves — and (b) agree exactly with the
// row-materializing reference, with and without predicates, including after
// updates and deletes reintroduce overlap that makes folds unprovable.
// Row/batch consumers over the same tree must never fold (they need the rows).
TEST(ScanPushdownTest, AggregateAllFoldsFromZoneMaps) {
  struct FoldCase {
    FoldCase(test::DesignParam d, ColumnSet p)
        : design(std::move(d)), projection(std::move(p)) {}
    test::DesignParam design;
    ColumnSet projection;
  };
  // Row-only folds a full projection; CG designs fold when the projection
  // stays inside one group's columns.
  const std::vector<FoldCase> cases = {
      {{"row", 0}, MakeColumnRange(1, kColumns)},
      {{"cg3", 3}, {1}},
      {{"col", 1}, {4}},
  };
  for (const FoldCase& fold_case : cases) {
    SCOPED_TRACE(fold_case.design.name);
    Random rng(0xf01dab1e);
    auto env = NewMemEnv();
    LaserOptions options =
        test::TinyTreeOptions(env.get(), "/db", kColumns, kLevels);
    options.cg_config = test::DesignConfig(fold_case.design, kColumns, kLevels);
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(options, &db).ok());

    test::Model model;
    for (uint64_t key = 0; key < kKeySpace; ++key) {
      std::vector<ColumnValue> row(kColumns);
      for (int c = 0; c < kColumns; ++c) row[c] = rng.Uniform(1u << 30);
      ASSERT_TRUE(db->Insert(key, row).ok());
      model.Insert(key, row);
    }
    ASSERT_TRUE(db->CompactUntilStable().ok());

    const ColumnSet& projection = fold_case.projection;
    const auto check = [&](const ScanSpec& spec, const char* what) {
      SCOPED_TRACE(what);
      test::ExpectScanMatches(db.get(), model, 0, kKeySpace, projection, spec);
    };

    // Predicate-free full-range aggregate: compacted single-version blocks
    // inside sole-contributor windows fold wholesale.
    uint64_t base = db->stats().aggs_from_zonemap.load();
    ASSERT_NO_FATAL_FAILURE(check(ScanSpec(), "predicate-free"));
    EXPECT_GT(db->stats().aggs_from_zonemap.load(), base)
        << "fold never fired on a compacted tree";

    // An always-true predicate is provable from min/max alone: still folds.
    ScanSpec all_match;
    all_match.predicates.push_back(
        {projection[0], PredOp::kLe, UINT64_MAX, 0});
    base = db->stats().aggs_from_zonemap.load();
    ASSERT_NO_FATAL_FAILURE(check(all_match, "all-match predicate"));
    EXPECT_GT(db->stats().aggs_from_zonemap.load(), base)
        << "fold never fired under an all-match predicate";

    // A selective predicate: blocks that are not provably all-match decode
    // and filter row by row; the answer stays exact either way.
    ScanSpec selective;
    selective.predicates.push_back({projection[0], PredOp::kGe, 1u << 29, 0});
    ASSERT_NO_FATAL_FAILURE(check(selective, "selective predicate"));

    // Row-materializing consumers never fold: every row still comes back.
    base = db->stats().aggs_from_zonemap.load();
    EXPECT_EQ(test::DrainCursor(db->NewScan(0, kKeySpace, projection).get()).size(),
              model.rows().size());
    EXPECT_EQ(test::DrainBatches(db->NewScan(0, kKeySpace, projection).get(), 64).size(),
              model.rows().size());
    EXPECT_EQ(db->stats().aggs_from_zonemap.load(), base)
        << "a row-materializing scan folded blocks away";

    // Updates and deletes: the fresh L0 run overlaps the deep levels, so
    // sole-contributor windows shrink and most folds stop being provable —
    // answers must stay exact through the merged path.
    for (uint64_t key = 0; key < kKeySpace; key += 3) {
      ASSERT_TRUE(db->Update(key, {{projection[0], key}}).ok());
      model.Update(key, {{projection[0], key}});
    }
    for (uint64_t key = 1; key < kKeySpace; key += 7) {
      ASSERT_TRUE(db->Delete(key).ok());
      model.Delete(key);
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_NO_FATAL_FAILURE(check(ScanSpec(), "overlapped predicate-free"));
    ASSERT_NO_FATAL_FAILURE(check(selective, "overlapped selective"));

    // After recompaction: answers stay exact whether or not folds resume
    // (the stable tree may legitimately keep overlapping levels, which
    // suppresses sole-contributor windows and with them every fold).
    ASSERT_TRUE(db->CompactUntilStable().ok());
    ASSERT_NO_FATAL_FAILURE(check(ScanSpec(), "recompacted predicate-free"));
    ASSERT_NO_FATAL_FAILURE(check(selective, "recompacted selective"));
  }
}

// NextBatch with max_rows == 0 is a harmless no-op that loses nothing.
TEST(ScanBatchTest, ZeroMaxRows) {
  auto env = NewMemEnv();
  LaserOptions options = test::TinyTreeOptions(env.get(), "/db", 4, 3);
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());
  for (uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(db->Insert(k, test::TestRow(k, 4)).ok());
  }
  auto scan = db->NewScan(0, 9, {1});
  ScanBatch batch;
  EXPECT_EQ(scan->NextBatch(&batch, 0), 0u);
  EXPECT_EQ(scan->NextBatch(&batch, 100), 10u);
}

// Opening a scan only positions the merge: a NewScan destroyed undrained
// merges no row, even when its first key is tied between the memtable and an
// SST (the case that takes a run-merge window). The sharded scan opens one
// such scan per shard, and merges no row either.
TEST(ScanBatchTest, NewScanMergesNoRowAtOpen) {
  // Rows merged and run-merge windows taken so far, summed over `dbs`.
  const auto merge_work = [](const std::vector<LaserDB*>& dbs) {
    std::pair<uint64_t, uint64_t> work;
    for (LaserDB* db : dbs) {
      work.first += db->stats().scan_rows_merged.load();
      work.second += db->stats().scan_zip_splices.load();
    }
    return work;
  };
  // Rows 0-199 of every shard flushed into an SST, then each shard's first
  // key rewritten in its memtable.
  const auto tie_first_keys = [](auto* db, const std::vector<uint64_t>& firsts) {
    for (const uint64_t first : firsts) {
      for (uint64_t k = first; k < first + 200; ++k) {
        ASSERT_TRUE(db->Insert(k, test::TestRow(k, 4)).ok());
      }
    }
    ASSERT_TRUE(db->Flush().ok());
    for (const uint64_t first : firsts) {
      ASSERT_TRUE(db->Insert(first, test::TestRow(first + 1, 4)).ok());
    }
  };

  auto env = NewMemEnv();
  {
    std::unique_ptr<LaserDB> db;
    ASSERT_TRUE(LaserDB::Open(test::TinyTreeOptions(env.get(), "/db", 4, 3), &db).ok());
    ASSERT_NO_FATAL_FAILURE(tie_first_keys(db.get(), {0}));
    const auto before = merge_work({db.get()});
    db->NewScan(0, 199, {1, 2}).reset();
    EXPECT_EQ(merge_work({db.get()}), before);
    // The counters are live: the first row-mode call merges the tied key.
    EXPECT_TRUE(db->NewScan(0, 199, {1, 2})->Valid());
    EXPECT_GT(merge_work({db.get()}).second, before.second);
  }
  {
    ShardedLaserOptions options;
    options.base = test::TinyTreeOptions(env.get(), "/sharded", 4, 3);
    options.num_shards = 2;
    options.key_domain = 1000;
    std::unique_ptr<ShardedLaserDB> db;
    ASSERT_TRUE(ShardedLaserDB::Open(options, &db).ok());
    ASSERT_NO_FATAL_FAILURE(tie_first_keys(db.get(), {0, 500}));
    const std::vector<LaserDB*> shards = {db->shard(0), db->shard(1)};
    const auto before = merge_work(shards);
    db->NewScan(0, 999, {1, 2}).reset();
    EXPECT_EQ(merge_work(shards), before);
  }
}

}  // namespace
}  // namespace laser

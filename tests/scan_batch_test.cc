// Randomized differential test of the batched scan path: NextBatch (at many
// batch sizes, including sizes that straddle key runs) must agree exactly
// with the per-row cursor AND with a naive in-memory model, across random
// workloads of inserts / partial updates / deletes, flush/compaction cuts,
// several CG designs, and snapshot isolation (a scan opened before later
// writes must not see them).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "laser/laser_db.h"
#include "laser/sharded_laser_db.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace laser {
namespace {

constexpr int kColumns = 10;
constexpr int kLevels = 5;
constexpr uint64_t kKeySpace = 700;

// column id -> value; a key absent from the model is deleted/never written.
using ModelRow = std::map<int, uint64_t>;
using Model = std::map<uint64_t, ModelRow>;

struct ResultRow {
  uint64_t key = 0;
  std::vector<std::optional<ColumnValue>> values;

  bool operator==(const ResultRow&) const = default;
};

std::string Describe(const std::vector<ResultRow>& rows, size_t limit = 5) {
  std::ostringstream out;
  out << rows.size() << " rows:";
  for (size_t i = 0; i < rows.size() && i < limit; ++i) {
    out << " " << rows[i].key << "(";
    for (const auto& v : rows[i].values) {
      if (v.has_value()) {
        out << *v << ",";
      } else {
        out << "null,";
      }
    }
    out << ")";
  }
  return out.str();
}

/// What the engine must return for [lo, hi] with `projection`: rows in key
/// order where at least one projected column has a value; other projected
/// columns are null.
std::vector<ResultRow> ModelScan(const Model& model, uint64_t lo, uint64_t hi,
                                 const ColumnSet& projection) {
  std::vector<ResultRow> out;
  for (auto it = model.lower_bound(lo); it != model.end() && it->first <= hi;
       ++it) {
    ResultRow row;
    row.key = it->first;
    bool any = false;
    for (const int column : projection) {
      auto v = it->second.find(column);
      if (v != it->second.end()) {
        row.values.emplace_back(v->second);
        any = true;
      } else {
        row.values.emplace_back(std::nullopt);
      }
    }
    if (any) out.push_back(std::move(row));
  }
  return out;
}

std::vector<ResultRow> RowApiScan(LaserDB* db, uint64_t lo, uint64_t hi,
                                  const ColumnSet& projection) {
  std::vector<ResultRow> out;
  auto scan = db->NewScan(lo, hi, projection);
  EXPECT_NE(scan, nullptr);
  for (; scan->Valid(); scan->Next()) {
    out.push_back(ResultRow{scan->key(), scan->values()});
  }
  EXPECT_TRUE(scan->status().ok());
  return out;
}

std::vector<ResultRow> BatchApiScan(LaserDB* db, uint64_t lo, uint64_t hi,
                                    const ColumnSet& projection,
                                    size_t batch_rows) {
  std::vector<ResultRow> out;
  auto scan = db->NewScan(lo, hi, projection);
  EXPECT_NE(scan, nullptr);
  ScanBatch batch;
  while (size_t n = scan->NextBatch(&batch, batch_rows)) {
    EXPECT_LE(n, batch_rows);
    EXPECT_EQ(batch.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ResultRow row;
      row.key = batch.keys[i];
      for (size_t c = 0; c < projection.size(); ++c) {
        if (batch.columns[c].present[i]) {
          row.values.emplace_back(batch.columns[c].values[i]);
        } else {
          row.values.emplace_back(std::nullopt);
        }
      }
      out.push_back(std::move(row));
    }
  }
  EXPECT_TRUE(scan->status().ok());
  return out;
}

/// Filter-after-materialize reference for pushdown: keep the model rows where
/// every predicate matches its column's projected value (null fails, AND
/// semantics) — exactly what the engine must compute below materialization.
std::vector<ResultRow> FilterRows(std::vector<ResultRow> rows,
                                  const ColumnSet& projection,
                                  const ScanSpec& spec) {
  std::vector<ResultRow> out;
  for (auto& row : rows) {
    bool match = true;
    for (const ScanPredicate& pred : spec.predicates) {
      const auto it =
          std::lower_bound(projection.begin(), projection.end(), pred.column);
      const size_t pos = static_cast<size_t>(it - projection.begin());
      const auto& value = row.values[pos];
      if (!value.has_value() || !PredicateMatches(pred, *value)) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(std::move(row));
  }
  return out;
}

std::vector<ResultRow> PredRowApiScan(LaserDB* db, uint64_t lo, uint64_t hi,
                                      const ColumnSet& projection,
                                      const ScanSpec& spec) {
  std::vector<ResultRow> out;
  auto scan = db->NewScan(lo, hi, projection, spec);
  EXPECT_NE(scan, nullptr);
  for (; scan->Valid(); scan->Next()) {
    out.push_back(ResultRow{scan->key(), scan->values()});
  }
  EXPECT_TRUE(scan->status().ok());
  return out;
}

std::vector<ResultRow> PredBatchApiScan(LaserDB* db, uint64_t lo, uint64_t hi,
                                        const ColumnSet& projection,
                                        const ScanSpec& spec,
                                        size_t batch_rows) {
  std::vector<ResultRow> out;
  auto scan = db->NewScan(lo, hi, projection, spec);
  EXPECT_NE(scan, nullptr);
  ScanBatch batch;
  while (size_t n = scan->NextBatch(&batch, batch_rows)) {
    EXPECT_LE(n, batch_rows);
    for (size_t i = 0; i < n; ++i) {
      ResultRow row;
      row.key = batch.keys[i];
      for (size_t c = 0; c < projection.size(); ++c) {
        if (batch.columns[c].present[i]) {
          row.values.emplace_back(batch.columns[c].values[i]);
        } else {
          row.values.emplace_back(std::nullopt);
        }
      }
      out.push_back(std::move(row));
    }
  }
  EXPECT_TRUE(scan->status().ok());
  return out;
}

/// Folds the reference rows into the aggregates AggregateAll must return.
ScanAggregates FoldRows(const std::vector<ResultRow>& rows, size_t width) {
  ScanAggregates aggs;
  aggs.counts.assign(width, 0);
  aggs.sums.assign(width, 0);
  aggs.minima.assign(width, UINT64_MAX);
  aggs.maxima.assign(width, 0);
  aggs.rows = rows.size();
  for (const ResultRow& row : rows) {
    for (size_t c = 0; c < width; ++c) {
      if (!row.values[c].has_value()) continue;
      const uint64_t v = *row.values[c];
      ++aggs.counts[c];
      aggs.sums[c] += v;
      aggs.minima[c] = std::min(aggs.minima[c], v);
      aggs.maxima[c] = std::max(aggs.maxima[c], v);
    }
  }
  return aggs;
}

/// Differentially checks the pushdown plans (batched, per-row, aggregated)
/// against filter-after-materialize over the model.
void CheckPushdownStyles(LaserDB* db, const Model& model, uint64_t lo,
                         uint64_t hi, const ColumnSet& projection,
                         const ScanSpec& spec, const char* what) {
  const auto expected =
      FilterRows(ModelScan(model, lo, hi, projection), projection, spec);
  const auto via_rows = PredRowApiScan(db, lo, hi, projection, spec);
  ASSERT_EQ(via_rows, expected)
      << what << ": predicated row API mismatch [" << lo << "," << hi
      << "] got " << Describe(via_rows) << " want " << Describe(expected);
  for (const size_t batch_rows : {size_t{1}, size_t{7}, size_t{64},
                                  size_t{1024}}) {
    const auto via_batch =
        PredBatchApiScan(db, lo, hi, projection, spec, batch_rows);
    ASSERT_EQ(via_batch, expected)
        << what << ": predicated batch API mismatch batch_rows=" << batch_rows
        << " [" << lo << "," << hi << "] got " << Describe(via_batch)
        << " want " << Describe(expected);
  }

  const ScanAggregates want = FoldRows(expected, projection.size());
  auto scan = db->NewScan(lo, hi, projection, spec);
  ASSERT_NE(scan, nullptr);
  ScanAggregates got;
  ASSERT_TRUE(scan->AggregateAll(&got).ok());
  ASSERT_EQ(got.rows, want.rows) << what << ": aggregate row count";
  ASSERT_EQ(got.counts, want.counts) << what << ": aggregate counts";
  ASSERT_EQ(got.sums, want.sums) << what << ": aggregate sums";
  ASSERT_EQ(got.minima, want.minima) << what << ": aggregate minima";
  ASSERT_EQ(got.maxima, want.maxima) << what << ": aggregate maxima";
}

/// A random 1-2 conjunct spec over `projection`. Operands are drawn from the
/// value domain, sometimes from an actual stored value so kEq/kNe hit.
ScanSpec RandomSpec(Random* rng, const Model& model,
                    const ColumnSet& projection) {
  ScanSpec spec;
  const int conjuncts = 1 + static_cast<int>(rng->Uniform(2));
  for (int i = 0; i < conjuncts; ++i) {
    ScanPredicate pred;
    pred.column = projection[rng->Uniform(projection.size())];
    pred.op = static_cast<PredOp>(rng->Uniform(7));
    pred.operand = rng->Uniform(1u << 30);
    if (!model.empty() && rng->Uniform(3) == 0) {
      auto it = model.lower_bound(rng->Uniform(kKeySpace));
      if (it == model.end()) it = model.begin();
      const auto v = it->second.find(pred.column);
      if (v != it->second.end()) pred.operand = v->second;
    }
    if (pred.op == PredOp::kBetween) {
      pred.operand2 = pred.operand + rng->Uniform(1u << 28);
    }
    spec.predicates.push_back(pred);
  }
  return spec;
}

class ScanBatchDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(ScanBatchDifferentialTest, BatchMatchesRowMatchesModel) {
  const int seed = GetParam();
  Random rng(0x5ca4ba7c + static_cast<uint64_t>(seed) * 7919);

  // Rotate the design with the seed so row-only, the many-small-CG zip
  // shapes (size 2 and 3), and the hybrid/simulated-columnar layouts all get
  // differential coverage.
  const std::vector<test::DesignParam> designs = {
      {"row", 0}, {"cg2", 2}, {"cg3", 3}, {"htap", -1}, {"col", 1}};
  const test::DesignParam& design = designs[seed % designs.size()];

  auto env = NewMemEnv();
  LaserOptions options = test::TinyTreeOptions(env.get(), "/db", kColumns,
                                               kLevels);
  options.cg_config = test::DesignConfig(design, kColumns, kLevels);
  options.background_threads = 2;
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());

  Model model;
  const int ops = 1600;
  for (int op = 0; op < ops; ++op) {
    const uint64_t key = rng.Uniform(kKeySpace);
    const uint32_t kind = rng.Uniform(10);
    if (kind < 6) {
      std::vector<ColumnValue> row(kColumns);
      for (int c = 0; c < kColumns; ++c) row[c] = rng.Uniform(1u << 30);
      ASSERT_TRUE(db->Insert(key, row).ok());
      ModelRow& mrow = model[key];
      mrow.clear();
      for (int c = 0; c < kColumns; ++c) mrow[c + 1] = row[c];
    } else if (kind < 8) {
      // Partial update of a random sorted column subset (also resurrects
      // columns of deleted keys, like the engine's merge semantics).
      std::vector<ColumnValuePair> values;
      for (int c = 1; c <= kColumns; ++c) {
        if (rng.Uniform(4) == 0) {
          values.push_back({c, rng.Uniform(1u << 30)});
        }
      }
      if (values.empty()) values.push_back({1, rng.Uniform(1u << 30)});
      ASSERT_TRUE(db->Update(key, values).ok());
      ModelRow& mrow = model[key];
      for (const auto& pair : values) mrow[pair.column] = pair.value;
    } else if (kind < 9) {
      ASSERT_TRUE(db->Delete(key).ok());
      model.erase(key);
    } else if (rng.Uniform(4) == 0) {
      ASSERT_TRUE(db->Flush().ok());
    }
    // Differential checks both mid-stream (memtable + L0 heavy) and after
    // full compaction (deep CG runs, the fast-path steady state).
    const bool mid_check = op == ops / 2;
    const bool final_check = op == ops - 1;
    if (!mid_check && !final_check) continue;
    if (final_check) {
      ASSERT_TRUE(db->CompactUntilStable().ok());
    }

    for (int check = 0; check < 8; ++check) {
      const uint64_t lo = rng.Uniform(kKeySpace);
      const uint64_t hi = lo + 1 + rng.Uniform(kKeySpace / 2);
      ColumnSet projection;
      switch (rng.Uniform(3)) {
        case 0:
          projection = {static_cast<int>(rng.Uniform(kColumns)) + 1};
          break;
        case 1:
          projection = MakeColumnRange(1, kColumns);
          break;
        default: {
          for (int c = 1; c <= kColumns; ++c) {
            if (rng.Uniform(2) == 0) projection.push_back(c);
          }
          if (projection.empty()) projection = {kColumns};
          break;
        }
      }
      const auto expected = ModelScan(model, lo, hi, projection);
      const auto via_rows = RowApiScan(db.get(), lo, hi, projection);
      ASSERT_EQ(via_rows, expected)
          << "row API mismatch seed=" << seed << " design=" << design.name
          << " [" << lo << "," << hi << "] got " << Describe(via_rows)
          << " want " << Describe(expected);
      // Batch sizes chosen to straddle run and batch boundaries: 1 (pure
      // row-at-a-time through the batch engine), tiny primes, and larger
      // than most ranges.
      for (const size_t batch_rows : {size_t{1}, size_t{3}, size_t{7},
                                      size_t{64}, size_t{1024}}) {
        const auto via_batch =
            BatchApiScan(db.get(), lo, hi, projection, batch_rows);
        ASSERT_EQ(via_batch, expected)
            << "batch API mismatch seed=" << seed << " design=" << design.name
            << " batch_rows=" << batch_rows << " [" << lo << "," << hi
            << "] got " << Describe(via_batch) << " want "
            << Describe(expected);
      }
      // Pushdown differential: the same range under a random predicate spec,
      // checked across all three consumption styles (batched, per-row,
      // aggregated) against filter-after-materialize over the model.
      const ScanSpec spec = RandomSpec(&rng, model, projection);
      ASSERT_NO_FATAL_FAILURE(CheckPushdownStyles(db.get(), model, lo, hi,
                                                  projection, spec,
                                                  "pushdown rotation"))
          << "seed=" << seed << " design=" << design.name;
    }
  }

  // Snapshot cut: a scan pins its read point at NewScan time; writes applied
  // afterwards must stay invisible to both consumption styles.
  const Model frozen = model;
  const ColumnSet full_proj = MakeColumnRange(1, kColumns);
  ScanSpec pinned_spec;
  pinned_spec.predicates.push_back(
      {1 + static_cast<int>(rng.Uniform(kColumns)), PredOp::kGe,
       rng.Uniform(1u << 30)});
  auto pinned_rows = db->NewScan(0, kKeySpace, MakeColumnRange(1, kColumns));
  auto pinned_batch = db->NewScan(0, kKeySpace, MakeColumnRange(1, kColumns));
  auto pinned_pred = db->NewScan(0, kKeySpace, full_proj, pinned_spec);
  ASSERT_NE(pinned_pred, nullptr);
  for (int i = 0; i < 200; ++i) {
    const uint64_t key = rng.Uniform(kKeySpace);
    if (rng.Uniform(3) == 0) {
      ASSERT_TRUE(db->Delete(key).ok());
    } else {
      std::vector<ColumnValue> row(kColumns, rng.Uniform(1u << 30));
      ASSERT_TRUE(db->Insert(key, row).ok());
    }
  }
  ASSERT_TRUE(db->Flush().ok());

  const auto expected = ModelScan(frozen, 0, kKeySpace,
                                  MakeColumnRange(1, kColumns));
  std::vector<ResultRow> via_rows;
  for (; pinned_rows->Valid(); pinned_rows->Next()) {
    via_rows.push_back(ResultRow{pinned_rows->key(), pinned_rows->values()});
  }
  ASSERT_EQ(via_rows, expected) << "snapshot cut leaked into the row cursor";

  std::vector<ResultRow> via_batch;
  ScanBatch batch;
  while (size_t n = pinned_batch->NextBatch(&batch, 13)) {
    for (size_t i = 0; i < n; ++i) {
      ResultRow row;
      row.key = batch.keys[i];
      for (size_t c = 0; c < batch.columns.size(); ++c) {
        if (batch.columns[c].present[i]) {
          row.values.emplace_back(batch.columns[c].values[i]);
        } else {
          row.values.emplace_back(std::nullopt);
        }
      }
      via_batch.push_back(std::move(row));
    }
  }
  ASSERT_EQ(via_batch, expected) << "snapshot cut leaked into NextBatch";

  // The predicated scan is pinned too: its pushed-down filter must run over
  // the frozen versions, not the post-cut writes.
  const auto pred_expected = FilterRows(
      ModelScan(frozen, 0, kKeySpace, full_proj), full_proj, pinned_spec);
  std::vector<ResultRow> via_pred;
  while (size_t n = pinned_pred->NextBatch(&batch, 13)) {
    for (size_t i = 0; i < n; ++i) {
      ResultRow row;
      row.key = batch.keys[i];
      for (size_t c = 0; c < batch.columns.size(); ++c) {
        if (batch.columns[c].present[i]) {
          row.values.emplace_back(batch.columns[c].values[i]);
        } else {
          row.values.emplace_back(std::nullopt);
        }
      }
      via_pred.push_back(std::move(row));
    }
  }
  ASSERT_EQ(via_pred, pred_expected)
      << "snapshot cut leaked into the predicated scan";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanBatchDifferentialTest,
                         ::testing::Range(0, 15));

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

/// Differentially checks every consumption style over [lo, hi] x projection.
void CheckAllStyles(LaserDB* db, const Model& model, uint64_t lo, uint64_t hi,
                    const ColumnSet& projection, const char* what) {
  const auto expected = ModelScan(model, lo, hi, projection);
  const auto via_rows = RowApiScan(db, lo, hi, projection);
  ASSERT_EQ(via_rows, expected)
      << what << ": row API mismatch [" << lo << "," << hi << "] got "
      << Describe(via_rows) << " want " << Describe(expected);
  // Batch sizes straddle zip splice boundaries (1 row at a time up to
  // larger than the range) so zip<->fold flips happen at batch edges.
  for (const size_t batch_rows :
       {size_t{1}, size_t{2}, size_t{5}, size_t{29}, size_t{173}, size_t{4096}}) {
    const auto via_batch = BatchApiScan(db, lo, hi, projection, batch_rows);
    ASSERT_EQ(via_batch, expected)
        << what << ": batch API mismatch batch_rows=" << batch_rows << " ["
        << lo << "," << hi << "] got " << Describe(via_batch) << " want "
        << Describe(expected);
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
  Model model;
  const uint64_t n = 400;
  for (uint64_t k = 0; k < n; ++k) {
    const auto row = test::TestRow(k, kColumns);
    ASSERT_TRUE(db->Insert(k, row).ok());
    for (int c = 0; c < kColumns; ++c) model[k][c + 1] = row[c];
  }
  ASSERT_TRUE(db->CompactUntilStable().ok());
  // Update one column (one group) of every 17th key AFTER settling, so the
  // newer partial version sits above the settled full rows.
  for (uint64_t k = 3; k < n; k += 17) {
    const int column = 1 + static_cast<int>(k % kColumns);
    ASSERT_TRUE(db->Update(k, {{column, k * 7}}).ok());
    model[k][column] = k * 7;
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
  Model model;
  const uint64_t n = 300;
  for (uint64_t k = 0; k < n; ++k) {
    const auto row = test::TestRow(k, kColumns);
    ASSERT_TRUE(db->Insert(k, row).ok());
    for (int c = 0; c < kColumns; ++c) model[k][c + 1] = row[c];
  }
  ASSERT_TRUE(db->CompactUntilStable().ok());
  for (uint64_t k = 5; k < n; k += 23) {
    ASSERT_TRUE(db->Delete(k).ok());
    model.erase(k);
    // Columns 1..cg_size form exactly the first group of every level.
    ASSERT_TRUE(db->Update(k, {{1, k + 1000}}).ok());
    model[k][1] = k + 1000;
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
  Model model;
  const uint64_t n = 500;
  for (uint64_t k = 0; k < n; ++k) {
    const auto row = test::TestRow(k, kColumns);
    ASSERT_TRUE(db->Insert(k, row).ok());
    for (int c = 0; c < kColumns; ++c) model[k][c + 1] = row[c];
  }
  // Alternating mutation islands: a delete, a partial update, and a
  // re-insert every 31 keys, flushed in two waves so versions span levels.
  for (uint64_t k = 7; k < n; k += 31) {
    ASSERT_TRUE(db->Delete(k).ok());
    model.erase(k);
  }
  ASSERT_TRUE(db->Flush().ok());
  for (uint64_t k = 13; k < n; k += 31) {
    ASSERT_TRUE(db->Update(k, {{2, k}, {kColumns, k + 1}}).ok());
    model[k][2] = k;
    model[k][kColumns] = k + 1;
  }
  for (uint64_t k = 7; k < 200; k += 62) {
    const auto row = test::TestRow(k + 9000, kColumns);
    ASSERT_TRUE(db->Insert(k, row).ok());
    auto& mrow = model[k];
    mrow.clear();
    for (int c = 0; c < kColumns; ++c) mrow[c + 1] = row[c];
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

    Model model;
    for (uint64_t key = 0; key < kKeySpace; ++key) {
      std::vector<ColumnValue> row(kColumns);
      for (int c = 0; c < kColumns; ++c) row[c] = rng.Uniform(1u << 30);
      ASSERT_TRUE(db->Insert(key, row).ok());
      ModelRow& mrow = model[key];
      for (int c = 0; c < kColumns; ++c) mrow[c + 1] = row[c];
    }
    ASSERT_TRUE(db->CompactUntilStable().ok());

    const ColumnSet& projection = fold_case.projection;
    const auto check = [&](const ScanSpec& spec, const char* what) {
      const auto want = FoldRows(
          FilterRows(ModelScan(model, 0, kKeySpace, projection), projection,
                     spec),
          projection.size());
      auto scan = db->NewScan(0, kKeySpace, projection, spec);
      ASSERT_NE(scan, nullptr) << what;
      ScanAggregates got;
      ASSERT_TRUE(scan->AggregateAll(&got).ok()) << what;
      EXPECT_EQ(got.rows, want.rows) << what;
      EXPECT_EQ(got.counts, want.counts) << what;
      EXPECT_EQ(got.sums, want.sums) << what;
      EXPECT_EQ(got.minima, want.minima) << what;
      EXPECT_EQ(got.maxima, want.maxima) << what;
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
    EXPECT_EQ(RowApiScan(db.get(), 0, kKeySpace, projection).size(),
              model.size());
    {
      auto scan = db->NewScan(0, kKeySpace, projection);
      ScanBatch batch;
      size_t rows = 0;
      while (size_t n = scan->NextBatch(&batch, 64)) rows += n;
      EXPECT_EQ(rows, model.size());
    }
    EXPECT_EQ(db->stats().aggs_from_zonemap.load(), base)
        << "a row-materializing scan folded blocks away";

    // Updates and deletes: the fresh L0 run overlaps the deep levels, so
    // sole-contributor windows shrink and most folds stop being provable —
    // answers must stay exact through the merged path.
    for (uint64_t key = 0; key < kKeySpace; key += 3) {
      ASSERT_TRUE(db->Update(key, {{projection[0], key}}).ok());
      model[key][projection[0]] = key;
    }
    for (uint64_t key = 1; key < kKeySpace; key += 7) {
      ASSERT_TRUE(db->Delete(key).ok());
      model.erase(key);
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

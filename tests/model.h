// The reference model every differential test checks the engine against, and
// the one check of each read path against it.
//
// Model holds what the engine must return: key -> {column id -> value}. An
// insert replaces the row, an update merges into it (and so resurrects a
// deleted key as a partial row), and a delete erases it. Expected() is the
// answer a scan must give, Fold() the answer AggregateAll must give.
//
// ExpectScanMatches runs one scan through every consumer (NextBatch at
// 1/7/64/1024 rows, the row cursor, AggregateAll) and ExpectReadsMatch
// point-reads a key range, both on a LaserDB or a ShardedLaserDB. A scan whose
// snapshot must predate later writes is opened with OpenConsumerScans and
// checked after those writes.

#ifndef LASER_TESTS_MODEL_H_
#define LASER_TESTS_MODEL_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "laser/laser_db.h"
#include "laser/write_batch.h"

namespace laser::test {

class Model {
 public:
  /// Column id (1-based) -> value; a column the row lacks is null.
  using Row = std::map<int, ColumnValue>;

  /// Replaces the row; `row[i]` is the value of column i + 1.
  void Insert(uint64_t key, const std::vector<ColumnValue>& row) {
    Row& cells = rows_[key];
    cells.clear();
    for (size_t i = 0; i < row.size(); ++i) cells[static_cast<int>(i) + 1] = row[i];
  }

  /// Merges `values` into the row, creating a partial row for an absent key.
  void Update(uint64_t key, const std::vector<ColumnValuePair>& values) {
    Row& cells = rows_[key];
    for (const ColumnValuePair& pair : values) cells[pair.column] = pair.value;
  }

  void Delete(uint64_t key) { rows_.erase(key); }

  /// Applies every op of `batch` in order, as a committed Write does.
  void Apply(const WriteBatch& batch) {
    for (const WriteBatch::Op& op : batch.ops()) {
      switch (op.type) {
        case kTypeFullRow:
          Insert(op.key, op.row);
          break;
        case kTypePartialRow:
          Update(op.key, op.values);
          break;
        case kTypeDeletion:
          Delete(op.key);
          break;
      }
    }
  }

  const std::map<uint64_t, Row>& rows() const { return rows_; }

  bool operator==(const Model&) const = default;

 private:
  std::map<uint64_t, Row> rows_;
};

/// One row a read returns: its key and the projected values (null = absent).
struct ResultRow {
  uint64_t key = 0;
  std::vector<std::optional<ColumnValue>> values;

  bool operator==(const ResultRow&) const = default;
};

using Rows = std::vector<ResultRow>;

inline void PrintTo(const ResultRow& row, std::ostream* out) {
  *out << "key " << row.key << " (";
  for (size_t i = 0; i < row.values.size(); ++i) {
    if (i > 0) *out << ", ";
    if (row.values[i].has_value()) {
      *out << *row.values[i];
    } else {
      *out << "null";
    }
  }
  *out << ")";
}

/// The rows in [lo, hi], in key order, that hold at least one projected value
/// (the merge emits no row without one) and pass every predicate of `spec`
/// (a null fails it).
inline Rows Expected(const Model& model, uint64_t lo, uint64_t hi,
                     const ColumnSet& projection, const ScanSpec& spec = {}) {
  Rows out;
  const auto& rows = model.rows();
  for (auto it = rows.lower_bound(lo); it != rows.end() && it->first <= hi; ++it) {
    const Model::Row& cells = it->second;
    ResultRow row{it->first, {}};
    bool match = false;
    for (const int column : projection) {
      const auto cell = cells.find(column);
      row.values.push_back(cell != cells.end() ? std::optional(cell->second)
                                               : std::nullopt);
      match |= cell != cells.end();
    }
    for (const ScanPredicate& pred : spec.predicates) {
      const auto cell = cells.find(pred.column);
      match &= cell != cells.end() && PredicateMatches(pred, cell->second);
    }
    if (match) out.push_back(std::move(row));
  }
  return out;
}

/// What AggregateAll returns for a scan of `width` projected columns that
/// emits `rows`.
inline ScanAggregates Fold(const Rows& rows, size_t width) {
  ScanAggregates out;
  out.rows = rows.size();
  out.counts.assign(width, 0);
  out.sums.assign(width, 0);
  out.minima.assign(width, UINT64_MAX);
  out.maxima.assign(width, 0);
  for (const ResultRow& row : rows) {
    for (size_t pos = 0; pos < width; ++pos) {
      if (!row.values[pos].has_value()) continue;
      const ColumnValue v = *row.values[pos];
      ++out.counts[pos];
      out.sums[pos] += v;
      out.minima[pos] = std::min(out.minima[pos], v);
      out.maxima[pos] = std::max(out.maxima[pos], v);
    }
  }
  return out;
}

/// Drains `scan` through NextBatch, `batch_rows` rows at a time.
template <typename Scan>
Rows DrainBatches(Scan* scan, size_t batch_rows = ScanIterator::kDefaultBatchRows) {
  Rows out;
  ScanBatch batch;
  while (const size_t n = scan->NextBatch(&batch, batch_rows)) {
    EXPECT_LE(n, batch_rows);
    EXPECT_EQ(batch.size(), n);
    for (size_t r = 0; r < batch.size(); ++r) {
      ResultRow& row = out.emplace_back();
      row.key = batch.keys[r];
      for (const ScanBatch::Column& column : batch.columns) {
        row.values.push_back(column.present[r] != 0 ? std::optional(column.values[r])
                                                    : std::nullopt);
      }
    }
  }
  EXPECT_TRUE(scan->status().ok()) << scan->status().ToString();
  return out;
}

/// Drains `scan` through the row cursor.
template <typename Scan>
Rows DrainCursor(Scan* scan) {
  Rows out;
  for (; scan->Valid(); scan->Next()) out.push_back({scan->key(), scan->values()});
  EXPECT_TRUE(scan->status().ok()) << scan->status().ToString();
  return out;
}

/// Expects `got` to equal `want`, naming the first row where they differ.
inline void ExpectSameRows(const Rows& got, const Rows& want) {
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(), want.end());
  if (g == got.end() && w == want.end()) return;
  ADD_FAILURE() << got.size() << " rows, want " << want.size()
                << "; first difference at row " << (g - got.begin()) << ": got "
                << (g == got.end() ? "the end" : ::testing::PrintToString(*g))
                << ", want "
                << (w == want.end() ? "the end" : ::testing::PrintToString(*w));
}

/// Point-reads every key in [lo, hi] (hi < UINT64_MAX): a key with a row in
/// Expected() reads back found with its values, every other key not found.
template <typename Db>
void ExpectReadsMatch(Db* db, const Model& model, uint64_t lo, uint64_t hi,
                      const ColumnSet& projection) {
  const Rows want = Expected(model, lo, hi, projection);
  auto next = want.begin();
  for (uint64_t key = lo; key <= hi; ++key) {
    LaserDB::ReadResult result;
    ASSERT_TRUE(db->Read(key, projection, &result).ok()) << "key " << key;
    if (next == want.end() || next->key != key) {
      ASSERT_FALSE(result.found) << "key " << key << " resurrected";
      continue;
    }
    ASSERT_TRUE(result.found) << "key " << key << " lost";
    ASSERT_EQ(result.values, next->values) << "key " << key;
    ++next;
  }
}

inline constexpr size_t kBatchSizes[] = {1, 7, 64, 1024};

/// One scan opened on every consumer: NextBatch at each of kBatchSizes, the
/// row cursor and AggregateAll. Each pins its snapshot when opened.
template <typename Scan>
struct ConsumerScans {
  std::vector<std::unique_ptr<Scan>> batches;
  std::unique_ptr<Scan> cursor;
  std::unique_ptr<Scan> aggregate;
  size_t width = 0;
};

template <typename Db>
auto OpenConsumerScans(Db* db, uint64_t lo, uint64_t hi, const ColumnSet& projection,
                       const ScanSpec& spec = {}) {
  ConsumerScans<typename decltype(db->NewScan(lo, hi, projection))::element_type> scans;
  for (size_t i = 0; i < std::size(kBatchSizes); ++i) {
    scans.batches.push_back(db->NewScan(lo, hi, projection, spec));
  }
  scans.cursor = db->NewScan(lo, hi, projection, spec);
  scans.aggregate = db->NewScan(lo, hi, projection, spec);
  scans.width = projection.size();
  return scans;
}

/// Drains every scan of `scans` and checks each against `want`.
template <typename Scan>
void ExpectScanMatches(ConsumerScans<Scan>* scans, const Rows& want) {
  for (size_t i = 0; i < std::size(kBatchSizes); ++i) {
    SCOPED_TRACE("NextBatch " + std::to_string(kBatchSizes[i]));
    ASSERT_NE(scans->batches[i], nullptr);
    ExpectSameRows(DrainBatches(scans->batches[i].get(), kBatchSizes[i]), want);
  }
  {
    SCOPED_TRACE("row cursor");
    ASSERT_NE(scans->cursor, nullptr);
    ExpectSameRows(DrainCursor(scans->cursor.get()), want);
  }
  SCOPED_TRACE("AggregateAll");
  ASSERT_NE(scans->aggregate, nullptr);
  ScanAggregates got;
  ASSERT_TRUE(scans->aggregate->AggregateAll(&got).ok());
  const ScanAggregates fold = Fold(want, scans->width);
  EXPECT_EQ(got.rows, fold.rows);
  EXPECT_EQ(got.counts, fold.counts);
  EXPECT_EQ(got.sums, fold.sums);
  EXPECT_EQ(got.minima, fold.minima);
  EXPECT_EQ(got.maxima, fold.maxima);
}

/// Runs one scan through every consumer of `db` and checks each against the
/// model.
template <typename Db>
void ExpectScanMatches(Db* db, const Model& model, uint64_t lo, uint64_t hi,
                       const ColumnSet& projection, const ScanSpec& spec = {}) {
  auto scans = OpenConsumerScans(db, lo, hi, projection, spec);
  ExpectScanMatches(&scans, Expected(model, lo, hi, projection, spec));
}

}  // namespace laser::test

#endif  // LASER_TESTS_MODEL_H_

// ScanBatch: the columnar output unit of the batched scan path (§4.3 read
// path, rebuilt batch-at-a-time). A scan produces runs of rows at once —
// keys plus one value/presence vector per projected column — so consumers
// aggregate over flat arrays instead of crossing the iterator virtual-call
// stack once per row.

#ifndef LASER_LASER_SCAN_BATCH_H_
#define LASER_LASER_SCAN_BATCH_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "laser/schema.h"

namespace laser {

/// A read-only window over a prepared column run (the run merge's hand-off
/// unit): `rows` decoded user keys and, for each of some list of projection
/// positions, a flat array of `rows` values, every one present. Pointers
/// reference the producer's scratch and are invalidated when it moves.
struct ColumnRunView {
  const uint64_t* keys = nullptr;
  size_t rows = 0;
  std::vector<const ColumnValue*> cols;
};

/// Columnar batch of scan results. Row i has primary key `keys[i]`; for
/// projection position j, `columns[j].present[i]` says whether the row has a
/// value there (0 = null: deleted or never written) and `columns[j].values[i]`
/// holds it (unspecified when absent).
///
/// The row count is size() == keys.size(). The per-column vectors are kept
/// at batch capacity (>= size()) so the fill loops write them by index with
/// no per-element growth bookkeeping; entries at positions >= size() are
/// stale scratch — always bound reads by size().
struct ScanBatch {
  struct Column {
    std::vector<ColumnValue> values;
    std::vector<uint8_t> present;
  };

  std::vector<uint64_t> keys;
  std::vector<Column> columns;

  size_t size() const { return keys.size(); }
  bool empty() const { return keys.empty(); }

  /// Clears all rows and (re)shapes the batch to `projection_width` columns.
  /// Column storage is retained, so a reused batch only allocates on growth.
  void Reset(size_t projection_width) {
    keys.clear();
    columns.resize(projection_width);
  }

  /// Guarantees every column vector can be written by index for rows
  /// [0, rows). Called by the merge layer before a fill.
  ///
  /// This is the ONLY growth site for the per-column vectors, and it keeps
  /// `values` and `present` the same length as an invariant: a caller that
  /// resized one of them independently (the pre-fix bug grew `present` only
  /// under the `values.size() < rows` check, so the pair could silently
  /// diverge) is healed here, and the pairing is assert-checked on exit.
  void EnsureColumnCapacity(size_t rows) {
    for (Column& column : columns) {
      const size_t need =
          std::max(rows, std::max(column.values.size(), column.present.size()));
      if (column.values.size() != need) column.values.resize(need);
      if (column.present.size() != need) column.present.resize(need);
      assert(column.values.size() == column.present.size() &&
             column.values.size() >= rows);
    }
  }

  // -- column-major splice primitives (decoded-run writes) --
  // Both REQUIRE column capacity for every row they write
  // (EnsureColumnCapacity); they write by index and never grow.

  /// Appends the first `n` rows of `run`: its keys, then run.cols[i] into
  /// projection position positions[i] (every value present), then nulls in
  /// every position of `nulled`. `positions` and `nulled` together must
  /// name each projection position once.
  void SpliceRun(const ColumnRunView& run, size_t n, const std::vector<int>& positions,
                 const std::vector<int>& nulled) {
    const size_t row0 = keys.size();
    keys.insert(keys.end(), run.keys, run.keys + n);
    for (size_t i = 0; i < positions.size(); ++i) {
      Column& column = columns[static_cast<size_t>(positions[i])];
      assert(row0 + n <= column.values.size());
      memcpy(column.values.data() + row0, run.cols[i], n * sizeof(ColumnValue));
      memset(column.present.data() + row0, 1, n);
    }
    for (const int pos : nulled) NullColumnRun(static_cast<size_t>(pos), row0, n);
  }

  /// Nulls rows [row0, row0 + n) of projection position `pos`.
  void NullColumnRun(size_t pos, size_t row0, size_t n) {
    Column& column = columns[pos];
    assert(row0 + n <= column.values.size());
    memset(column.present.data() + row0, 0, n);
    memset(column.values.data() + row0, 0, n * sizeof(ColumnValue));
  }
};

}  // namespace laser

#endif  // LASER_LASER_SCAN_BATCH_H_

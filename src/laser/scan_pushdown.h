// Scan pushdown: per-column predicates evaluated inside the scan engine
// (vectorized over decoded column vectors, before survivors reach the
// ScanBatch) and the zone-map filter that lets SST iterators skip whole data
// blocks — without fetching them into the block cache — when every row they
// hold provably fails a predicate.
//
// Skip-safety argument (why CanSkip is sound):
//  * A block may be skipped inside a sole-contributor merge window
//    (`SetWindow`): the heap proves no other source holds keys below the
//    window limit, so every merged row in the window takes ALL its column
//    values from this source — a value outside [min, max] cannot appear.
//  * A predicate marked *unconditional* may additionally drive skips with no
//    window armed (seeks, whole-file hops, L0 planning). Scan planning marks
//    a predicate unconditional for a source only when that source is the
//    scan's ONLY source covering the predicate's column. Then any emitted
//    row's value for that column either comes from this source or is null —
//    and null fails every predicate. If the zone proves the predicate fails
//    for every value the source holds in the region, every merged row drawing
//    on the region fails the conjunct (AND semantics) and is dropped by the
//    row-level re-check regardless; skipping the region can therefore never
//    change the emitted result, even though other columns of those rows
//    (partial updates, tombstones) would have merged differently.
//  * Multi-version rows within the block are fine: whatever version wins the
//    fold, its value is one of the block's values (or null, which fails every
//    predicate), so the per-column min/max bounds every possible outcome.
//  * Blocks sharing a user key with a neighbor block are marked
//    !self_contained by the builder and never skipped independently: a
//    straddling key's winning version might live in the neighbor. This gate
//    applies to unconditional skips too — dropping only one block of a
//    straddling key could resurrect a stale value *for the predicate column
//    itself* from the neighbor, which the null argument does not cover.
//
// Key-range narrowing (`PlanScan`, scan_plan.h): with no memtable rows, a scan
// with predicates first shrinks its key range [lo, hi] to the keys where a
// matching row can live, and everything after planning (coverage census, L0
// pruning, seek, upper bound) uses the narrowed range.
//  * Rule. For each predicate p, the candidate sources are every L0 file
//    overlapping [lo, hi] and, at each level >= 1, the files of the one
//    column group holding p's column. A block of a candidate source adds its
//    [first_user_key, last_user_key] to p's key hull when `ZoneMayHoldMatch`
//    holds: its zone does not summarize the column, or it has values and
//    `PredicateMayMatchRange` holds. A block with no values for the column
//    adds nothing (none of its entries can supply it); a file without zone
//    maps adds its whole key range; a file whose folded zone rules the
//    column out adds none of its blocks. The scan range becomes [lo, hi]
//    intersected with EACH predicate's own hull, never a per-block
//    combination of predicates: a row's columns can come from different
//    levels. An empty intersection is a scan with no rows.
//  * Why it is exact. Take a matching row and let v be the winning value of
//    p's column (present, since null fails every predicate). Some block of a
//    candidate source stores v, so that block's zone has min <= v <= max (or
//    does not summarize the column), and its key range, which contains the
//    row's key, is in p's hull. So every matching row's key lies in every
//    hull. Inside the narrowed range the merge and the row-level filter
//    still re-check every row, so nothing extra is emitted either.
//  * Memtables have no zone maps: any non-empty memtable or immutable
//    memtable turns narrowing off.
//
// Aggregation folds (AggregateAll) reuse the same machinery in the opposite
// direction: inside a sole-contributor window, a block whose zone proves
// every entry is a distinct, snapshot-visible, all-predicates-matching row
// contributes its per-column count/sum/min/max summaries directly to the
// scan's aggregates and is skipped without being read (TryFold's gates).

#ifndef LASER_LASER_SCAN_PUSHDOWN_H_
#define LASER_LASER_SCAN_PUSHDOWN_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "laser/schema.h"
#include "sst/format.h"
#include "util/coding.h"
#include "util/slice.h"

namespace laser {

/// Comparison operator of a pushed-down predicate. All comparisons are
/// unsigned (column values are uint64).
enum class PredOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kBetween,  // operand <= value <= operand2 (both inclusive)
};

/// One conjunct: `column <op> operand`. A null (absent) column value fails
/// every predicate, matching SQL WHERE semantics for non-null comparisons.
struct ScanPredicate {
  int column = 0;  // 1-based schema column id; must be in the projection
  PredOp op = PredOp::kEq;
  uint64_t operand = 0;
  uint64_t operand2 = 0;  // kBetween only: inclusive upper bound
};

/// What a scan pushes below materialization: the AND of `predicates`.
/// An empty spec scans unfiltered (the pre-pushdown behavior).
struct ScanSpec {
  std::vector<ScanPredicate> predicates;
};

/// Pushed aggregates over the matching rows of a scan: per projected column
/// (parallel to the projection) the count/sum/min/max of present values.
/// minima is UINT64_MAX and maxima 0 where counts is 0.
struct ScanAggregates {
  uint64_t rows = 0;  // rows the same scan would emit (see AggregateAll)
  std::vector<uint64_t> counts;
  std::vector<uint64_t> sums;
  std::vector<uint64_t> minima;
  std::vector<uint64_t> maxima;

  /// Folds in `other`, an aggregate over other rows of the same projection.
  void Merge(const ScanAggregates& other) {
    assert(other.counts.size() == counts.size());
    rows += other.rows;
    for (size_t pos = 0; pos < counts.size(); ++pos) {
      counts[pos] += other.counts[pos];
      sums[pos] += other.sums[pos];
      minima[pos] = std::min(minima[pos], other.minima[pos]);
      maxima[pos] = std::max(maxima[pos], other.maxima[pos]);
    }
  }
};

inline bool PredicateMatches(const ScanPredicate& pred, uint64_t value) {
  switch (pred.op) {
    case PredOp::kEq:
      return value == pred.operand;
    case PredOp::kNe:
      return value != pred.operand;
    case PredOp::kLt:
      return value < pred.operand;
    case PredOp::kLe:
      return value <= pred.operand;
    case PredOp::kGt:
      return value > pred.operand;
    case PredOp::kGe:
      return value >= pred.operand;
    case PredOp::kBetween:
      return pred.operand <= value && value <= pred.operand2;
  }
  return true;  // unreachable
}

/// Does EVERY value in [min, max] match `pred`? Used by the aggregation
/// fold: a block may only be folded from its zone map when no row of it can
/// fail the predicate. Must never return true unless that holds.
inline bool PredicateAllMatchRange(const ScanPredicate& pred, uint64_t min,
                                   uint64_t max) {
  switch (pred.op) {
    case PredOp::kEq:
      return min == max && min == pred.operand;
    case PredOp::kNe:
      return pred.operand < min || pred.operand > max;
    case PredOp::kLt:
      return max < pred.operand;
    case PredOp::kLe:
      return max <= pred.operand;
    case PredOp::kGt:
      return min > pred.operand;
    case PredOp::kGe:
      return min >= pred.operand;
    case PredOp::kBetween:
      return pred.operand <= min && max <= pred.operand2;
  }
  return false;  // unreachable
}

/// Could ANY value in [min, max] match `pred`? False positives are fine
/// (the row-level filter re-checks); false negatives would drop rows.
inline bool PredicateMayMatchRange(const ScanPredicate& pred, uint64_t min,
                                   uint64_t max) {
  switch (pred.op) {
    case PredOp::kEq:
      return min <= pred.operand && pred.operand <= max;
    case PredOp::kNe:
      return !(min == max && min == pred.operand);
    case PredOp::kLt:
      return min < pred.operand;
    case PredOp::kLe:
      return min <= pred.operand;
    case PredOp::kGt:
      return max > pred.operand;
    case PredOp::kGe:
      return max >= pred.operand;
    case PredOp::kBetween:
      return max >= pred.operand && min <= pred.operand2;
  }
  return true;  // unreachable
}

inline bool ZoneColumnBefore(const ZoneMapColumn& col, int column) {
  return static_cast<int>(col.column) < column;
}

/// The summary of `column` in `zone`, or nullptr when the zone does not
/// summarize it (a column it cannot bound).
inline const ZoneMapColumn* FindZoneColumn(const ZoneMapEntry& zone, int column) {
  const std::vector<ZoneMapColumn>& cols = zone.cols;  // sorted by column id
  const auto it = std::lower_bound(cols.begin(), cols.end(), column, ZoneColumnBefore);
  if (it == cols.end() || static_cast<int>(it->column) != column) return nullptr;
  return &*it;
}

/// Could the region `zone` summarizes supply a value of `pred`'s column that
/// passes `pred`? False only when the zone summarizes the column and proves
/// it: no values at all, or none in a range that can match. Decides which
/// blocks add to a predicate's key hull (see key-range narrowing above).
inline bool ZoneMayHoldMatch(const ZoneMapEntry& zone, const ScanPredicate& pred) {
  const ZoneMapColumn* col = FindZoneColumn(zone, pred.column);
  if (col == nullptr) return true;  // column not summarized: no verdict
  return col->has_values && PredicateMayMatchRange(pred, col->min, col->max);
}

/// Smallest inclusive user-key range covering every range added to it;
/// empty (lo > hi) until the first Add.
struct KeyHull {
  uint64_t lo = UINT64_MAX;
  uint64_t hi = 0;

  void Add(uint64_t first, uint64_t last) {
    lo = std::min(lo, first);
    hi = std::max(hi, last);
  }
};

/// BlockReadFilter over one scan source: skips a summarized region when it
/// lies entirely inside the current sole-contributor window and some
/// conjunct provably fails for every row. One instance per SST-backed
/// source; `predicates` are pre-restricted to columns the source stores.
class ZoneMapScanFilter final : public BlockReadFilter {
 public:
  /// `unconditional`, when non-empty, is parallel to `predicates`: a true
  /// flag marks a predicate whose column no other scan source covers, letting
  /// it veto regions with no sole-contributor window armed (see the
  /// skip-safety argument above). Empty means all predicates are windowed.
  explicit ZoneMapScanFilter(std::vector<ScanPredicate> predicates,
                             std::vector<bool> unconditional = {})
      : predicates_(std::move(predicates)),
        unconditional_(std::move(unconditional)) {}

  /// Arms the filter for a sole-contributor window ending at
  /// `limit_exclusive` (heap runner-up key; empty = unbounded) clamped to
  /// the scan bound `hi_inclusive` (empty = unbounded). Both are 8-byte
  /// big-endian user keys.
  void SetWindow(const Slice& limit_exclusive, const Slice& hi_inclusive) {
    window_active_ = false;
    uint64_t bound = UINT64_MAX;
    if (!limit_exclusive.empty()) {
      if (limit_exclusive.size() != 8) return;
      const uint64_t limit = DecodeKey64(limit_exclusive);
      if (limit == 0) return;  // empty window: nothing is skippable
      bound = limit - 1;
    }
    if (!hi_inclusive.empty()) {
      if (hi_inclusive.size() != 8) return;
      bound = std::min(bound, DecodeKey64(hi_inclusive));
    }
    window_bound_ = bound;
    window_active_ = true;
  }

  /// Disarms the filter; per-row merge phases (key ties across sources) must
  /// never skip blocks.
  void ClearWindow() { window_active_ = false; }

  /// Marks this filter's source eligible for zone-map aggregation folds:
  /// the source stores every column of `projection` and this filter carries
  /// every predicate of the scan. `snapshot` is the scan's read point; a
  /// block is only folded when all of its entries are visible at it. Called
  /// at scan planning; folding stays off until ArmFold().
  void ConfigureFold(ColumnSet projection, uint64_t snapshot) {
    fold_projection_ = std::move(projection);
    fold_snapshot_ = snapshot;
    fold_capable_ = true;
  }

  /// Switches folding on (AggregateAll only: a folded block's rows are
  /// accounted in folded() instead of being emitted, which would be wrong
  /// for any consumer that wants the rows). Returns whether this filter can
  /// fold at all.
  bool ArmFold() {
    if (!fold_capable_) return false;
    if (!fold_armed_) {
      fold_armed_ = true;
      fold_.counts.assign(fold_projection_.size(), 0);
      fold_.sums.assign(fold_projection_.size(), 0);
      fold_.minima.assign(fold_projection_.size(), UINT64_MAX);
      fold_.maxima.assign(fold_projection_.size(), 0);
    }
    return true;
  }

  /// Aggregates of every folded block, parallel to the configured
  /// projection. Valid once ArmFold() returned true.
  const ScanAggregates& folded() const { return fold_; }
  uint64_t blocks_folded() const { return blocks_folded_; }

  bool CanSkip(const ZoneMapEntry& zone, size_t data_blocks) override {
    return Evaluate(zone, data_blocks, /*file_level=*/false);
  }

  /// Whole-file verdict (folded zone from `SstReader::file_zone()`), counted
  /// separately so stats can report files never opened.
  bool CanSkipFile(const ZoneMapEntry& zone, size_t data_blocks) override {
    return Evaluate(zone, data_blocks, /*file_level=*/true);
  }

  uint64_t blocks_skipped() const { return blocks_skipped_; }
  uint64_t files_skipped() const { return files_skipped_; }

 private:
  bool Evaluate(const ZoneMapEntry& zone, size_t data_blocks,
                bool file_level) {
    if (!zone.self_contained) return false;
    const bool windowed =
        window_active_ && zone.last_user_key <= window_bound_;
    // Aggregation fold (block level only): inside a sole-contributor window
    // every row of the block reaches the output exactly as stored, so when
    // the zone proves each entry is one visible, all-predicates-matching
    // row, its count/sum/min/max summaries ARE the block's contribution.
    if (fold_armed_ && !file_level && windowed && TryFold(zone)) {
      blocks_skipped_ += data_blocks;
      ++blocks_folded_;
      return true;
    }
    if (predicates_.empty()) return false;
    for (size_t i = 0; i < predicates_.size(); ++i) {
      // A windowed region lets every predicate vote; outside a window only
      // unconditional predicates (sole column coverage) may.
      if (!windowed && (unconditional_.empty() || !unconditional_[i])) {
        continue;
      }
      const ScanPredicate& pred = predicates_[i];
      const ZoneMapColumn* col = FindZoneColumn(zone, pred.column);
      if (col == nullptr) continue;  // column not summarized: no verdict
      // One conjunct that cannot match anywhere in the region fails every
      // row (AND semantics); an all-null column fails by itself.
      if (!col->has_values ||
          !PredicateMayMatchRange(pred, col->min, col->max)) {
        blocks_skipped_ += data_blocks;
        if (file_level) ++files_skipped_;
        return true;
      }
    }
    return false;
  }

  /// Folds `zone` into fold_ if its summaries prove the fold exact; returns
  /// whether it did. Exactness gates: one non-deletion entry per user key
  /// (single_version), every entry visible at the snapshot, every projected
  /// column summarized and one of them present in every entry (so every
  /// entry is a row the merge emits), and every predicate column
  /// all-null-free with a value range no row can fail.
  bool TryFold(const ZoneMapEntry& zone) {
    if (!zone.single_version || zone.num_entries == 0) return false;
    if (zone.largest_seq > fold_snapshot_) return false;
    for (const ScanPredicate& pred : predicates_) {
      const ZoneMapColumn* col = FindZoneColumn(zone, pred.column);
      // Any null in a predicated column fails that row — the block then
      // holds non-matching rows and cannot be folded wholesale.
      if (col == nullptr || col->count != zone.num_entries ||
          !PredicateAllMatchRange(pred, col->min, col->max)) {
        return false;
      }
    }
    // Validate before mutating: every projected column must be summarized,
    // and an entry holding no projected value is no row of the scan.
    bool every_entry_emitted = false;
    for (int column : fold_projection_) {
      const ZoneMapColumn* col = FindZoneColumn(zone, column);
      if (col == nullptr) return false;
      every_entry_emitted |= col->count == zone.num_entries;
    }
    if (!every_entry_emitted) return false;
    fold_.rows += zone.num_entries;
    for (size_t pos = 0; pos < fold_projection_.size(); ++pos) {
      const ZoneMapColumn* col = FindZoneColumn(zone, fold_projection_[pos]);
      if (col->count == 0) continue;
      fold_.counts[pos] += col->count;
      fold_.sums[pos] += col->sum;
      if (col->min < fold_.minima[pos]) fold_.minima[pos] = col->min;
      if (col->max > fold_.maxima[pos]) fold_.maxima[pos] = col->max;
    }
    return true;
  }

  const std::vector<ScanPredicate> predicates_;
  const std::vector<bool> unconditional_;
  bool window_active_ = false;
  uint64_t window_bound_ = 0;  // inclusive largest skippable user key
  uint64_t blocks_skipped_ = 0;
  uint64_t files_skipped_ = 0;

  // Aggregation-fold state (see ConfigureFold/ArmFold).
  ColumnSet fold_projection_;
  uint64_t fold_snapshot_ = 0;
  bool fold_capable_ = false;
  bool fold_armed_ = false;
  uint64_t blocks_folded_ = 0;
  ScanAggregates fold_;
};

}  // namespace laser

#endif  // LASER_LASER_SCAN_PUSHDOWN_H_

// ContributionIterator: the contribution model for projection-aware reads
// (§4.3). A scan over projection Π opens one cursor per physical source of
// column values: each memtable, each L0 file (row format), and per deeper
// level each column group overlapping Π. A cursor yields, per user key, a
// tri-state per projected column:
//   kAbsent    — this cursor says nothing; look at an older one
//   kValue     — resolved with a value
//   kTombstone — resolved as deleted (a tombstone terminates the chain)
// Column states use fixed positions in Π, so the level merge resolves each
// position from its newest contribution, which is exactly the newest-wins
// semantics of §4.2/§4.3. The level merge groups the cursors into sources
// (one per memtable, L0 file or level) and stitches one level's column
// groups itself (§4.4).
//
// A cursor also drains batch-at-a-time (AppendRunTo): when the merge
// proves it is the sole contributor for a key range, it emits that whole run
// straight into a columnar ScanBatch. For the run merge it exposes the
// decoded rows that follow its current row (AppendColumnRunTo).

#ifndef LASER_LASER_CONTRIBUTION_ITERATOR_H_
#define LASER_LASER_CONTRIBUTION_ITERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "laser/row_codec.h"
#include "laser/scan_batch.h"
#include "laser/scan_pushdown.h"
#include "laser/schema.h"
#include "lsm/dbformat.h"
#include "util/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace laser {

enum class ColumnState : uint8_t {
  kAbsent = 0,
  kValue = 1,
  kTombstone = 2,
};

/// Per-scan instrumentation accumulated without atomics on the hot path;
/// flushed into the engine-wide Stats when the scan ends.
struct ScanPathCounters {
  uint64_t rows_merged = 0;       ///< rows emitted by the merge layer
  uint64_t source_advances = 0;   ///< contribution-cursor row and run steps
  uint64_t heap_resifts = 0;      ///< k-way-merge heap repair operations
  uint64_t zip_rows = 0;          ///< rows emitted by the run merge
  uint64_t zip_splices = 0;       ///< run-merge windows that emitted rows
};

/// Appends one resolved row to `batch`: positions in the kValue state carry
/// their value, everything else becomes null. REQUIRES: the caller ensured
/// column capacity for this row (ScanBatch::EnsureColumnCapacity).
inline void AppendContributionRow(ScanBatch* batch, uint64_t key,
                                  const std::vector<ColumnState>& states,
                                  const std::vector<ColumnValue>& values) {
  const size_t row = batch->keys.size();
  batch->keys.push_back(key);
  for (size_t pos = 0; pos < states.size(); ++pos) {
    const bool present = states[pos] == ColumnState::kValue;
    batch->columns[pos].present[row] = present ? 1 : 0;
    batch->columns[pos].values[row] = present ? values[pos] : 0;
  }
}

/// Adapts an internal-key iterator whose values are rows encoded for
/// `source_columns` into a cursor of contributions for projection
/// `projection`, ordered by user key ascending.
/// Versions newer than `snapshot` are skipped; remaining versions of a key
/// are folded newest-first until a full row or tombstone terminates the key.
///
/// REQUIRES: projection ∩ source_columns is non-empty (callers only open
/// sources for overlapping groups).
class ContributionIterator {
 public:
  /// `pushdown` (optional, must outlive this source) is the scan's zone-map
  /// filter restricted to this source's columns; it is armed/disarmed by the
  /// merge layer via ArmBlockSkipping so the underlying block cursor only
  /// skips inside proven sole-contributor windows.
  ContributionIterator(std::unique_ptr<Iterator> iter, const RowCodec* codec,
                       ColumnSet source_columns, const ColumnSet& projection,
                       SequenceNumber snapshot,
                       ZoneMapScanFilter* pushdown = nullptr);

  bool Valid() const { return valid_; }
  /// Positions at the first user key >= target.
  void Seek(const Slice& target_user_key);
  void Next();

  /// Current user key. REQUIRES: Valid().
  Slice user_key() const { return Slice(current_key_); }
  /// Per-projected-column state (size |Π|). REQUIRES: Valid().
  const std::vector<ColumnState>& states() const { return states_; }
  /// Values for positions whose state is kValue. REQUIRES: Valid().
  const std::vector<ColumnValue>& values() const { return values_; }

  /// Drains this source into `batch`, appending up to `max_rows` resolved
  /// rows while the user key stays strictly below `limit_exclusive` (empty =
  /// unbounded) and at most `hi_inclusive` (empty = unbounded): one tight
  /// loop per run instead of one merge-layer round trip per row. Rows that
  /// resolve to no value (tombstone-only) are consumed but not emitted —
  /// callers must only delegate a run when this source is the sole
  /// contributor for it, so nothing older can resurrect those keys. Returns
  /// the number of rows appended; the source always advances past every key
  /// it consumed.
  size_t AppendRunTo(ScanBatch* batch, const Slice& limit_exclusive,
                     const Slice& hi_inclusive, size_t max_rows,
                     ScanPathCounters* counters);

  /// The run merge's read-ahead: exposes, via `view`, up to `max_rows`
  /// decoded rows that FOLLOW the current row, each a single-version full
  /// row at or below the snapshot with user key <= `hi_inclusive` (empty =
  /// unbounded); view->cols is parallel to covered_positions(). The decoded
  /// scratch persists across calls (rows the merge does not consume are
  /// re-exposed, not re-decoded) and spans NextRun refills. The pointers are
  /// invalidated by the next AppendColumnRunTo, Next or Seek. Returns
  /// view->rows; 0 means the next entry needs the generic fold (version
  /// conflict, partial row, tombstone, snapshot skip) or lies past the
  /// bound. The rows are NOT consumed. REQUIRES: Valid().
  size_t AppendColumnRunTo(ColumnRunView* view, const Slice& hi_inclusive,
                           size_t max_rows);

  /// Marks the first `rows` rows of the last exposed run as consumed (the
  /// caller merged them into a batch): the next Next() advances to the first
  /// unconsumed row. REQUIRES: rows <= the last AppendColumnRunTo result.
  void ConsumeColumnRun(size_t rows);

  /// Skips (without emitting) every row with user key strictly below
  /// `limit_exclusive` (empty = unbounded, i.e. every row up to the scan
  /// bound), leaving the cursor at the first surviving key. Callers use it
  /// when a pushed-down predicate proves no row of a sole-contributor
  /// window can match (e.g. a predicated column the source can never
  /// cover). It re-seeks the underlying iterator past the whole window in
  /// one index probe instead of decoding and discarding its rows.
  void SkipTo(const Slice& limit_exclusive, ScanPathCounters* counters);

  /// Arms (until DisarmBlockSkipping) the zone-map block filter, for a
  /// window in which the caller's merge proves this cursor's source is the
  /// SOLE contributor of every user key strictly below `limit_exclusive`
  /// (and at most `hi_inclusive`). While armed, the underlying block cursor
  /// may drop whole data blocks that provably fail the scan's predicates.
  /// The merge must arm exactly around sole-contributor drains: resolution
  /// across sources sharing columns must run disarmed (a skipped block
  /// there could hide a version an upstream predicate re-check needs).
  void ArmBlockSkipping(const Slice& limit_exclusive, const Slice& hi_inclusive) {
    if (pushdown_ != nullptr) pushdown_->SetWindow(limit_exclusive, hi_inclusive);
  }
  void DisarmBlockSkipping() {
    if (pushdown_ != nullptr) pushdown_->ClearWindow();
  }

  /// The projection positions this cursor can ever set, ascending; every
  /// other position of states() is permanently kAbsent.
  const std::vector<int>& covered_positions() const { return covered_positions_; }

  Status status() const { return iter_->status(); }

 private:
  /// Number of entries pulled per Iterator::NextRun refill (≈ one 4KB block
  /// of 140-byte rows).
  static constexpr size_t kRunEntries = 32;

  /// Cap on the decoded zip scratch (rows). One run-merge window can take up
  /// to this many rows of a cursor, so it spans several run-buffer refills.
  static constexpr size_t kZipScratchRows = 256;

  /// Advances over the underlying iterator to build the next contribution
  /// that touches the projection. Folding starts at the iterator's current
  /// position.
  void BuildNext();

  // -- run cursor over iter_: one virtual NextRun per kRunEntries entries --
  bool EntryValid() {
    if (run_pos_ < run_.size()) return true;
    run_.clear();
    run_pos_ = 0;
    return iter_->NextRun(&run_, kRunEntries) > 0;
  }
  Slice EntryKey() const { return run_.keys[run_pos_]; }
  Slice EntryValue() const { return run_.values[run_pos_]; }
  void EntryNext() { ++run_pos_; }
  void ResetRun() {
    run_.clear();
    run_pos_ = 0;
    zip_keys_.clear();
    for (auto& col : zip_cols_) col.clear();
    zip_pos_ = 0;
    resolved_guard_active_ = false;
  }

  /// True when run entry `i` is an older version of a key already resolved
  /// by a committed full row (see the resolved guard below).
  bool ShadowedAt(size_t i) const {
    return resolved_guard_active_ && run_.keys_decoded &&
           run_.user_keys[i] == resolved_guard_key_;
  }

  /// The one eligibility test of the decoded paths (BuildNext's fast path,
  /// FastEmitStretch, TopUpZipScratch): run entry `i` has a decoded key and
  /// is a committed full row at or below the snapshot in the complete
  /// encoding — so it resolves its key alone, with every covered value at
  /// its complete_row_columns_ offset.
  bool CompleteRowAt(size_t i) const {
    if (!run_.keys_decoded) return false;  // tags are only filled for decoded keys
    const uint64_t tag = run_.tags[i];
    return static_cast<ValueType>(tag & 0xff) == kTypeFullRow &&
           (tag >> 8) <= snapshot_ && run_.values[i].size() == full_row_size_;
  }

  /// Consumes the complete row at the run cursor: its key is resolved, and
  /// the guard makes every consumer path skip its older versions.
  void CommitCompleteRow(uint64_t user_key) {
    resolved_guard_key_ = user_key;
    resolved_guard_active_ = true;
    ++run_pos_;
  }

  /// Exposes the unconsumed zip-scratch rows inside the bounds (at most
  /// `max_rows`) through `view`, without decoding anything. Returns the
  /// number exposed.
  size_t ExposeZipScratch(ColumnRunView* view, const Slice& limit_exclusive,
                          const Slice& hi_inclusive, size_t max_rows);

  /// Tops up the zip scratch: moves consecutive zip-eligible entries out of
  /// the run buffer (refilling it as needed) into decoded per-column
  /// vectors, and skips the already-resolved older versions a committed full
  /// row shadows. Stops at the first entry that needs the generic fold.
  void TopUpZipScratch(const Slice& hi_inclusive);

  /// Drains pending zip-scratch rows straight into `batch` (bounds- and
  /// max_rows-trimmed). Returns rows emitted.
  size_t EmitZipPending(ScanBatch* batch, const Slice& limit_exclusive,
                        const Slice& hi_inclusive, size_t max_rows);

  /// Vectorized fast path: gathers the longest stretch of single-version
  /// full rows at or below the snapshot (the steady state after compaction)
  /// from the run buffer — key pass first, then a column-major decode that
  /// writes each batch column sequentially with memset presence. Returns
  /// rows emitted; 0 means the entry at the cursor needs the generic fold.
  ///
  /// It decodes straight into the batch rather than through the zip
  /// scratch because it carries most rows of CH-Q1 (86% in laserbench's
  /// tpcc_ch workload), and staging those rows in the scratch first made
  /// CH-Q1's median latency 12-18% worse.
  size_t FastEmitStretch(ScanBatch* batch, const Slice& limit_exclusive,
                         const Slice& hi_inclusive, size_t max_rows);

  std::unique_ptr<Iterator> iter_;
  const RowCodec* codec_;
  const ColumnSet source_columns_;
  // position of each source column in the projection, or -1.
  std::vector<int> proj_position_of_source_column_;
  // the projection positions this source covers (the non-negative entries
  // above); all other positions of states_ stay kAbsent forever.
  std::vector<int> covered_positions_;
  // projection positions this source does NOT cover (batch rows emitted by
  // this source alone carry null there).
  std::vector<int> uncovered_positions_;
  // Where each covered column's value sits in a complete row (presence
  // bitmap, then every source column's value); parallel to
  // covered_positions_. full_row_size_ is the complete row's size.
  struct CompleteRowColumn {
    size_t offset;  // bytes from the start of the row
    size_t width;   // value bytes: 4 or 8
  };
  std::vector<CompleteRowColumn> complete_row_columns_;
  size_t full_row_size_ = 0;
  std::vector<const char*> value_ptrs_;  // FastEmitStretch scratch
  const SequenceNumber snapshot_;
  ZoneMapScanFilter* const pushdown_;

  bool valid_ = false;
  bool any_value_ = false;  ///< some position of states_ is kValue
  std::string current_key_;
  std::vector<ColumnState> states_;
  std::vector<ColumnValue> values_;
  IteratorRun run_;
  size_t run_pos_ = 0;

  // -- zip scratch: decoded single-version full rows awaiting merge/drain --
  // zip_keys_[zip_pos_..] are the unconsumed rows; zip_cols_ is parallel to
  // covered_positions(). When the last committed row's older versions are
  // still ahead of the run cursor (a full row shadows them), the resolved
  // guard remembers its key so every consumer path skips — never re-emits —
  // them.
  std::vector<uint64_t> zip_keys_;
  std::vector<std::vector<ColumnValue>> zip_cols_;
  size_t zip_pos_ = 0;
  ColumnRunView pending_view_;  // EmitZipPending's window (reused)
  uint64_t resolved_guard_key_ = 0;
  bool resolved_guard_active_ = false;
};

}  // namespace laser

#endif  // LASER_LASER_CONTRIBUTION_ITERATOR_H_

// ContributionIterator adapts one sorted source of internal-key entries
// (memtable, L0 file, or a level's CG run) into a ContributionSource;
// ColumnMergingIterator stitches the contribution sources of one level's
// overlapping column groups into a single per-level source (§4.3/§4.4:
// "ColumnMergingIterators combine values from different column groups within
// the same level").

#ifndef LASER_LASER_COLUMN_MERGING_ITERATOR_H_
#define LASER_LASER_COLUMN_MERGING_ITERATOR_H_

#include <memory>
#include <vector>

#include "laser/contribution.h"
#include "laser/row_codec.h"
#include "laser/scan_pushdown.h"
#include "laser/source_heap.h"
#include "lsm/dbformat.h"
#include "util/iterator.h"

namespace laser {

/// Adapts an internal-key iterator whose values are rows encoded for
/// `source_columns` into a ContributionSource for projection `projection`.
/// Versions newer than `snapshot` are skipped; remaining versions of a key
/// are folded newest-first until a full row or tombstone terminates the key.
///
/// REQUIRES: projection ∩ source_columns is non-empty (callers only open
/// sources for overlapping groups).
class ContributionIterator final : public ContributionSource {
 public:
  /// `pushdown` (optional, must outlive this source) is the scan's zone-map
  /// filter restricted to this source's columns; it is armed/disarmed by the
  /// merge layer via ArmBlockSkipping so the underlying block cursor only
  /// skips inside proven sole-contributor windows.
  ContributionIterator(std::unique_ptr<Iterator> iter, const RowCodec* codec,
                       ColumnSet source_columns, const ColumnSet& projection,
                       SequenceNumber snapshot,
                       ZoneMapScanFilter* pushdown = nullptr);

  bool Valid() const override { return valid_; }
  void SeekToFirst() override;
  void Seek(const Slice& target_user_key) override;
  void Next() override;

  Slice user_key() const override { return Slice(current_key_); }
  const std::vector<ColumnState>& states() const override { return states_; }
  const std::vector<ColumnValue>& values() const override { return values_; }

  /// Batched fold: streams consecutive keys from the underlying iterator
  /// straight into the columnar batch — one tight loop per run instead of
  /// one merge-layer round trip per row.
  size_t AppendRunTo(ScanBatch* batch, const Slice& limit_exclusive,
                     const Slice& hi_inclusive, size_t max_rows,
                     ScanPathCounters* counters) override;

  /// The run merge's read-ahead: exposes, via `view`, up to `max_rows`
  /// decoded rows that FOLLOW the current row, each a single-version full
  /// row at or below the snapshot with user key <= `hi_inclusive` (empty =
  /// unbounded); view->cols is parallel to covered_positions(). The decoded
  /// scratch persists across calls (rows the merge does not consume are
  /// re-exposed, not re-decoded) and spans NextRun refills. The pointers are
  /// invalidated by the next AppendColumnRunTo, Next or Seek. Returns
  /// view->rows; 0 means the next entry needs the per-row fold (version
  /// conflict, partial row, tombstone, snapshot skip) or lies past the
  /// bound. The rows are NOT consumed. REQUIRES: Valid().
  size_t AppendColumnRunTo(ColumnRunView* view, const Slice& hi_inclusive,
                           size_t max_rows);

  /// Marks the first `rows` rows of the last exposed run as consumed (the
  /// caller merged them into a batch): the next Next() advances to the first
  /// unconsumed row. REQUIRES: rows <= the last AppendColumnRunTo result.
  void ConsumeColumnRun(size_t rows);

  /// Pushdown fast-forward: re-seeks the underlying iterator past the whole
  /// window in one index probe instead of decoding and discarding its rows.
  void SkipTo(const Slice& limit_exclusive, const Slice& hi_inclusive,
              ScanPathCounters* counters) override;

  void ArmBlockSkipping(const Slice& limit_exclusive,
                        const Slice& hi_inclusive) override {
    if (pushdown_ != nullptr) pushdown_->SetWindow(limit_exclusive, hi_inclusive);
  }
  void DisarmBlockSkipping() override {
    if (pushdown_ != nullptr) pushdown_->ClearWindow();
  }

  const std::vector<int>& covered_positions() const override {
    return covered_positions_;
  }

  void AppendLeaves(std::vector<ContributionIterator*>* out) override {
    out->push_back(this);
  }

  Status status() const override { return iter_->status(); }

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

/// Merges the ContributionIterators of one level (disjoint column groups)
/// by user key; each column position is filled by the unique group covering
/// it. Children are kept in a SourceMinHeap, so finding the next key costs
/// O(log k) instead of a linear sweep over the groups.
class ColumnMergingIterator final : public ContributionSource {
 public:
  /// `projection_size` is |Π| (all children use the same positional layout).
  ColumnMergingIterator(std::vector<std::unique_ptr<ContributionIterator>> children,
                        size_t projection_size);

  bool Valid() const override { return valid_; }
  void SeekToFirst() override;
  void Seek(const Slice& target_user_key) override;
  void Next() override;

  Slice user_key() const override { return Slice(current_key_); }
  const std::vector<ColumnState>& states() const override { return states_; }
  const std::vector<ColumnValue>& values() const override { return values_; }
  /// The union of the children's covered positions.
  const std::vector<int>& covered_positions() const override {
    return covered_union_;
  }

  /// The per-row fold over the level's groups: one combined row per key.
  /// While the CG cursors agree on keys (lockstep) the heap stays out of the
  /// way and each row is combined from the tied children directly. Runs of
  /// full rows do not come through here: the level merge walks the children
  /// as run-merge leaves (AppendLeaves).
  size_t AppendRunTo(ScanBatch* batch, const Slice& limit_exclusive,
                     const Slice& hi_inclusive, size_t max_rows,
                     ScanPathCounters* counters) override;

  /// Forwards the window skip to every child, then rebuilds the heap and the
  /// current row from the children's new positions.
  void SkipTo(const Slice& limit_exclusive, const Slice& hi_inclusive,
              ScanPathCounters* counters) override;

  /// Safe to forward to every child at once: children hold DISJOINT column
  /// groups of one level, so a block one child skips can only remove values
  /// that themselves fail the scan's predicates — never a newer version of a
  /// column another child supplies.
  void ArmBlockSkipping(const Slice& limit_exclusive,
                        const Slice& hi_inclusive) override {
    for (auto& child : children_) {
      child->ArmBlockSkipping(limit_exclusive, hi_inclusive);
    }
  }
  void DisarmBlockSkipping() override {
    for (auto& child : children_) child->DisarmBlockSkipping();
  }

  /// The children are the level merge's run-merge leaves: a level's groups
  /// hold different key subsets once they compact apart, so the merge walks
  /// each group's run on its own.
  void AppendLeaves(std::vector<ContributionIterator*>* out) override {
    for (auto& child : children_) out->push_back(child.get());
  }
  /// Rebuilds the current row (and the heap, unless the children are in
  /// lockstep) from the children's positions.
  void SyncLeaves() override;

  Status status() const override;

 private:
  /// Pops the children tied at the smallest key and combines their disjoint
  /// column states into the current row.
  void BuildCurrent();

  /// Combines the children in tied_ (all positioned at the same key) into
  /// states_/values_/any_value_. REQUIRES: tied_ non-empty.
  void CombineTied();

  /// Advances the tied children and rebuilds the current row. In the
  /// lockstep case (every child tied and still agreeing on the next key)
  /// the heap stays untouched.
  void AdvanceTied(ScanPathCounters* counters);

  /// The lockstep state: when every child is valid and on one key, ties them
  /// all, empties the heap and combines the current row. Returns false, with
  /// nothing changed, otherwise.
  bool CombineLockstep();

  std::vector<std::unique_ptr<ContributionIterator>> children_;
  SourceMinHeap heap_;
  ScanPathCounters counters_;  // local: the level merge above tracks its own
  std::vector<int> tied_;      // children contributing the current key
  bool valid_ = false;
  bool any_value_ = false;
  std::string current_key_;
  std::vector<ColumnState> states_;
  std::vector<ColumnValue> values_;
  std::vector<int> covered_union_;  // the children's covered positions
};

}  // namespace laser

#endif  // LASER_LASER_COLUMN_MERGING_ITERATOR_H_

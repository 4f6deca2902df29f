// LevelMergingIterator (§4.3/§4.4): merges contribution sources across the
// LSM-Tree's lifecycle order — memtables, then L0 files (newest first), then
// levels 1..L-1 — resolving each projected column with the newest
// contribution and discarding old versions, and emitting fully stitched rows
// in user-key order.
//
// A source (a memtable, an L0 file or a level) is held as its column-group
// cursors (ContributionIterator), and its key is the smallest among theirs.
// The engine is batch-at-a-time: a min-heap (SourceMinHeap) orders sources
// by key. Whenever the top source is the sole contributor for a key range
// and is one column-group cursor, it drains that whole run straight into a
// columnar ScanBatch (AppendRunTo), so merge cost is O(log k) per source
// advance instead of a linear O(k) sweep per row. Every other key goes
// through the run merge (MergeRuns): the keys where sources tie, and a sole
// contributor stitched from several column groups. It walks column-group
// cursors' decoded key runs at once, the positional key-array merge of
// Positional Delta Trees (Héman et al., SIGMOD 2010), and gathers each
// column into the batch from a selection of (cursor, row) pairs. A cursor
// whose current row is a partial update or a tombstone takes part as a
// one-row stream, so the run merge resolves every key.
//
// AppendRows is the merge's only output: Seek positions the cursors and
// builds the heap without merging a row, and every consumer (NextBatch,
// AggregateAll, and the row cursor, which refills a small batch) pulls
// whole batches.

#ifndef LASER_LASER_LEVEL_MERGING_ITERATOR_H_
#define LASER_LASER_LEVEL_MERGING_ITERATOR_H_

#include <memory>
#include <vector>

#include "laser/contribution_iterator.h"
#include "laser/scan_batch.h"
#include "laser/source_heap.h"

namespace laser {

class LevelMergingIterator {
 public:
  /// One source's column-group cursors: one for a memtable, an L0 file or a
  /// level stored as one group, and one per overlapping group for a level
  /// split into several.
  using Source = std::vector<std::unique_ptr<ContributionIterator>>;

  /// `sources` must be ordered newest to oldest (priority order), each
  /// holding at least one cursor; `projection_size` is |Π|.
  /// `predicate_positions` (sorted projection positions, possibly empty)
  /// lists the columns the scan's pushed-down predicates constrain: a
  /// sole-contributor window whose source can never cover one of them is
  /// skipped outright (every row it could emit is null there and fails the
  /// conjunction), and zone-map block skipping is armed around each
  /// sole-contributor drain.
  LevelMergingIterator(std::vector<Source> sources, size_t projection_size,
                       std::vector<int> predicate_positions = {});

  /// Positions every cursor at `target_user_key` and builds the heap; merges
  /// no row.
  void Seek(const Slice& target_user_key);

  /// Appends up to `max_rows` resolved rows with user key <= `hi_inclusive`
  /// (empty = unbounded) to `batch` and returns the number appended; 0 means
  /// no further rows exist within the bound. The merge's only output.
  ///
  /// This is the scan's single column-capacity growth site: it calls
  /// ScanBatch::EnsureColumnCapacity once up front, and every downstream
  /// fill (sole-contributor drain, run-merge gather) writes by index within
  /// that bound.
  size_t AppendRows(ScanBatch* batch, const Slice& hi_inclusive, size_t max_rows);

  Status status() const;

  /// Scan-path instrumentation accumulated by this merge (no atomics);
  /// flushed to engine Stats by the owning ScanIterator.
  const ScanPathCounters& counters() const { return counters_; }

  /// Arms zone-map block skipping around sole-contributor drains even when
  /// the scan has no predicates. Only AggregateAll sets this — it lets
  /// fold-armed filters fold matching blocks, which is wrong for any
  /// consumer that wants the rows themselves.
  void set_arm_windows_always(bool arm) { arm_windows_always_ = arm; }

 private:
  /// The run merge from the heap's top key over leaves_[leaf_begin,
  /// leaf_end): every cursor of the sources tied there, or of a sole
  /// contributor stitched from several column groups. Each leaf contributes
  /// its stream: its current row, then the decoded rows AppendColumnRunTo
  /// exposes after it. The window runs from the top key to at most `end`
  /// (inclusive), and no further than the first key some stream cannot
  /// prove: a current row that is not a value in every covered position
  /// (partial row, tombstone) caps the window at its own key, so it is its
  /// lane's one stream row; the end of a run (a row that needs the generic
  /// fold, a snapshot skip, the scratch cap) caps it at the run's last row.
  /// A stream whose current row lies at or past a partial row's key reads
  /// no run (the run would lie past the window). Each key's positions come from
  /// the newest stream holding the key that covers them (a tombstone wins
  /// its positions and writes null), older equal keys are consumed as
  /// shadowed, and a key whose winners hold no value is consumed without
  /// emitting a row. `hi_inclusive` (empty = unbounded) bounds the
  /// read-ahead. Appends up to `max_rows` rows and advances every leaf past
  /// what it consumed, always at least the top key; the caller repairs the
  /// heap. Returns rows appended.
  size_t MergeRuns(ScanBatch* batch, size_t leaf_begin, size_t leaf_end, uint64_t end,
                   const Slice& hi_inclusive, size_t max_rows);

  /// MergeRuns' one-lane case, for a lane whose current row holds every
  /// value it covers: copies the lane's rows (up to `max_rows`) into the
  /// batch. Returns rows appended.
  size_t GatherLane(ScanBatch* batch, size_t max_rows);

  /// MergeRuns' general case: merges the lanes by key, each class of
  /// positions from its newest holder, then gathers each column from the
  /// segments. Returns rows appended.
  size_t MergeLanes(ScanBatch* batch, size_t max_rows);

  /// Appends `count` rows of class `cls` taken from stream rows
  /// [row, row + count) of lane `lane` (-1: null), extending the class's
  /// last segment when it continues it.
  void AddSegment(size_t cls, int lane, size_t row, size_t count);

  size_t num_sources() const { return source_leaves_.size() - 1; }

  /// Sets `*key` to the smallest current key among source `s`'s cursors and
  /// returns true, or returns false when every one of them is drained.
  bool SourceKey(size_t s, uint64_t* key) const;

  /// Rebuilds the heap from every source's key; repairs its top.
  void AssignHeap();
  void ReheapTop();

  const size_t projection_size_;
  const std::vector<int> predicate_positions_;
  bool arm_windows_always_ = false;
  SourceMinHeap heap_;
  ScanPathCounters counters_;

  // Every source's cursors, in priority order, and each one's source; source
  // s owns leaves_[source_leaves_[s], source_leaves_[s + 1]) and can set the
  // positions source_covered_[s] (the union of its cursors', ascending).
  std::vector<std::unique_ptr<ContributionIterator>> leaves_;
  std::vector<size_t> leaf_source_;
  std::vector<size_t> source_leaves_;
  std::vector<std::vector<int>> source_covered_;

  // -- run-merge scratch, rebuilt per window (reused; no per-row allocation) --
  // A lane is one stream, or the streams of several column groups of one
  // level that hold exactly the same keys in the window (merged as one).
  // Stream row 0 is the current row, row i >= 1 is run row i - 1.
  struct Lane {
    uint64_t head_key;
    const uint64_t* keys;  // run keys, trimmed to the window
    size_t rows;           // stream rows in the window
    bool full_head;        // the current row holds every value the lane covers
    size_t next = 0;       // stream rows consumed
    uint64_t cur = 0;      // key of stream row `next`
    size_t classes_begin = 0, classes_end = 0;  // into lane_classes_
  };
  // A stretch of consecutive output rows of one class, taken from
  // consecutive stream rows of one lane (lane -1: null).
  struct Segment {
    int lane;
    size_t row;
    size_t count;
  };
  // A leaf cursor whose current row lay inside the window when it was read.
  struct Stream {
    size_t leaf;
    uint64_t head;  // the current row's key
    bool full;      // the current row holds every value the leaf covers
    int lane = -1;  // -1: the window ended before the current row
  };
  std::vector<Stream> streams_;            // in priority order
  std::vector<ColumnRunView> leaf_views_;  // per leaf, reused
  std::vector<int> source_lane_;  // a source's first lane in the window
  std::vector<Lane> lanes_;
  // [lane * |Π| + pos]: the lane's current-row cell and run column at a
  // position it covers. A current-row cell is null where the row says
  // nothing (an older lane wins the position) and &tombstone_ where it
  // deletes the position (the lane wins it and writes null).
  std::vector<const ColumnValue*> lane_head_;
  std::vector<const ColumnValue*> lane_col_;
  const ColumnValue tombstone_ = 0;
  // Positions covered by the same lanes form a class; each class resolves
  // from one lane per key.
  std::vector<int> class_of_;
  std::vector<int> class_remap_;
  std::vector<int> class_first_pos_;
  std::vector<int> lane_classes_;
  std::vector<std::vector<Segment>> segments_;  // per class
  std::vector<int> winner_lane_;                // per class
  std::vector<size_t> winner_row_;              // per class
  std::vector<size_t> active_;                  // lanes with rows left
};

}  // namespace laser

#endif  // LASER_LASER_LEVEL_MERGING_ITERATOR_H_

// Contribution model for projection-aware reads (§4.3).
//
// A scan over projection Π opens one "contribution source" per physical
// source of column values: each memtable, each L0 file (row format), and per
// deeper level the column groups overlapping Π. A source yields, per user
// key, a tri-state per projected column:
//   kAbsent    — this source says nothing; look at an older source
//   kValue     — resolved with a value
//   kTombstone — resolved as deleted (a tombstone terminates the chain)
// Column states use fixed positions in Π, so merging across sources is a
// positional first-non-absent-wins fold, which is exactly the newest-wins
// semantics of §4.2/§4.3.
//
// Sources also support batch-at-a-time draining (AppendRunTo): when the
// k-way merge proves a source is the sole contributor for a key range, the
// source emits that whole run straight into a columnar ScanBatch without
// re-entering the merge layer's virtual dispatch per row. Where sources tie,
// or one level is stitched from several column groups, the level merge walks
// the column-group cursors (AppendLeaves) at run granularity instead.

#ifndef LASER_LASER_CONTRIBUTION_H_
#define LASER_LASER_CONTRIBUTION_H_

#include <cstdint>
#include <vector>

#include "laser/scan_batch.h"
#include "laser/schema.h"
#include "util/slice.h"
#include "util/status.h"

namespace laser {

class ContributionIterator;

enum class ColumnState : uint8_t {
  kAbsent = 0,
  kValue = 1,
  kTombstone = 2,
};

/// Per-scan instrumentation accumulated without atomics on the hot path;
/// flushed into the engine-wide Stats when the scan ends.
struct ScanPathCounters {
  uint64_t rows_merged = 0;       ///< rows emitted by the merge layer
  uint64_t source_advances = 0;   ///< contribution-source Next()/run steps
  uint64_t heap_resifts = 0;      ///< k-way-merge heap repair operations
  uint64_t zip_rows = 0;          ///< rows emitted by the run merge
  uint64_t zip_splices = 0;       ///< run-merge windows that emitted rows
  uint64_t tie_fold_rows = 0;     ///< rows resolved by the per-row cross-level fold
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

/// Cursor yielding one combined contribution per user key, ordered by user
/// key ascending. States/values are parallel to the scan's projection Π.
class ContributionSource {
 public:
  virtual ~ContributionSource() = default;

  virtual bool Valid() const = 0;
  virtual void SeekToFirst() = 0;
  /// Positions at the first user key >= target.
  virtual void Seek(const Slice& target_user_key) = 0;
  virtual void Next() = 0;

  /// Current user key. REQUIRES: Valid().
  virtual Slice user_key() const = 0;
  /// Per-projected-column state (size |Π|). REQUIRES: Valid().
  virtual const std::vector<ColumnState>& states() const = 0;
  /// Values for positions whose state is kValue. REQUIRES: Valid().
  virtual const std::vector<ColumnValue>& values() const = 0;

  /// The projection positions this source can ever set, ascending; every
  /// other position of states() is permanently kAbsent. Lets merge layers
  /// fold a narrow column group in O(|group|) instead of scanning all of Π —
  /// the difference between O(k·|Π|) and O(|Π|) per row when a level is
  /// split into many small groups.
  virtual const std::vector<int>& covered_positions() const = 0;

  /// Drains this source into `batch`, appending up to `max_rows` resolved
  /// rows while the user key stays strictly below `limit_exclusive` (empty =
  /// unbounded) and at most `hi_inclusive` (empty = unbounded). Rows that
  /// resolve to no value (tombstone-only) are consumed but not emitted —
  /// callers must only delegate a run when this source is the sole
  /// contributor for it, so nothing older can resurrect those keys. Returns
  /// the number of rows appended; the source always advances past every key
  /// it consumed.
  virtual size_t AppendRunTo(ScanBatch* batch, const Slice& limit_exclusive,
                             const Slice& hi_inclusive, size_t max_rows,
                             ScanPathCounters* counters) = 0;

  /// Skips (without emitting) every row with user key strictly below
  /// `limit_exclusive` (empty = unbounded) and at most `hi_inclusive` (empty
  /// = unbounded), leaving the source positioned at the first surviving key.
  /// Callers use it when a pushed-down predicate proves no row of a
  /// sole-contributor window can match (e.g. a predicated column this source
  /// can never cover) — the same advance contract as AppendRunTo, minus the
  /// decode.
  virtual void SkipTo(const Slice& limit_exclusive, const Slice& hi_inclusive,
                      ScanPathCounters* counters) = 0;

  /// Arms (until DisarmBlockSkipping) any zone-map block filter this source
  /// tree owns, for a window in which the caller's merge proves this source
  /// is the SOLE contributor of every user key strictly below
  /// `limit_exclusive` (and at most `hi_inclusive`). While armed, the
  /// source's underlying block cursors may drop whole data blocks that
  /// provably fail the scan's predicates. Merge layers must arm exactly
  /// around sole-contributor drains: per-row tie resolution across sources
  /// sharing columns must run disarmed (a skipped block there could hide a
  /// version an upstream predicate re-check needs).
  virtual void ArmBlockSkipping(const Slice& limit_exclusive,
                                const Slice& hi_inclusive) = 0;
  virtual void DisarmBlockSkipping() = 0;

  /// The column-group cursors a run merge walks for this source, appended
  /// to `out` in priority order: the source itself, or, for a level stitched
  /// from several column groups, each group's cursor. The run merge reads
  /// and advances those leaves directly (current row, decoded run, Next),
  /// then calls SyncLeaves so this source's own row reflects where they
  /// stopped.
  virtual void AppendLeaves(std::vector<ContributionIterator*>* out) = 0;
  virtual void SyncLeaves() {}

  virtual Status status() const = 0;
};

/// The newest-wins tie fold: every covered position of `source` that is
/// still kAbsent in `states` takes the source's state and value. Folding the
/// sources tied on a key newest first resolves each position with its
/// first non-absent contribution. Returns true if it set some position to
/// kValue. (A template so a merge over concrete sources calls them
/// directly.)
template <typename Source>
bool FoldContribution(const Source& source, std::vector<ColumnState>* states,
                      std::vector<ColumnValue>* values) {
  const std::vector<ColumnState>& source_states = source.states();
  const std::vector<ColumnValue>& source_values = source.values();
  bool any_value = false;
  for (const int pos : source.covered_positions()) {
    if ((*states)[pos] == ColumnState::kAbsent &&
        source_states[pos] != ColumnState::kAbsent) {
      (*states)[pos] = source_states[pos];
      (*values)[pos] = source_values[pos];
      if (source_states[pos] == ColumnState::kValue) any_value = true;
    }
  }
  return any_value;
}

}  // namespace laser

#endif  // LASER_LASER_CONTRIBUTION_H_

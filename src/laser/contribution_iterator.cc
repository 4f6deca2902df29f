#include "laser/contribution_iterator.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/coding.h"

namespace laser {

namespace {

/// Trims a sorted decoded-key prefix to the scan bounds: keys[0..n) stays
/// strictly below `limit_exclusive` and at most `hi_inclusive` (empty =
/// unbounded).
size_t TrimToBounds(const uint64_t* keys, size_t n, const Slice& limit_exclusive,
                    const Slice& hi_inclusive) {
  if (!hi_inclusive.empty()) {
    const uint64_t hi = DecodeKey64(hi_inclusive);
    n = static_cast<size_t>(std::upper_bound(keys, keys + n, hi) - keys);
  }
  if (!limit_exclusive.empty()) {
    const uint64_t limit = DecodeKey64(limit_exclusive);
    n = static_cast<size_t>(std::lower_bound(keys, keys + n, limit) - keys);
  }
  return n;
}

// Fixed-width value loads from a complete row (memcpy loads: little-endian
// hosts only, see coding.h).
template <typename T>
ColumnValue Load(const char* src) {
  T v;
  memcpy(&v, src, sizeof(v));
  return v;
}

ColumnValue LoadValue(const char* src, size_t width) {
  return width == 4 ? Load<uint32_t>(src) : Load<uint64_t>(src);
}

// Column-major gather: out[r] = the value at `offset` of complete row r.
template <typename T>
void GatherColumn(const std::vector<const char*>& rows, size_t offset, ColumnValue* out) {
  for (size_t r = 0; r < rows.size(); ++r) out[r] = Load<T>(rows[r] + offset);
}

}  // namespace

ContributionIterator::ContributionIterator(std::unique_ptr<Iterator> iter,
                                           const RowCodec* codec,
                                           ColumnSet source_columns,
                                           const ColumnSet& projection,
                                           SequenceNumber snapshot,
                                           ZoneMapScanFilter* pushdown)
    : iter_(std::move(iter)),
      codec_(codec),
      source_columns_(std::move(source_columns)),
      snapshot_(snapshot),
      pushdown_(pushdown) {
  proj_position_of_source_column_.reserve(source_columns_.size());
  size_t offset = row_bitmap::Bytes(source_columns_.size());
  for (int col : source_columns_) {
    const size_t width = codec_->ValueWidth(col);
    auto it = std::lower_bound(projection.begin(), projection.end(), col);
    if (it != projection.end() && *it == col) {
      const int pos = static_cast<int>(it - projection.begin());
      proj_position_of_source_column_.push_back(pos);
      covered_positions_.push_back(pos);
      complete_row_columns_.push_back({offset, width});
    } else {
      proj_position_of_source_column_.push_back(-1);
    }
    offset += width;
  }
  full_row_size_ = offset;
  for (size_t pos = 0, next_covered = 0; pos < projection.size(); ++pos) {
    if (next_covered < covered_positions_.size() &&
        covered_positions_[next_covered] == static_cast<int>(pos)) {
      ++next_covered;
    } else {
      uncovered_positions_.push_back(static_cast<int>(pos));
    }
  }
  // Uncovered positions stay kAbsent forever: BuildNext only resets and
  // writes covered ones.
  states_.resize(projection.size());
  values_.resize(projection.size());
  zip_cols_.resize(covered_positions_.size());
}

void ContributionIterator::Seek(const Slice& target_user_key) {
  iter_->Seek(MakeLookupKey(target_user_key, kMaxSequenceNumber));
  ResetRun();
  BuildNext();
}

void ContributionIterator::Next() {
  assert(valid_);
  // The underlying iterator is already positioned past the folded key.
  BuildNext();
}

void ContributionIterator::TopUpZipScratch(const Slice& hi_inclusive) {
  // Moves zip-eligible entries out of the run buffer into the decoded
  // scratch, refilling the buffer as it drains — so one scratch fill spans
  // block and run boundaries. An entry is eligible when it is a full row at
  // or below the snapshot with the expected encoding size AND it is the
  // newest visible version of its key: a committed full row terminates the
  // fold, so any older versions of the same key contribute nothing and are
  // skipped here (the resolved guard carries that skip across refills and
  // into the per-row paths if the fill stops mid-shadow). The first entry
  // needing the generic fold ends the fill.
  const bool has_hi = !hi_inclusive.empty();
  const uint64_t hi = has_hi ? DecodeKey64(hi_inclusive) : 0;
  while (zip_keys_.size() - zip_pos_ < kZipScratchRows) {
    if (!EntryValid()) return;  // source drained
    if (ShadowedAt(run_pos_)) {
      ++run_pos_;  // shadowed older version of an already-resolved key
      continue;
    }
    if (!CompleteRowAt(run_pos_)) return;
    const uint64_t user_key = run_.user_keys[run_pos_];
    if (has_hi && user_key > hi) return;  // never pull blocks past the scan

    zip_keys_.push_back(user_key);
    const char* row = run_.values[run_pos_].data();
    for (size_t ci = 0; ci < complete_row_columns_.size(); ++ci) {
      const CompleteRowColumn& column = complete_row_columns_[ci];
      zip_cols_[ci].push_back(LoadValue(row + column.offset, column.width));
    }
    CommitCompleteRow(user_key);
  }
}

size_t ContributionIterator::AppendColumnRunTo(ColumnRunView* view,
                                               const Slice& hi_inclusive,
                                               size_t max_rows) {
  const size_t pending = zip_keys_.size() - zip_pos_;
  if (pending < max_rows && pending < kZipScratchRows) {
    if (zip_pos_ == zip_keys_.size() || zip_pos_ >= kZipScratchRows) {
      // Drop the consumed prefix only once it is the whole scratch (free) or
      // a full scratch's worth, so each erase moves at most kZipScratchRows
      // rows per kZipScratchRows consumed and the scratch stays bounded at
      // twice that.
      zip_keys_.erase(zip_keys_.begin(),
                      zip_keys_.begin() + static_cast<ptrdiff_t>(zip_pos_));
      for (auto& col : zip_cols_) {
        col.erase(col.begin(), col.begin() + static_cast<ptrdiff_t>(zip_pos_));
      }
      zip_pos_ = 0;
    }
    TopUpZipScratch(hi_inclusive);
  }

  return ExposeZipScratch(view, Slice(), hi_inclusive, max_rows);
}

size_t ContributionIterator::ExposeZipScratch(ColumnRunView* view,
                                              const Slice& limit_exclusive,
                                              const Slice& hi_inclusive,
                                              size_t max_rows) {
  const uint64_t* keys = zip_keys_.data() + zip_pos_;
  const size_t pending = std::min(zip_keys_.size() - zip_pos_, max_rows);
  const size_t n = TrimToBounds(keys, pending, limit_exclusive, hi_inclusive);
  view->keys = keys;
  view->rows = n;
  view->cols.resize(zip_cols_.size());
  for (size_t ci = 0; ci < zip_cols_.size(); ++ci) {
    view->cols[ci] = zip_cols_[ci].data() + zip_pos_;
  }
  return n;
}

void ContributionIterator::ConsumeColumnRun(size_t rows) {
  zip_pos_ += rows;
  assert(zip_pos_ <= zip_keys_.size());
}

void ContributionIterator::SkipTo(const Slice& limit_exclusive,
                                  ScanPathCounters* counters) {
  ++counters->source_advances;
  if (limit_exclusive.empty()) {
    // No other source bounds the window: every remaining key up to the
    // scan bound fails the predicate and nothing past it is in range.
    ResetRun();
    valid_ = false;
    return;
  }
  // One index probe lands the block cursor on the first surviving key — the
  // skipped window is never decoded (and, when the zone maps agree, its
  // blocks are never even read).
  Seek(limit_exclusive);
}

size_t ContributionIterator::EmitZipPending(ScanBatch* batch,
                                            const Slice& limit_exclusive,
                                            const Slice& hi_inclusive,
                                            size_t max_rows) {
  if (zip_pos_ == zip_keys_.size()) return 0;
  const size_t n =
      ExposeZipScratch(&pending_view_, limit_exclusive, hi_inclusive, max_rows);
  batch->SpliceRun(pending_view_, n, covered_positions_, uncovered_positions_);
  zip_pos_ += n;
  return n;
}

size_t ContributionIterator::FastEmitStretch(ScanBatch* batch,
                                             const Slice& limit_exclusive,
                                             const Slice& hi_inclusive,
                                             size_t max_rows) {
  // Pass 1 — keys: walk the run buffer collecting entries that are
  // provably single-version full rows at or below the snapshot and within
  // bounds, straight off the run's decoded key columns (no per-entry
  // re-parse). A committed full row terminates its key's fold, so it is
  // emitted immediately and the resolved guard marks the key — any older
  // versions still ahead (even in a later refill) are consumed without
  // re-emitting by every consumer path. That covers the run-boundary entry
  // too: the buffer's last row no longer drops to the generic fold just
  // because its successor is out of reach. The refill happens only HERE,
  // before any value pointer is taken — a mid-stretch refill would release
  // the block value_ptrs_ points into.
  if (!EntryValid()) return 0;  // source drained
  const bool has_limit = !limit_exclusive.empty();
  const uint64_t limit = has_limit ? DecodeKey64(limit_exclusive) : 0;
  const bool has_hi = !hi_inclusive.empty();
  const uint64_t hi = has_hi ? DecodeKey64(hi_inclusive) : 0;
  const size_t row0 = batch->keys.size();
  value_ptrs_.clear();
  while (value_ptrs_.size() < max_rows && run_pos_ < run_.size()) {
    if (ShadowedAt(run_pos_)) {
      ++run_pos_;
      continue;
    }
    if (!CompleteRowAt(run_pos_)) break;
    const uint64_t user_key = run_.user_keys[run_pos_];
    if (has_limit && user_key >= limit) break;
    if (has_hi && user_key > hi) break;
    batch->keys.push_back(user_key);
    value_ptrs_.push_back(run_.values[run_pos_].data());
    CommitCompleteRow(user_key);
  }
  const size_t n = value_ptrs_.size();
  if (n == 0) return 0;

  // Pass 2 — values, column-major: each projected column's output vector is
  // written sequentially (presence is one memset per column), the shape a
  // vectorizer and the cache both like.
  for (size_t ci = 0; ci < complete_row_columns_.size(); ++ci) {
    const CompleteRowColumn& source = complete_row_columns_[ci];
    ScanBatch::Column& column = batch->columns[covered_positions_[ci]];
    memset(column.present.data() + row0, 1, n);
    ColumnValue* out = column.values.data() + row0;
    if (source.width == 4) {
      GatherColumn<uint32_t>(value_ptrs_, source.offset, out);
    } else {
      GatherColumn<uint64_t>(value_ptrs_, source.offset, out);
    }
  }
  for (const int pos : uncovered_positions_) {
    batch->NullColumnRun(static_cast<size_t>(pos), row0, n);
  }
  return n;
}

size_t ContributionIterator::AppendRunTo(ScanBatch* batch,
                                         const Slice& limit_exclusive,
                                         const Slice& hi_inclusive,
                                         size_t max_rows,
                                         ScanPathCounters* counters) {
  // The batched fold: the k-way merge proved this source is the sole
  // contributor up to `limit_exclusive`, so whole runs of keys stream from
  // the underlying block cursor into the columnar batch in one loop —
  // nothing re-enters the merge per row, and tombstone-only keys are dropped here (no older source can resurrect
  // them). Single-version full rows (the steady state after compaction)
  // take FastEmitStretch: block bytes decode straight into the batch columns.
  size_t appended = 0;
  while (appended < max_rows && valid_) {
    const Slice key(current_key_);
    if (!limit_exclusive.empty() && key.compare(limit_exclusive) >= 0) break;
    if (!hi_inclusive.empty() && key.compare(hi_inclusive) > 0) break;
    if (any_value_) {
      AppendContributionRow(batch, DecodeKey64(key), states_, values_);
      ++appended;
    }
    ++counters->source_advances;

    // Stream eligible stretches into the batch: rows a run merge left
    // decoded in the scratch drain first (they precede the run buffer), then
    // stretches directly from the run buffer. The first non-eligible key is
    // left for the generic fold below, which restores the per-row
    // invariants.
    while (appended < max_rows) {
      size_t n = EmitZipPending(batch, limit_exclusive, hi_inclusive,
                                max_rows - appended);
      if (n == 0) {
        n = FastEmitStretch(batch, limit_exclusive, hi_inclusive,
                            max_rows - appended);
      }
      if (n == 0) break;
      appended += n;
      counters->source_advances += n;
    }

    BuildNext();
  }
  return appended;
}

void ContributionIterator::BuildNext() {
  // Entries stream out of a prefetched IteratorRun (one virtual NextRun per
  // ~block instead of Valid/key/value/Next per version); current_key_ and
  // the decoded values are owned copies, so a refill mid-fold is safe. The
  // loop parses each entry exactly once: `parsed` always describes the
  // not-yet-consumed entry at the cursor.
  valid_ = false;
  any_value_ = false;
  // Rows a run merge decoded but did not consume come first: they sit ahead
  // of the run cursor and are already fully resolved (single-version full
  // rows — every covered position has a value).
  if (zip_pos_ < zip_keys_.size()) {
    current_key_ = EncodeKey64(zip_keys_[zip_pos_]);
    for (size_t ci = 0; ci < covered_positions_.size(); ++ci) {
      const int pos = covered_positions_[ci];
      states_[pos] = ColumnState::kValue;
      values_[pos] = zip_cols_[ci][zip_pos_];
    }
    ++zip_pos_;
    any_value_ = true;
    valid_ = true;
    return;
  }
  // Decoded fast path: the post-compaction steady state — a committed full
  // row at or below the snapshot — resolves off the run's decoded key
  // columns without ParseInternalKey or the bitmap fold. A full row
  // terminates its key's fold on its own, so no successor proof is needed:
  // the resolved guard (set below) makes every consumer path skip any older
  // versions still ahead, including across the refill taken here when the
  // buffer drains — the run-boundary entry resolves on this path too instead
  // of dropping to the generic fold.
  while (true) {
    if (!EntryValid()) return;  // source drained
    if (ShadowedAt(run_pos_)) {
      ++run_pos_;  // shadowed version of an already-resolved key
      continue;
    }
    if (!CompleteRowAt(run_pos_)) break;  // the generic fold handles it
    const uint64_t user_key = run_.user_keys[run_pos_];
    current_key_ = EncodeKey64(user_key);
    const char* row = run_.values[run_pos_].data();
    for (size_t ci = 0; ci < complete_row_columns_.size(); ++ci) {
      const CompleteRowColumn& column = complete_row_columns_[ci];
      const int pos = covered_positions_[ci];
      values_[pos] = LoadValue(row + column.offset, column.width);
      states_[pos] = ColumnState::kValue;
    }
    CommitCompleteRow(user_key);
    any_value_ = true;
    valid_ = true;
    return;
  }
  ParsedInternalKey parsed;
  while (true) {
    if (!EntryValid()) return;
    if (!ParseInternalKey(EntryKey(), &parsed)) {
      EntryNext();  // corrupt entry: skip it
      continue;
    }
    if (resolved_guard_active_ && parsed.user_key.size() == 8 &&
        DecodeKey64(parsed.user_key) == resolved_guard_key_) {
      // Version shadowed by an already-resolved full row (a zip commit, or a
      // fold whose version chain a corrupt entry interrupted): consuming it
      // without re-folding is what keeps the key from being emitted twice.
      EntryNext();
      continue;
    }
    // Start of a candidate user key.
    current_key_.assign(parsed.user_key.data(), parsed.user_key.size());
    for (const int pos : covered_positions_) states_[pos] = ColumnState::kAbsent;
    bool touched = false;
    bool terminated = false;

    // Fold all versions of this user key, newest first.
    while (true) {
      if (!terminated && parsed.sequence <= snapshot_) {
        switch (parsed.type) {
          case kTypeDeletion:
            for (const int pos : covered_positions_) {
              if (states_[pos] == ColumnState::kAbsent) {
                states_[pos] = ColumnState::kTombstone;
                touched = true;
              }
            }
            terminated = true;
            break;
          case kTypeFullRow:
          case kTypePartialRow: {
            // Positional decode: the bitmap index IS the source-column
            // index, so each present value lands in its projection slot
            // directly — no intermediate pair vector, no per-value binary
            // search. A corrupt row is skipped whole (DecodeForEach is
            // all-or-nothing), so older intact versions still win.
            const Status decoded = codec_->DecodeForEach(
                source_columns_, EntryValue(),
                [&](size_t src_idx, ColumnValue value) {
                  const int pos = proj_position_of_source_column_[src_idx];
                  if (pos >= 0 && states_[pos] == ColumnState::kAbsent) {
                    states_[pos] = ColumnState::kValue;
                    values_[pos] = value;
                    touched = true;
                    any_value_ = true;
                  }
                });
            (void)decoded;
            if (parsed.type == kTypeFullRow) terminated = true;
            break;
          }
        }
      }
      EntryNext();
      if (!EntryValid() || !ParseInternalKey(EntryKey(), &parsed)) break;
      // A parse failure leaves the corrupt entry unconsumed; the outer loop
      // skips it next.
      if (parsed.user_key != Slice(current_key_)) break;
    }

    // This key is resolved. The guard makes any versions of it still ahead
    // of the cursor (possible when a corrupt entry interrupted the chain)
    // skippable instead of re-foldable — re-folding would contribute the
    // key a second time.
    if (current_key_.size() == 8) {
      resolved_guard_key_ = DecodeKey64(Slice(current_key_));
      resolved_guard_active_ = true;
    } else {
      resolved_guard_active_ = false;
    }

    if (touched) {
      valid_ = true;
      return;
    }
    // This key contributed nothing to the projection (e.g. a partial update
    // of other columns in the group, or every version above the snapshot);
    // move on to the next user key.
  }
}

}  // namespace laser

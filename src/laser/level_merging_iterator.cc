#include "laser/level_merging_iterator.h"

#include <algorithm>
#include <cassert>

#include "util/coding.h"

namespace laser {

LevelMergingIterator::LevelMergingIterator(
    std::vector<std::unique_ptr<ContributionSource>> sources,
    size_t projection_size, std::vector<int> predicate_positions)
    : sources_(std::move(sources)),
      projection_size_(projection_size),
      predicate_positions_(std::move(predicate_positions)) {
  states_.resize(projection_size_);
  values_.resize(projection_size_);
  row_.resize(projection_size_);
}

void LevelMergingIterator::SeekToFirst() {
  for (auto& source : sources_) source->SeekToFirst();
  heap_.Assign(sources_);
  PrefetchRow();
}

void LevelMergingIterator::Seek(const Slice& target_user_key) {
  for (auto& source : sources_) source->Seek(target_user_key);
  heap_.Assign(sources_);
  PrefetchRow();
}

void LevelMergingIterator::Next() {
  assert(row_valid_);
  PrefetchRow();
}

void LevelMergingIterator::PrefetchRow() {
  row_batch_.Reset(projection_size_);
  row_batch_.EnsureColumnCapacity(1);
  row_valid_ = FillRows(&row_batch_, Slice(), 1) > 0;
  if (!row_valid_) return;
  row_key_encoded_ = EncodeKey64(row_batch_.keys[0]);
  for (size_t pos = 0; pos < projection_size_; ++pos) {
    if (row_batch_.columns[pos].present[0] != 0) {
      row_[pos] = row_batch_.columns[pos].values[0];
    } else {
      row_[pos] = std::nullopt;
    }
  }
}

size_t LevelMergingIterator::AppendRows(ScanBatch* batch,
                                        const Slice& hi_inclusive,
                                        size_t max_rows) {
  batch->EnsureColumnCapacity(batch->keys.size() + max_rows);
  size_t appended = 0;
  if (row_valid_ && max_rows > 0) {
    // Drain the row the per-row adapter prefetched (NewScan's initial Seek
    // positions the merge, which materializes one row ahead).
    row_valid_ = false;
    if (!hi_inclusive.empty() &&
        Slice(row_key_encoded_).compare(hi_inclusive) > 0) {
      return 0;  // the prefetched row already lies beyond the scan range
    }
    const size_t row = batch->keys.size();
    batch->keys.push_back(row_batch_.keys[0]);
    for (size_t pos = 0; pos < projection_size_; ++pos) {
      batch->columns[pos].present[row] = row_batch_.columns[pos].present[0];
      batch->columns[pos].values[row] = row_batch_.columns[pos].values[0];
    }
    ++appended;
  }
  appended += FillRows(batch, hi_inclusive, max_rows - appended);
  return appended;
}

size_t LevelMergingIterator::FillRows(ScanBatch* batch, const Slice& hi_inclusive,
                                      size_t max_rows) {
  size_t appended = 0;
  while (appended < max_rows && !heap_.empty()) {
    const Slice top_key = heap_.top_key();
    if (!hi_inclusive.empty() && top_key.compare(hi_inclusive) > 0) break;
    const Slice second = heap_.second_key();
    if (second.empty() || top_key != second) {
      // The top source is the sole contributor until `second`: hand the
      // whole run off to it batch-at-a-time, then repair the heap once.
      // When that source is a level's ColumnMergingIterator the handoff is
      // where the zip path engages — its CG cursors splice column runs
      // straight into the batch, bounded by the same `second`/`hi` keys, so
      // a single contributing level streams at run granularity end to end.
      ContributionSource* top = heap_.top_source();
      const bool pushdown = !predicate_positions_.empty() || arm_windows_always_;
      if (pushdown) {
        const std::vector<int>& covered = top->covered_positions();
        // With no predicates (arm_windows_always_) the includes() check is
        // vacuously true and the fast-forward never triggers.
        if (!std::includes(covered.begin(), covered.end(), predicate_positions_.begin(),
                           predicate_positions_.end())) {
          // Some predicated column can never be present in this window:
          // every row it could emit is null there and fails the scan's
          // conjunction — fast-forward past the run without decoding it.
          top->SkipTo(second, hi_inclusive, &counters_);
          heap_.ReheapTop(&counters_);
          continue;
        }
        // Sole-contributor window: the only place a zone-map verdict about
        // a block is a verdict about the merged rows, so block skipping is
        // armed exactly around this drain.
        top->ArmBlockSkipping(second, hi_inclusive);
      }
      const size_t n = top->AppendRunTo(batch, second, hi_inclusive,
                                        max_rows - appended, &counters_);
      if (pushdown) top->DisarmBlockSkipping();
      appended += n;
      counters_.rows_merged += n;
      heap_.ReheapTop(&counters_);
    } else {
      appended += CombineTiedRow(batch, hi_inclusive, max_rows - appended);
    }
  }
  return appended;
}

size_t LevelMergingIterator::CombineTiedRow(ScanBatch* batch,
                                            const Slice& hi_inclusive,
                                            size_t max_rows) {
  heap_.PopTies(&tied_, &counters_);
  assert(tied_.size() >= 2);

  // Sources pop in ascending priority order (newest first); the first
  // non-absent state per column wins (per-column chains preserve sequence
  // order across levels).
  std::fill(states_.begin(), states_.end(), ColumnState::kAbsent);
  bool any_value = false;
  for (const int index : tied_) {
    if (FoldContribution(*sources_[index], &states_, &values_)) {
      any_value = true;
    }
  }

  // Decode before advancing: the key slice points into source storage.
  const uint64_t key = DecodeKey64(sources_[tied_[0]]->user_key());

  size_t appended = 0;
  if (any_value) {
    AppendContributionRow(batch, key, states_, values_);
    appended = 1;
    ++counters_.rows_merged;
  }

  // Tied-zip lift: before the per-row advance, the tied sources' UPCOMING
  // runs often keep overlapping (several levels carrying the same hot key
  // range). When the newest tied source fully covers Π, its zip-eligible
  // rows shadow everything the older tied sources hold at the same keys, so
  // whole common-key prefixes splice from the newest source while every tied
  // source consumes them — multi-level overlap stops falling back to a
  // per-row fold per key. The window is bounded by the heap's next key: the
  // non-tied sources have not moved, so nothing can interleave below it.
  if (appended < max_rows &&
      sources_[tied_[0]]->covered_positions().size() == projection_size_) {
    const Slice limit = heap_.empty() ? Slice() : heap_.top_key();
    while (appended < max_rows) {
      const size_t n = ZipTiedRun(batch, limit, hi_inclusive, max_rows - appended);
      if (n == 0) break;
      appended += n;
    }
  }

  // Fully deleted keys emit nothing; the sources still advance past them.
  for (const int index : tied_) {
    sources_[index]->Next();
    ++counters_.source_advances;
    if (sources_[index]->Valid()) heap_.Push(index, &counters_);
  }
  return appended;
}

size_t LevelMergingIterator::ZipTiedRun(ScanBatch* batch,
                                        const Slice& limit_exclusive,
                                        const Slice& hi_inclusive,
                                        size_t max_rows) {
  // Per-index key equality is what makes "newest shadows the rest" hold row
  // by row: at every spliced index all tied sources sit on the SAME user
  // key, and lifecycle order says the newest source's committed full row
  // wins it outright. It covers all of Π, so no position is nulled.
  const size_t rows = ZipCommonPrefix(
      tied_.size(), [this](size_t i) { return sources_[tied_[i]].get(); },
      limit_exclusive, hi_inclusive, max_rows, &zip_views_);
  if (rows == 0) return 0;
  batch->SpliceRun(zip_views_[0], rows, sources_[tied_[0]]->covered_positions(), {});
  for (const int index : tied_) sources_[index]->ConsumeColumnRun(rows);
  counters_.rows_merged += rows;
  counters_.zip_rows += rows;
  ++counters_.zip_splices;
  counters_.source_advances += rows * tied_.size();
  return rows;
}

Status LevelMergingIterator::status() const {
  for (const auto& source : sources_) {
    if (!source->status().ok()) return source->status();
  }
  return Status::OK();
}

}  // namespace laser

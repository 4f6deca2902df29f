// ScanIterator: the consumer side of a range scan. LaserDB::NewScan pins a
// ReadView and plans the scan over it (scan_plan.h); the iterator owns both
// and pulls batches out of the plan's merge.

#include "laser/laser_db.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace laser {

ScanIterator::ScanIterator(ReadView view, ScanPlan plan, ColumnSet projection,
                           ScanSpec spec, Stats* stats)
    : projection_(std::move(projection)),
      spec_(std::move(spec)),
      view_(std::move(view)),
      plan_(std::move(plan)),
      stats_(stats) {}

ScanIterator::~ScanIterator() {
  const ScanPathCounters& c = plan_.merge->counters();
  stats_->scan_rows_merged.fetch_add(c.rows_merged, std::memory_order_relaxed);
  stats_->scan_source_advances.fetch_add(c.source_advances, std::memory_order_relaxed);
  stats_->scan_heap_resifts.fetch_add(c.heap_resifts, std::memory_order_relaxed);
  stats_->scan_zip_rows.fetch_add(c.zip_rows, std::memory_order_relaxed);
  stats_->scan_zip_splices.fetch_add(c.zip_splices, std::memory_order_relaxed);
  stats_->scan_batches_emitted.fetch_add(batches_emitted_, std::memory_order_relaxed);
  uint64_t blocks_skipped = 0;
  uint64_t files_skipped = 0;
  for (const auto& filter : plan_.filters) {
    blocks_skipped += filter->blocks_skipped();
    files_skipped += filter->files_skipped();
  }
  stats_->blocks_skipped_zonemap.fetch_add(blocks_skipped, std::memory_order_relaxed);
  stats_->files_skipped_zonemap.fetch_add(files_skipped, std::memory_order_relaxed);
  stats_->rows_filtered_pushdown.fetch_add(rows_filtered_, std::memory_order_relaxed);
  stats_->aggs_pushed.fetch_add(aggs_pushed_, std::memory_order_relaxed);
  stats_->aggs_from_zonemap.fetch_add(aggs_from_zonemap_, std::memory_order_relaxed);
  stats_->scan_rows_emitted.fetch_add(rows_emitted_, std::memory_order_relaxed);
  // Per scan (not per row): the trace weights scans by rows separately.
  for (int column : projection_) {
    stats_->scan_projected_by_column[Stats::ColumnSlot(column)].fetch_add(
        1, std::memory_order_relaxed);
  }
}

size_t ScanIterator::NextBatch(ScanBatch* batch, size_t max_rows) {
  if (row_mode_) {
    assert(!"ScanIterator: NextBatch after per-row access (one style only)");
    mode_error_ = Status::InvalidArgument(
        "ScanIterator: NextBatch called after per-row access; use one "
        "consumption style per iterator");
    return 0;
  }
  batch_mode_ = true;
  const size_t n = Fill(batch, max_rows);
  rows_emitted_ += n;
  if (n > 0) ++batches_emitted_;
  return n;
}

size_t ScanIterator::Fill(ScanBatch* batch, size_t max_rows) {
  while (true) {
    batch->Reset(projection_.size());
    if (plan_.merge->AppendRows(batch, Slice(plan_.hi_key_encoded), max_rows) == 0) return 0;
    if (!spec_.predicates.empty()) FilterBatch(batch);
    if (!batch->empty()) return batch->size();
  }
}

void ScanIterator::FilterBatch(ScanBatch* batch) {
  const size_t n = batch->size();
  if (n == 0) return;
  // Mask pass, one predicate at a time over the flat column arrays (the op
  // switch is loop-invariant); a null in a predicated column fails it.
  filter_mask_.assign(n, 1);
  for (size_t pi = 0; pi < spec_.predicates.size(); ++pi) {
    const ScanPredicate& pred = spec_.predicates[pi];
    const ScanBatch::Column& col = batch->columns[plan_.pred_positions[pi]];
    for (size_t r = 0; r < n; ++r) {
      filter_mask_[r] = static_cast<uint8_t>(
          filter_mask_[r] &
          (col.present[r] != 0 && PredicateMatches(pred, col.values[r]) ? 1 : 0));
    }
  }
  // Column-major compaction of the survivors.
  size_t write = 0;
  for (size_t r = 0; r < n; ++r) {
    if (filter_mask_[r] != 0) batch->keys[write++] = batch->keys[r];
  }
  if (write == n) return;
  for (auto& col : batch->columns) {
    size_t w = 0;
    for (size_t r = 0; r < n; ++r) {
      if (filter_mask_[r] == 0) continue;
      col.present[w] = col.present[r];
      col.values[w] = col.values[r];
      ++w;
    }
  }
  rows_filtered_ += n - write;
  batch->keys.resize(write);
}

Status ScanIterator::AggregateAll(ScanAggregates* out) {
  const size_t width = projection_.size();
  out->rows = 0;
  out->counts.assign(width, 0);
  out->sums.assign(width, 0);
  out->minima.assign(width, std::numeric_limits<uint64_t>::max());
  out->maxima.assign(width, 0);
  // No caller sees rows from this iterator any more, so fold-capable
  // sources may answer whole blocks from their zone maps: arm their folds
  // and force sole-contributor windows even on a predicate-free scan.
  bool any_fold = false;
  for (const auto& filter : plan_.filters) {
    if (filter->ArmFold()) any_fold = true;
  }
  if (any_fold) plan_.merge->set_arm_windows_always(true);
  ScanBatch batch;
  size_t n;
  while ((n = NextBatch(&batch)) > 0) {
    out->rows += n;
    for (size_t pos = 0; pos < width; ++pos) {
      const ScanBatch::Column& col = batch.columns[pos];
      uint64_t count = 0;
      uint64_t sum = 0;
      uint64_t mn = out->minima[pos];
      uint64_t mx = out->maxima[pos];
      for (size_t r = 0; r < n; ++r) {
        if (col.present[r] == 0) continue;
        const uint64_t v = col.values[r];
        ++count;
        sum += v;
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      out->counts[pos] += count;
      out->sums[pos] += sum;
      out->minima[pos] = mn;
      out->maxima[pos] = mx;
    }
  }
  // Merge in the blocks the filters answered from zone maps alone.
  for (const auto& filter : plan_.filters) {
    if (filter->blocks_folded() == 0) continue;
    out->Merge(filter->folded());
    // Folded rows reached the aggregate result; count them as emitted for
    // stats and the workload trace's selectivity.
    rows_emitted_ += filter->folded().rows;
    aggs_from_zonemap_ += filter->blocks_folded();
  }
  aggs_pushed_ += 4 * width;
  return status();
}

bool ScanIterator::Valid() const {
  if (batch_mode_) {
    assert(!"ScanIterator: per-row access after NextBatch (one style only)");
    mode_error_ = Status::InvalidArgument(
        "ScanIterator: per-row access after NextBatch; use one consumption "
        "style per iterator");
    return false;
  }
  if (!row_mode_) {
    row_mode_ = true;
    const_cast<ScanIterator*>(this)->LoadRow();
  }
  return row_ < row_batch_.size();
}

void ScanIterator::Next() {
  const bool valid = Valid();
  assert(valid);
  if (!valid) return;  // release builds: a misuse moves nothing
  ++rows_emitted_;
  ++row_;
  LoadRow();
}

void ScanIterator::LoadRow() {
  if (row_ == row_batch_.size()) {
    Fill(&row_batch_, kRowBatchRows);
    row_ = 0;
  }
  if (row_ == row_batch_.size()) return;
  row_values_.resize(projection_.size());
  for (size_t pos = 0; pos < row_values_.size(); ++pos) {
    const ScanBatch::Column& column = row_batch_.columns[pos];
    row_values_[pos] = column.present[row_] != 0
                           ? std::optional<ColumnValue>(column.values[row_])
                           : std::nullopt;
  }
}

uint64_t ScanIterator::key() const { return row_batch_.keys[row_]; }

const std::vector<std::optional<ColumnValue>>& ScanIterator::values() const {
  return row_values_;
}

}  // namespace laser

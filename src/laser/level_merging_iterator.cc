#include "laser/level_merging_iterator.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "util/coding.h"

namespace laser {

LevelMergingIterator::LevelMergingIterator(std::vector<Source> sources,
                                           size_t projection_size,
                                           std::vector<int> predicate_positions)
    : projection_size_(projection_size),
      predicate_positions_(std::move(predicate_positions)) {
  for (size_t s = 0; s < sources.size(); ++s) {
    assert(!sources[s].empty());
    source_leaves_.push_back(leaves_.size());
    std::vector<int> covered;
    for (auto& cursor : sources[s]) {
      covered.insert(covered.end(), cursor->covered_positions().begin(),
                     cursor->covered_positions().end());
      leaves_.push_back(std::move(cursor));
      leaf_source_.push_back(s);
    }
    std::sort(covered.begin(), covered.end());
    source_covered_.push_back(std::move(covered));
  }
  source_leaves_.push_back(leaves_.size());
}

void LevelMergingIterator::Seek(const Slice& target_user_key) {
  for (auto& leaf : leaves_) leaf->Seek(target_user_key);
  AssignHeap();
}

bool LevelMergingIterator::SourceKey(size_t s, uint64_t* key) const {
  bool valid = false;
  for (size_t l = source_leaves_[s]; l < source_leaves_[s + 1]; ++l) {
    if (!leaves_[l]->Valid()) continue;
    const uint64_t leaf_key = DecodeKey64(leaves_[l]->user_key());
    if (!valid || leaf_key < *key) *key = leaf_key;
    valid = true;
  }
  return valid;
}

void LevelMergingIterator::AssignHeap() {
  heap_.Assign(num_sources(), [this](size_t s, uint64_t* key) { return SourceKey(s, key); });
}

void LevelMergingIterator::ReheapTop() {
  heap_.ReheapTop([this](size_t s, uint64_t* key) { return SourceKey(s, key); }, &counters_);
}

size_t LevelMergingIterator::AppendRows(ScanBatch* batch, const Slice& hi_inclusive,
                                        size_t max_rows) {
  batch->EnsureColumnCapacity(batch->keys.size() + max_rows);
  const bool has_hi = !hi_inclusive.empty();
  const uint64_t hi = has_hi ? DecodeKey64(hi_inclusive) : 0;
  size_t appended = 0;
  while (appended < max_rows && !heap_.empty()) {
    const uint64_t top_key = heap_.top_key();
    if (has_hi && top_key > hi) break;
    uint64_t end = has_hi ? hi : UINT64_MAX;
    uint64_t second = 0;
    const bool bounded = heap_.SecondKey(&second);
    if (bounded && second == top_key) {
      // Tied sources: merge at run granularity over every leaf.
      appended += MergeRuns(batch, 0, leaves_.size(), end, hi_inclusive, max_rows - appended);
      AssignHeap();
      continue;
    }
    // The top source is the sole contributor until `second`: hand the whole
    // run off to it batch-at-a-time, then repair the heap once. A level
    // stitched from several column groups goes through the run merge over
    // its own groups' cursors, bounded by the same limit/hi keys, so a
    // single contributing level streams at run granularity end to end.
    char limit_bytes[8];
    Slice limit;
    if (bounded) {
      EncodeBigEndian64(limit_bytes, second);
      limit = Slice(limit_bytes, sizeof(limit_bytes));
      end = std::min(end, second - 1);
    }
    const size_t s = static_cast<size_t>(heap_.top());
    const size_t first_leaf = source_leaves_[s];
    const size_t last_leaf = source_leaves_[s + 1];
    const bool pushdown = !predicate_positions_.empty() || arm_windows_always_;
    if (pushdown) {
      const std::vector<int>& covered = source_covered_[s];
      // With no predicates (arm_windows_always_) the includes() check is
      // vacuously true and the fast-forward never triggers.
      if (!std::includes(covered.begin(), covered.end(), predicate_positions_.begin(),
                         predicate_positions_.end())) {
        // Some predicated column can never be present in this window:
        // every row it could emit is null there and fails the scan's
        // conjunction — fast-forward past the run without decoding it.
        for (size_t l = first_leaf; l < last_leaf; ++l) {
          leaves_[l]->SkipTo(limit, &counters_);
        }
        ReheapTop();
        continue;
      }
      // Sole-contributor window: the only place a zone-map verdict about
      // a block is a verdict about the merged rows, so block skipping is
      // armed exactly around this drain. Safe to arm every column group of
      // the level at once: they hold DISJOINT columns, so a block one group
      // skips can only remove values that themselves fail the scan's
      // predicates — never a newer version of a column another supplies.
      for (size_t l = first_leaf; l < last_leaf; ++l) {
        leaves_[l]->ArmBlockSkipping(limit, hi_inclusive);
      }
    }
    if (last_leaf - first_leaf > 1) {
      appended += MergeRuns(batch, first_leaf, last_leaf, end, hi_inclusive, max_rows - appended);
    } else {
      const size_t n = leaves_[first_leaf]->AppendRunTo(batch, limit, hi_inclusive,
                                                        max_rows - appended, &counters_);
      counters_.rows_merged += n;
      appended += n;
    }
    if (pushdown) {
      for (size_t l = first_leaf; l < last_leaf; ++l) leaves_[l]->DisarmBlockSkipping();
    }
    ReheapTop();
  }
  return appended;
}

size_t LevelMergingIterator::MergeRuns(ScanBatch* batch, size_t leaf_begin,
                                       size_t leaf_end, uint64_t end,
                                       const Slice& hi_inclusive, size_t max_rows) {
  const size_t width = projection_size_;

  // Current rows first (cheap, and they bound the window): one that does
  // not hold a value in every position it covers is resolved on its own
  // key, so the window ends there, at `cap`.
  uint64_t cap = UINT64_MAX;
  streams_.clear();
  for (size_t l = leaf_begin; l < leaf_end; ++l) {
    const ContributionIterator& leaf = *leaves_[l];
    if (!leaf.Valid()) continue;
    const uint64_t key = DecodeKey64(leaf.user_key());
    if (key > end) continue;
    const std::vector<ColumnState>& states = leaf.states();
    bool full = true;
    for (const int pos : leaf.covered_positions()) {
      if (states[pos] != ColumnState::kValue) {
        full = false;
        break;
      }
    }
    streams_.push_back({l, key, full});
    if (!full) end = cap = key;
  }

  // Then the runs of the streams whose current row lies before `cap` (a run
  // at or past it would lie past the window).
  // Past its last exposed row a stream is unknown, so the window ends at
  // the smallest such row.
  leaf_views_.resize(leaves_.size());
  for (const Stream& stream : streams_) {
    ColumnRunView& view = leaf_views_[stream.leaf];
    view.rows = 0;
    if (stream.head > end || stream.head >= cap) continue;
    const size_t n = leaves_[stream.leaf]->AppendColumnRunTo(&view, hi_inclusive, max_rows);
    end = std::min(end, n > 0 ? view.keys[n - 1] : stream.head);
  }

  // Lanes: one per stream in the window, except that a column group whose
  // stream matches its level's first lane key for key joins that lane.
  lanes_.clear();
  lane_head_.clear();
  lane_col_.clear();
  source_lane_.assign(num_sources(), -1);
  for (Stream& stream : streams_) {
    const uint64_t head = stream.head;
    if (head > end) continue;
    const ContributionIterator* leaf = leaves_[stream.leaf].get();
    const ColumnRunView& view = leaf_views_[stream.leaf];
    const size_t run =
        static_cast<size_t>(std::upper_bound(view.keys, view.keys + view.rows, end) - view.keys);
    const size_t source = leaf_source_[stream.leaf];
    int lane = source_lane_[source];
    if (lane < 0 || lanes_[lane].head_key != head || lanes_[lane].rows != run + 1 ||
        (run > 0 && memcmp(lanes_[lane].keys, view.keys, run * sizeof(uint64_t)) != 0)) {
      lane = static_cast<int>(lanes_.size());
      lanes_.push_back({head, view.keys, run + 1, true, 0, head});
      lane_head_.resize(lane_head_.size() + width, nullptr);
      lane_col_.resize(lane_col_.size() + width, nullptr);
      if (source_lane_[source] < 0) source_lane_[source] = lane;
    }
    stream.lane = lane;
    if (!stream.full) lanes_[lane].full_head = false;
    const std::vector<int>& covered = leaf->covered_positions();
    const std::vector<ColumnState>& states = leaf->states();
    const ColumnValue* values = leaf->values().data();
    for (size_t ci = 0; ci < covered.size(); ++ci) {
      const int pos = covered[ci];
      const size_t at = static_cast<size_t>(lane) * width + static_cast<size_t>(pos);
      switch (states[pos]) {
        case ColumnState::kValue:
          lane_head_[at] = values + pos;
          break;
        case ColumnState::kTombstone:
          lane_head_[at] = &tombstone_;
          break;
        case ColumnState::kAbsent:
          break;
      }
      if (run > 0) lane_col_[at] = view.cols[ci];
    }
  }
  const size_t rows = lanes_.size() == 1 && lanes_[0].full_head ? GatherLane(batch, max_rows)
                                                                : MergeLanes(batch, max_rows);

  // Advance every leaf past the stream rows its lane consumed; the caller
  // repairs the heap.
  for (const Stream& stream : streams_) {
    if (stream.lane < 0) continue;
    const size_t consumed = lanes_[static_cast<size_t>(stream.lane)].next;
    if (consumed == 0) continue;
    leaves_[stream.leaf]->ConsumeColumnRun(consumed - 1);
    leaves_[stream.leaf]->Next();
    counters_.source_advances += consumed;
  }
  counters_.rows_merged += rows;
  counters_.zip_rows += rows;
  if (rows > 0) ++counters_.zip_splices;
  return rows;
}

size_t LevelMergingIterator::GatherLane(ScanBatch* batch, size_t max_rows) {
  // One lane holds every key of the window: its rows go into the batch as
  // they are, column by column, with no class or segment bookkeeping.
  Lane& lane = lanes_[0];
  const size_t rows = std::min(lane.rows, max_rows);
  const size_t row0 = batch->keys.size();
  batch->keys.push_back(lane.head_key);
  batch->keys.insert(batch->keys.end(), lane.keys, lane.keys + (rows - 1));
  for (size_t pos = 0; pos < projection_size_; ++pos) {
    if (lane_head_[pos] == nullptr) {
      batch->NullColumnRun(pos, row0, rows);
      continue;
    }
    ScanBatch::Column& column = batch->columns[pos];
    assert(row0 + rows <= column.values.size());
    column.values[row0] = *lane_head_[pos];
    std::copy_n(lane_col_[pos], rows - 1, column.values.data() + row0 + 1);
    memset(column.present.data() + row0, 1, rows);
  }
  lane.next = rows;
  return rows;
}

size_t LevelMergingIterator::MergeLanes(ScanBatch* batch, size_t max_rows) {
  const size_t width = projection_size_;
  const size_t num_lanes = lanes_.size();

  // Classes: split the positions by which lanes cover them, one lane at a
  // time; then list each lane's classes.
  class_of_.assign(width, 0);
  size_t classes = 1;
  for (size_t lane = 0; lane < num_lanes; ++lane) {
    class_remap_.assign(2 * classes, -1);
    int next = 0;
    for (size_t pos = 0; pos < width; ++pos) {
      const bool covered = lane_head_[lane * width + pos] != nullptr;
      int& to = class_remap_[2 * static_cast<size_t>(class_of_[pos]) + (covered ? 1 : 0)];
      if (to < 0) to = next++;
      class_of_[pos] = to;
    }
    classes = static_cast<size_t>(next);
  }
  class_first_pos_.assign(classes, -1);
  for (size_t pos = width; pos-- > 0;) class_first_pos_[class_of_[pos]] = static_cast<int>(pos);
  lane_classes_.clear();
  for (size_t lane = 0; lane < num_lanes; ++lane) {
    lanes_[lane].classes_begin = lane_classes_.size();
    for (size_t c = 0; c < classes; ++c) {
      if (lane_head_[lane * width + static_cast<size_t>(class_first_pos_[c])] != nullptr) {
        lane_classes_.push_back(static_cast<int>(c));
      }
    }
    lanes_[lane].classes_end = lane_classes_.size();
  }

  // The merge: repeatedly take the smallest key across the lanes. A lane
  // alone below the runner-up emits that whole stretch as one segment,
  // unless its current row does not hold every value (it resolves per key).
  // A key several lanes hold takes each class from its newest holder, and
  // the older holders' rows are consumed as shadowed.
  if (segments_.size() < classes) segments_.resize(classes);
  for (size_t c = 0; c < classes; ++c) segments_[c].clear();
  winner_lane_.resize(classes);
  winner_row_.resize(classes);
  active_.resize(num_lanes);
  for (size_t lane = 0; lane < num_lanes; ++lane) active_[lane] = lane;
  const auto advance = [this](size_t ai, size_t rows) {
    Lane& lane = lanes_[active_[ai]];
    lane.next += rows;
    if (lane.next == lane.rows) {
      active_.erase(active_.begin() + static_cast<ptrdiff_t>(ai));
      return false;
    }
    lane.cur = lane.keys[lane.next - 1];
    return true;
  };
  const size_t row0 = batch->keys.size();
  size_t rows = 0;
  while (rows < max_rows && !active_.empty()) {
    size_t top = 0;
    uint64_t min1 = lanes_[active_[0]].cur;
    uint64_t min2 = 0;
    bool has_second = false;
    for (size_t ai = 1; ai < active_.size(); ++ai) {
      const uint64_t key = lanes_[active_[ai]].cur;
      if (key < min1) {
        min2 = min1;
        min1 = key;
        top = ai;
        has_second = true;
      } else if (!has_second || key < min2) {
        min2 = key;
        has_second = true;
      }
    }
    if ((!has_second || min1 < min2) && lanes_[active_[top]].full_head) {
      const size_t lane_index = active_[top];
      const Lane& lane = lanes_[lane_index];
      // Stream rows [lane.next, stop) lie below the runner-up.
      const uint64_t* run_from = lane.keys + (lane.next > 0 ? lane.next - 1 : 0);
      const uint64_t* run_end = lane.keys + (lane.rows - 1);
      const uint64_t* run_stop =
          has_second ? std::lower_bound(run_from, run_end, min2) : run_end;
      const size_t stop = std::min(static_cast<size_t>(run_stop - lane.keys) + 1,
                                   lane.next + (max_rows - rows));
      const size_t count = stop - lane.next;
      if (lane.next == 0) batch->keys.push_back(lane.head_key);
      for (const uint64_t* key = run_from; key < lane.keys + (stop - 1); ++key) {
        batch->keys.push_back(*key);
      }
      for (size_t c = 0; c < classes; ++c) {
        const size_t at = lane_index * width + static_cast<size_t>(class_first_pos_[c]);
        AddSegment(c, lane_head_[at] != nullptr ? static_cast<int>(lane_index) : -1,
                   lane.next, count);
      }
      advance(top, count);
      rows += count;
      continue;
    }
    std::fill(winner_lane_.begin(), winner_lane_.begin() + static_cast<ptrdiff_t>(classes), -1);
    bool partial = false;
    for (size_t ai = 0; ai < active_.size();) {
      const size_t lane_index = active_[ai];
      const Lane& lane = lanes_[lane_index];
      if (lane.cur != min1) {
        ++ai;
        continue;
      }
      if (!lane.full_head) partial = true;
      for (size_t lc = lane.classes_begin; lc < lane.classes_end; ++lc) {
        const size_t c = static_cast<size_t>(lane_classes_[lc]);
        if (winner_lane_[c] >= 0) continue;
        winner_lane_[c] = static_cast<int>(lane_index);
        winner_row_[c] = lane.next;
      }
      if (advance(ai, 1)) ++ai;
    }
    // Only a partial current row can make a winner a tombstone (its lane has
    // no other row). A key whose winners hold no value is deleted: it is
    // consumed, and no row is emitted.
    bool live = !partial;
    for (size_t pos = 0; !live && pos < width; ++pos) {
      const int lane = winner_lane_[class_of_[pos]];
      live = lane >= 0 && lane_head_[static_cast<size_t>(lane) * width + pos] != &tombstone_;
    }
    if (!live) continue;
    batch->keys.push_back(min1);
    for (size_t c = 0; c < classes; ++c) AddSegment(c, winner_lane_[c], winner_row_[c], 1);
    ++rows;
  }

  // Gather: each projected column is written once, segment by segment.
  for (size_t pos = 0; pos < width; ++pos) {
    ScanBatch::Column& column = batch->columns[pos];
    assert(row0 + rows <= column.values.size());
    ColumnValue* values = column.values.data() + row0;
    uint8_t* present = column.present.data() + row0;
    for (const Segment& seg : segments_[class_of_[pos]]) {
      if (seg.lane < 0) {
        std::fill_n(values, seg.count, 0);
        std::fill_n(present, seg.count, 0);
      } else {
        const size_t at = static_cast<size_t>(seg.lane) * width + pos;
        std::fill_n(present, seg.count, 1);
        size_t i = 0;
        size_t row = seg.row;
        if (row == 0) {
          // tombstone_ holds 0, and a deleted position is null.
          values[i] = *lane_head_[at];
          present[i++] = lane_head_[at] != &tombstone_ ? 1 : 0;
          ++row;
        }
        for (size_t j = row - 1; i < seg.count; ++i, ++j) values[i] = lane_col_[at][j];
      }
      values += seg.count;
      present += seg.count;
    }
  }
  return rows;
}

void LevelMergingIterator::AddSegment(size_t cls, int lane, size_t row, size_t count) {
  std::vector<Segment>& segments = segments_[cls];
  if (!segments.empty()) {
    Segment& last = segments.back();
    if (last.lane == lane && (lane < 0 || last.row + last.count == row)) {
      last.count += count;
      return;
    }
  }
  segments.push_back({lane, row, count});
}

Status LevelMergingIterator::status() const {
  for (const auto& leaf : leaves_) {
    if (!leaf->status().ok()) return leaf->status();
  }
  return Status::OK();
}

}  // namespace laser

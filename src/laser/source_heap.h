// SourceMinHeap: the level merge's k-way-merge engine. A binary min-heap
// over the merge's sources, ordered by (current user key, priority index),
// gives O(log k) repair per advance instead of a linear O(k) sweep per row.
// The merge passes each source's key in, decoded to its uint64 value once
// per advance, so heap comparisons are integer compares that never re-enter
// the sources.

#ifndef LASER_LASER_SOURCE_HEAP_H_
#define LASER_LASER_SOURCE_HEAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "laser/contribution_iterator.h"

namespace laser {

/// Min-heap of source indices by (key, index). The index doubles as the
/// source's priority: callers order sources newest to oldest.
///
/// A source's key is the smallest current key among its cursors, decoded
/// to uint64 (big-endian, so integer order is key order). The heap asks for
/// it through `key_of(index, &key)`, which returns false for a drained
/// source, whenever it is told a source advanced (Assign/ReheapTop).
class SourceMinHeap {
 public:
  /// Rebuilds the heap from every source in [0, num_sources) that is not
  /// drained. O(k).
  template <typename KeyOf>
  void Assign(size_t num_sources, const KeyOf& key_of) {
    keys_.assign(num_sources, 0);
    heap_.clear();
    for (size_t i = 0; i < num_sources; ++i) {
      if (key_of(i, &keys_[i])) heap_.push_back(static_cast<int>(i));
    }
    for (int i = static_cast<int>(heap_.size()) / 2 - 1; i >= 0; --i) {
      SiftDown(static_cast<size_t>(i));
    }
  }

  bool empty() const { return heap_.empty(); }

  /// Index of the smallest source. REQUIRES: !empty().
  int top() const { return heap_[0]; }
  uint64_t top_key() const { return keys_[heap_[0]]; }

  /// Sets `*key` to the key of the second-smallest source (the merge's run
  /// limit) and returns true, or returns false when the top source is alone.
  /// O(1): the runner-up is one of the root's children.
  bool SecondKey(uint64_t* key) const {
    if (heap_.size() < 2) return false;
    if (heap_.size() == 2) {
      *key = keys_[heap_[1]];
    } else {
      *key = Less(heap_[1], heap_[2]) ? keys_[heap_[1]] : keys_[heap_[2]];
    }
    return true;
  }

  /// Repairs the root after its source advanced (or drained). O(log k).
  template <typename KeyOf>
  void ReheapTop(const KeyOf& key_of, ScanPathCounters* counters) {
    const int index = heap_[0];
    if (!key_of(static_cast<size_t>(index), &keys_[index])) {
      heap_[0] = heap_.back();
      heap_.pop_back();
      if (heap_.empty()) return;
    }
    SiftDown(0);
    ++counters->heap_resifts;
  }

 private:
  bool Less(int a, int b) const {
    if (keys_[a] != keys_[b]) return keys_[a] < keys_[b];
    return a < b;
  }

  void SiftDown(size_t i) {
    const size_t n = heap_.size();
    while (true) {
      const size_t left = 2 * i + 1;
      if (left >= n) return;
      size_t smallest = left;
      const size_t right = left + 1;
      if (right < n && Less(heap_[right], heap_[left])) smallest = right;
      if (!Less(heap_[smallest], heap_[i])) return;
      std::swap(heap_[i], heap_[smallest]);
      i = smallest;
    }
  }

  std::vector<uint64_t> keys_;  // per source: its key when last told
  std::vector<int> heap_;       // source indices
};

}  // namespace laser

#endif  // LASER_LASER_SOURCE_HEAP_H_

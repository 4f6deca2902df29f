// SourceMinHeap: the k-way-merge engine shared by the column- and
// level-merging iterators. A binary min-heap over contribution sources,
// ordered by (current user key, priority index), replaces the former linear
// O(k) FindSmallest/Combine sweeps with O(log k) repair per advance. Each
// source's key is decoded to its uint64 value once per advance, so heap
// comparisons are integer compares that never re-enter the sources' virtual
// dispatch.

#ifndef LASER_LASER_SOURCE_HEAP_H_
#define LASER_LASER_SOURCE_HEAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "laser/contribution.h"
#include "util/coding.h"

namespace laser {

/// Min-heap of contribution sources by (user key, index). The index doubles
/// as the source's priority: callers order sources newest to oldest, so
/// popping a run of key ties yields them newest-first — the order the
/// first-non-absent-wins fold requires.
///
/// Keys are the sources' 8-byte user keys decoded to uint64 (big-endian, so
/// integer order is key order), refreshed whenever the heap is told a source
/// advanced (ReheapTop/Push). Sources popped via PopTies are out of the heap
/// and must be re-Pushed (or dropped) after they advance.
class SourceMinHeap {
 public:
  /// Rebuilds the heap from every valid source. O(k).
  template <typename Source>
  void Assign(const std::vector<std::unique_ptr<Source>>& sources) {
    sources_.clear();
    sources_.reserve(sources.size());
    for (const auto& source : sources) sources_.push_back(source.get());
    keys_.assign(sources_.size(), 0);
    heap_.clear();
    for (size_t i = 0; i < sources_.size(); ++i) {
      if (sources_[i]->Valid()) {
        keys_[i] = DecodeKey64(sources_[i]->user_key());
        heap_.push_back(static_cast<int>(i));
      }
    }
    for (int i = static_cast<int>(heap_.size()) / 2 - 1; i >= 0; --i) {
      SiftDown(static_cast<size_t>(i));
    }
  }

  bool empty() const { return heap_.empty(); }

  /// Empties the heap. The sources stay registered: Push re-inserts one.
  void Clear() { heap_.clear(); }

  /// Index of the smallest source. REQUIRES: !empty().
  int top() const { return heap_[0]; }
  ContributionSource* top_source() const { return sources_[heap_[0]]; }
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

  /// Repairs the root after its source advanced (or went invalid). O(log k).
  void ReheapTop(ScanPathCounters* counters) {
    const int index = heap_[0];
    if (sources_[index]->Valid()) {
      keys_[index] = DecodeKey64(sources_[index]->user_key());
    } else {
      heap_[0] = heap_.back();
      heap_.pop_back();
      if (heap_.empty()) return;
    }
    SiftDown(0);
    ++counters->heap_resifts;
  }

  /// Pops the root and every source tied with it on user key, appending
  /// their indices to `out` in ascending priority order (heap pops are
  /// ordered by (key, index)). The popped sources keep their positions; the
  /// caller combines them, advances each, and re-Pushes the survivors.
  void PopTies(std::vector<int>* out, ScanPathCounters* counters) {
    out->clear();
    const uint64_t key = top_key();
    while (!heap_.empty() && keys_[heap_[0]] == key) {
      out->push_back(heap_[0]);
      heap_[0] = heap_.back();
      heap_.pop_back();
      if (!heap_.empty()) {
        SiftDown(0);
        ++counters->heap_resifts;
      }
    }
  }

  /// Re-inserts source `index` after it advanced. REQUIRES: source valid.
  void Push(int index, ScanPathCounters* counters) {
    keys_[index] = DecodeKey64(sources_[index]->user_key());
    heap_.push_back(index);
    SiftUp(heap_.size() - 1);
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

  void SiftUp(size_t i) {
    while (i > 0) {
      const size_t parent = (i - 1) / 2;
      if (!Less(heap_[i], heap_[parent])) return;
      std::swap(heap_[i], heap_[parent]);
      i = parent;
    }
  }

  std::vector<ContributionSource*> sources_;  // borrowed; index = priority
  std::vector<uint64_t> keys_;                // decoded current keys
  std::vector<int> heap_;                     // indices into sources_
};

}  // namespace laser

#endif  // LASER_LASER_SOURCE_HEAP_H_

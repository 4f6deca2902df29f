#include "lsm/merging_iterator.h"

#include <cassert>

#include "lsm/dbformat.h"

namespace laser {

namespace {

/// Binary min-heap over the children by internal key, with cached key
/// slices so heap repair never re-enters the children's virtual key().
/// Equal internal keys do occur: the fragments of one write share (user_key,
/// seq, type) across column-group runs. Ties go to the lower child index, so
/// a caller that lists its inputs newest first pops their fragments in that
/// order. Next() advances the winner and re-sifts only the root — O(log k)
/// per entry.
class MergingIterator final : public Iterator {
 public:
  explicit MergingIterator(std::vector<std::unique_ptr<Iterator>> children)
      : children_(std::move(children)), keys_(children_.size()) {}

  bool Valid() const override { return !heap_.empty(); }

  void SeekToFirst() override {
    for (auto& child : children_) child->SeekToFirst();
    BuildHeap();
  }

  void Seek(const Slice& target) override {
    for (auto& child : children_) child->Seek(target);
    BuildHeap();
  }

  void Next() override {
    assert(Valid());
    const size_t index = heap_[0];
    children_[index]->Next();
    if (children_[index]->Valid()) {
      keys_[index] = children_[index]->key();
    } else {
      heap_[0] = heap_.back();
      heap_.pop_back();
      if (heap_.empty()) return;
    }
    SiftDown(0);
  }

  Slice key() const override { return keys_[heap_[0]]; }
  Slice value() const override { return children_[heap_[0]]->value(); }

  Status status() const override {
    for (const auto& child : children_) {
      if (!child->status().ok()) return child->status();
    }
    return Status::OK();
  }

 private:
  void BuildHeap() {
    heap_.clear();
    for (size_t i = 0; i < children_.size(); ++i) {
      if (children_[i]->Valid()) {
        keys_[i] = children_[i]->key();
        heap_.push_back(i);
      }
    }
    for (int i = static_cast<int>(heap_.size()) / 2 - 1; i >= 0; --i) {
      SiftDown(static_cast<size_t>(i));
    }
  }

  bool Less(size_t a, size_t b) const {
    const int c = cmp_.Compare(keys_[a], keys_[b]);
    return c < 0 || (c == 0 && a < b);
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

  InternalKeyComparator cmp_;
  std::vector<std::unique_ptr<Iterator>> children_;
  std::vector<Slice> keys_;    // cached current key per child
  std::vector<size_t> heap_;   // indices of valid children
};

}  // namespace

std::unique_ptr<Iterator> NewMergingIterator(
    std::vector<std::unique_ptr<Iterator>> children) {
  if (children.empty()) return std::make_unique<EmptyIterator>();
  if (children.size() == 1) return std::move(children[0]);
  return std::make_unique<MergingIterator>(std::move(children));
}

}  // namespace laser

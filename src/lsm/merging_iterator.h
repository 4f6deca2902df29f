// Heap-based k-way merge over internal-key iterators. Used by compaction to
// merge its input runs. Equal internal keys (fragments of one write in
// different column groups) come out in child order.

#ifndef LASER_LSM_MERGING_ITERATOR_H_
#define LASER_LSM_MERGING_ITERATOR_H_

#include <memory>
#include <vector>

#include "util/iterator.h"

namespace laser {

/// Creates an iterator yielding the union of `children` in internal-key
/// order. Takes ownership of the children. An empty vector yields an empty
/// iterator.
std::unique_ptr<Iterator> NewMergingIterator(
    std::vector<std::unique_ptr<Iterator>> children);

}  // namespace laser

#endif  // LASER_LSM_MERGING_ITERATOR_H_

#include "laser/schema.h"

#include <algorithm>
#include <cassert>

namespace laser {

bool ColumnSetContains(const ColumnSet& set, int column) {
  return std::binary_search(set.begin(), set.end(), column);
}

bool ColumnSetsIntersect(const ColumnSet& a, const ColumnSet& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return false;
}

bool ColumnSetIsSubset(const ColumnSet& a, const ColumnSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

ColumnSet ColumnSetIntersection(const ColumnSet& a, const ColumnSet& b) {
  ColumnSet result;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(result));
  return result;
}

std::string ColumnSetToString(const ColumnSet& set) {
  std::string out;
  size_t i = 0;
  while (i < set.size()) {
    size_t j = i;
    while (j + 1 < set.size() && set[j + 1] == set[j] + 1) ++j;
    if (!out.empty()) out += ",";
    if (j == i) {
      out += std::to_string(set[i]);
    } else {
      out.append(std::to_string(set[i])).append("-").append(std::to_string(set[j]));
    }
    i = j + 1;
  }
  return out;
}

ColumnSet MakeColumnRange(int lo, int hi) {
  assert(lo <= hi);
  ColumnSet set;
  set.reserve(hi - lo + 1);
  for (int c = lo; c <= hi; ++c) set.push_back(c);
  return set;
}

Schema::Schema(std::vector<ColumnSpec> columns) : columns_(std::move(columns)) {}

Schema Schema::UniformInt32(int c) {
  std::vector<ColumnSpec> columns;
  columns.reserve(c);
  for (int i = 1; i <= c; ++i) {
    columns.push_back(ColumnSpec{std::string("a").append(std::to_string(i)),
                                 ColumnType::kInt32});
  }
  return Schema(std::move(columns));
}

ColumnSet Schema::AllColumns() const { return MakeColumnRange(1, num_columns()); }

double Schema::AverageDatatypeSize() const {
  if (columns_.empty()) return 8.0;
  double total = 8.0;  // the key
  for (const auto& col : columns_) {
    total += static_cast<double>(ColumnTypeSize(col.type));
  }
  return total / static_cast<double>(columns_.size() + 1);
}

bool Schema::operator==(const Schema& other) const {
  if (columns_.size() != other.columns_.size()) return false;
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name != other.columns_[i].name ||
        columns_[i].type != other.columns_[i].type) {
      return false;
    }
  }
  return true;
}

}  // namespace laser

#include "laser/cg_config.h"

#include <algorithm>

namespace laser {

CgConfig::CgConfig(std::vector<std::vector<ColumnSet>> levels)
    : levels_(std::move(levels)) {}

CgConfig CgConfig::RowOnly(int num_columns, int num_levels) {
  std::vector<std::vector<ColumnSet>> levels(
      num_levels, {MakeColumnRange(1, num_columns)});
  return CgConfig(std::move(levels));
}

CgConfig CgConfig::ColumnOnly(int num_columns, int num_levels) {
  return EquiWidth(num_columns, num_levels, 1);
}

CgConfig CgConfig::EquiWidth(int num_columns, int num_levels, int cg_size) {
  std::vector<std::vector<ColumnSet>> levels;
  levels.reserve(num_levels);
  levels.push_back({MakeColumnRange(1, num_columns)});  // level 0: row format
  std::vector<ColumnSet> groups;
  for (int lo = 1; lo <= num_columns; lo += cg_size) {
    groups.push_back(MakeColumnRange(lo, std::min(lo + cg_size - 1, num_columns)));
  }
  for (int level = 1; level < num_levels; ++level) {
    levels.push_back(groups);
  }
  return CgConfig(std::move(levels));
}

CgConfig CgConfig::HtapSimple(int num_columns, int num_levels, int row_levels) {
  std::vector<std::vector<ColumnSet>> levels;
  levels.reserve(num_levels);
  std::vector<ColumnSet> row{MakeColumnRange(1, num_columns)};
  std::vector<ColumnSet> columnar;
  for (int c = 1; c <= num_columns; ++c) columnar.push_back({c});
  for (int level = 0; level < num_levels; ++level) {
    levels.push_back(level < row_levels ? row : columnar);
  }
  return CgConfig(std::move(levels));
}

Status CgConfig::Validate(int num_columns) const {
  if (levels_.empty()) return Status::InvalidArgument("config has no levels");
  const ColumnSet all = MakeColumnRange(1, num_columns);
  if (levels_[0].size() != 1 || levels_[0][0] != all) {
    return Status::InvalidArgument("level 0 must be a single row-format CG");
  }
  for (size_t level = 0; level < levels_.size(); ++level) {
    // Each level must partition 1..num_columns into sorted, ordered groups.
    ColumnSet seen;
    for (const ColumnSet& group : levels_[level]) {
      if (group.empty()) {
        return Status::InvalidArgument("empty CG at level " + std::to_string(level));
      }
      if (!std::is_sorted(group.begin(), group.end())) {
        return Status::InvalidArgument("unsorted CG at level " +
                                       std::to_string(level));
      }
      seen.insert(seen.end(), group.begin(), group.end());
    }
    std::sort(seen.begin(), seen.end());
    if (seen != all) {
      return Status::InvalidArgument("level " + std::to_string(level) +
                                     " is not a partition of all columns");
    }
    // CG containment against the previous level.
    if (level > 0) {
      for (const ColumnSet& group : levels_[level]) {
        bool contained = false;
        for (const ColumnSet& parent : levels_[level - 1]) {
          if (ColumnSetIsSubset(group, parent)) {
            contained = true;
            break;
          }
        }
        if (!contained) {
          return Status::InvalidArgument(
              "CG containment violated at level " + std::to_string(level) +
              " for group <" + ColumnSetToString(group) + ">");
        }
      }
    }
  }
  return Status::OK();
}

int CgConfig::GroupOf(int level, int column) const {
  const auto& groups = levels_[level];
  for (size_t j = 0; j < groups.size(); ++j) {
    if (ColumnSetContains(groups[j], column)) return static_cast<int>(j);
  }
  return -1;
}

std::vector<int> CgConfig::OverlappingGroups(int level,
                                             const ColumnSet& projection) const {
  std::vector<int> result;
  const auto& groups = levels_[level];
  for (size_t j = 0; j < groups.size(); ++j) {
    if (ColumnSetsIntersect(groups[j], projection)) {
      result.push_back(static_cast<int>(j));
    }
  }
  return result;
}

std::string CgConfig::ToString() const {
  std::string out;
  for (size_t level = 0; level < levels_.size(); ++level) {
    out.append("L").append(std::to_string(level)).append(":");
    for (const ColumnSet& group : levels_[level]) {
      out.append("<").append(ColumnSetToString(group)).append(">");
    }
    out += "\n";
  }
  return out;
}

}  // namespace laser

// CgConfig: the design point of a Real-Time LSM-Tree (§3.2) — for every
// level, a partition of the payload columns into column groups, subject to:
//   * level 0 is a single row-format group (kept row-oriented for ingest);
//   * CG containment: every CG at level i is a subset of exactly one CG at
//     level i-1 (simplifies layout-changing compaction, §4.4).
//
// All seven §7.2 designs (row, column, fixed cg-sizes, HTAP-simple, D-opt)
// are instances of this class.

#ifndef LASER_LASER_CG_CONFIG_H_
#define LASER_LASER_CG_CONFIG_H_

#include <string>
#include <vector>

#include "laser/schema.h"
#include "util/status.h"

namespace laser {

class CgConfig {
 public:
  CgConfig() = default;

  /// `levels[i]` is the CG partition at level i (each group sorted, groups
  /// ordered by first column).
  explicit CgConfig(std::vector<std::vector<ColumnSet>> levels);

  // -- Canonical designs used throughout the evaluation --

  /// Pure row layout at every level (default RocksDB).
  static CgConfig RowOnly(int num_columns, int num_levels);

  /// Row-format level 0, single-column CGs everywhere below.
  static CgConfig ColumnOnly(int num_columns, int num_levels);

  /// Row-format level 0, then equi-width groups of `cg_size` columns (the
  /// cg-size-N designs of §7.1/§7.2; the last group may be narrower).
  static CgConfig EquiWidth(int num_columns, int num_levels, int cg_size);

  /// Row layout for the first `row_levels` levels, pure columnar below
  /// (the HTAP-simple design of §7.2).
  static CgConfig HtapSimple(int num_columns, int num_levels, int row_levels);

  /// Checks: non-empty levels, level 0 row-format, each level a partition of
  /// 1..num_columns, and CG containment between adjacent levels.
  Status Validate(int num_columns) const;

  int num_levels() const { return static_cast<int>(levels_.size()); }

  /// Groups at `level`.
  const std::vector<ColumnSet>& groups(int level) const { return levels_[level]; }

  /// Number of groups at `level` (the paper's g_i).
  int num_groups(int level) const {
    return static_cast<int>(levels_[level].size());
  }

  /// Index of the group at `level` that contains `column` (-1 if absent).
  int GroupOf(int level, int column) const;

  /// Indices of the groups at `level` intersecting `projection`.
  std::vector<int> OverlappingGroups(int level, const ColumnSet& projection) const;

  /// Multi-line rendering in the style of Figure 9(b):
  ///   L0:<1-30>
  ///   L2:<1-15><16-30> ...
  std::string ToString() const;

  bool operator==(const CgConfig& other) const { return levels_ == other.levels_; }

 private:
  std::vector<std::vector<ColumnSet>> levels_;
};

}  // namespace laser

#endif  // LASER_LASER_CG_CONFIG_H_

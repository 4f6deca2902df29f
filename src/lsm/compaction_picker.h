// CompactionPicker: implements the CG-local compaction strategy of §4.4 —
// "select the most overflowing CG in the most overflowing level" — plus the
// two RocksDB file-priorities compared in Figure 2. A CG's capacity within a
// level is the level capacity apportioned to the group by its stored width
// (key + column bytes), as §4.4 prescribes.

#ifndef LASER_LSM_COMPACTION_PICKER_H_
#define LASER_LSM_COMPACTION_PICKER_H_

#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "laser/options.h"
#include "lsm/version.h"

namespace laser {

/// One sorted run a compaction reads: a (level, group) run segment and the
/// columns it is laid out in. Each level-0 file is a run of its own.
struct CompactionInput {
  int level = 0;
  int group = 0;
  ColumnSet columns;
  Version::FileList files;
};

/// A unit of compaction work: merge `inputs` into the groups `output_groups`
/// of `output_level`, re-encoding each input run for every output group it
/// intersects (§4.4). An overflow job reads one parent run segment and the
/// child segments under it one level down. A morph reads every run below L0
/// and writes the bottom level in the target design's partition. Column
/// sets are snapshotted from the picked Version's design, so execution never
/// consults a possibly-newer config.
struct CompactionJob {
  std::vector<CompactionInput> inputs;  ///< newest first
  int output_level = 0;
  std::vector<int> output_groups;
  std::vector<ColumnSet> output_columns;  ///< parallel to output_groups
  bool to_bottom_level = false;           ///< output level is the last level
  /// (level, group) slots the job locks from pick to install: every input's
  /// and every output's, once each.
  std::vector<std::pair<int, int>> claims;
  /// The design a morph lays the whole tree out in at install;
  /// num_levels() == 0 for an overflow job.
  CgConfig design;

  /// The Version that installing this job over `base` publishes, given the
  /// files it wrote (parallel to output_groups): its inputs removed, a
  /// morph's design laid out, its outputs added.
  std::shared_ptr<Version> Apply(const Version& base,
                                 const std::vector<Version::FileList>& outputs) const;
};

class CompactionPicker {
 public:
  CompactionPicker(const LaserOptions* options);

  /// Byte capacity of a sorted run (level, group) under `version`'s design:
  /// the level capacity apportioned by the group's stored row width.
  uint64_t GroupCapacityBytes(const Version& version, int level,
                              int group) const;

  /// Overflow score; > 1 means compaction needed. Level 0 scores by file
  /// count against the compaction trigger.
  double Score(const Version& version, int level, int group) const;

  /// Picks the highest-priority eligible job, skipping any whose claims
  /// intersect `busy`. When `target` is non-null and differs from the
  /// Version's design, the only job is the morph to `target`, which claims
  /// every run below L0; until those claims are free it returns nullopt, so
  /// the running jobs drain. Returns nullopt when nothing needs compacting.
  std::optional<CompactionJob> Pick(const Version& version,
                                    const std::set<std::pair<int, int>>& busy,
                                    const CgConfig* target = nullptr) const;

  /// True if any (level, group) has score >= 1, or (with `target`) the
  /// design still differs from the target.
  bool NeedsCompaction(const Version& version,
                       const CgConfig* target = nullptr) const;

 private:
  /// Picks one parent SST according to the configured priority.
  std::shared_ptr<FileMetaData> PickParentFile(const Version::FileList& run) const;

  /// Stored row width (key + column bytes) of `columns` under the schema.
  double GroupWeight(const ColumnSet& columns) const;

  const LaserOptions* options_;
};

}  // namespace laser

#endif  // LASER_LSM_COMPACTION_PICKER_H_

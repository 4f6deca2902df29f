// Version: an immutable snapshot of the LSM-Tree file layout —
// files[level][group] is the sorted run of that column group at that level
// (level 0 has one row-format group whose files may overlap; deeper runs are
// partitioned into non-overlapping SSTs).
//
// Versions are copy-on-write: flush/compaction builds a successor Version
// and the engine atomically swaps the shared_ptr. Readers pin the Version
// (and thereby its files) for the duration of a query.

#ifndef LASER_LSM_VERSION_H_
#define LASER_LSM_VERSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "laser/cg_config.h"
#include "lsm/file_meta.h"

namespace laser {

class Version {
 public:
  using FileList = std::vector<std::shared_ptr<FileMetaData>>;

  Version() = default;

  /// An empty tree laid out per `design`. The design travels with the
  /// Version from here on: every reader and compaction consults the pinned
  /// Version's design, never the (possibly newer) target.
  static std::shared_ptr<Version> Empty(CgConfig design);

  /// Shape-only variant for tests/tools: synthesizes a placeholder design
  /// with singleton column groups ({1}, {2}, ...) matching the shape.
  static std::shared_ptr<Version> Empty(int num_levels,
                                        const std::vector<int>& groups_per_level);

  /// Deep-copies the level/group structure (file pointers are shared).
  std::shared_ptr<Version> Clone() const;

  /// The CG design this Version's files are physically laid out in: the old
  /// design until a morph installs, then the target.
  const CgConfig& design() const { return design_; }

  int num_levels() const { return static_cast<int>(files_.size()); }
  int num_groups(int level) const {
    return static_cast<int>(files_[level].size());
  }

  const FileList& files(int level, int group) const {
    return files_[level][group];
  }
  FileList& mutable_files(int level, int group) { return files_[level][group]; }

  /// Total bytes in one sorted run.
  uint64_t GroupBytes(int level, int group) const;
  /// GroupBytes minus each file's serialized filter block: the level's DATA
  /// footprint. Compaction sizing uses this so the filter allocation policy
  /// (uniform vs per-level Monkey) cannot perturb tree shape — two trees fed
  /// the same writes converge to the same files regardless of filter sizes.
  uint64_t GroupDataBytes(int level, int group) const;

  /// Total entries in one sorted run.
  uint64_t GroupEntries(int level, int group) const;

  /// Total bytes across all runs.
  uint64_t TotalBytes() const;

  /// Files in (level, group) whose user-key range intersects [lo, hi].
  FileList OverlappingFiles(int level, int group, const Slice& lo,
                            const Slice& hi) const;

  /// For level >= 1 (non-overlapping run): the file whose user-key range
  /// contains `user_key`, or nullptr. The Version's file list keeps the file
  /// alive while the caller pins this Version.
  FileMetaData* FileContaining(int level, int group, const Slice& user_key) const;

  /// Replaces run (level, group): removes `remove` (matched by file_number)
  /// and inserts `add`, keeping the run sorted by smallest key.
  /// REQUIRES: called on a Clone not yet published.
  void ReplaceFiles(int level, int group, const FileList& remove,
                    const FileList& add);

  /// Appends a file to level-0 (newest last).
  void AddLevel0File(std::shared_ptr<FileMetaData> file);

  /// Lays the tree out in `design`, one empty run per group below L0. A
  /// morph calls this between removing its inputs and adding its outputs.
  /// REQUIRES: called on a Clone not yet published, `design` has this
  /// Version's level count, every run below L0 empty.
  void Relayout(CgConfig design);

  /// Multi-line human-readable summary (files and bytes per level/group).
  std::string DebugString() const;

 private:
  // files_[level][group] -> run; L0 ordered by flush time (oldest first),
  // deeper runs ordered by smallest key.
  std::vector<std::vector<FileList>> files_;
  // Physical layout of files_; shape mirrors files_ level-by-level.
  CgConfig design_;
};

}  // namespace laser

#endif  // LASER_LSM_VERSION_H_

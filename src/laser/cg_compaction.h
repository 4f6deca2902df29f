// CG-local compaction (§4.4): every job merges its input runs into output
// groups, re-encoding each run for every output group it intersects (row →
// narrower CGs, or back) and merging row versions newest-wins-per-column
// (§4.2). An overflow job carries one group of level i into level i+1; a
// morph folds every run below L0 into the bottom level with the same loop.
// Fragments of one write travel independently and recombine when they meet
// (equal-sequence merge). Also hosts the flush job (memtable → L0).

#ifndef LASER_LASER_CG_COMPACTION_H_
#define LASER_LASER_CG_COMPACTION_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "laser/options.h"
#include "laser/row_codec.h"
#include "lsm/compaction_picker.h"
#include "lsm/version.h"
#include "memtable/memtable.h"
#include "util/io_queue.h"
#include "util/stats.h"

namespace laser {

/// One internal entry: (type, sequence, encoded row value).
struct MergedEntry {
  ValueType type = kTypeFullRow;
  SequenceNumber sequence = 0;
  std::string value;
};

/// Folds the versions of one user key (newest first): partial rows merge
/// into older rows column-wise, full rows and tombstones absorb everything
/// older, and bottom-level tombstones are dropped. A reader opened before
/// the job keeps reading the files its view pinned, so only a key's newest
/// state is written. Exposed separately for property testing.
class VersionMerger {
 public:
  /// `bottom_level` enables tombstone dropping.
  VersionMerger(const RowCodec* codec, ColumnSet cg, bool bottom_level);

  /// Folds (*versions)[0, n), newest first, in place: the entries to emit,
  /// newest first, end up in (*versions)[0, result). The other slots keep
  /// their (stale) string buffers so the caller can reuse them for the next
  /// key without allocating.
  size_t Fold(std::vector<MergedEntry>* versions, size_t n);

 private:
  const RowCodec* codec_;
  const ColumnSet cg_;
  const bool bottom_level_;
  std::string scratch_;  // merge output, swapped into the accumulator
};

/// Wraps an internal-key iterator over rows encoded for `parent`, re-encoding
/// each value for `child`: the intersection of the two sets is kept, so
/// fragments of one write recombine downstream via the equal-sequence merge
/// in RunCompaction. Each row is re-encoded once, through a
/// ProjectionPlan built for the (parent, child) pair. Partial rows whose
/// re-encoding is empty are skipped; tombstones pass through (they must
/// reach every child chain).
std::unique_ptr<Iterator> NewProjectingIterator(std::unique_ptr<Iterator> base,
                                                const RowCodec* codec,
                                                const ColumnSet& parent,
                                                const ColumnSet& child);

/// Everything a background job needs from the engine.
struct JobContext {
  const LaserOptions* options = nullptr;
  const RowCodec* codec = nullptr;
  std::string db_path;
  BlockCache* cache = nullptr;
  Stats* stats = nullptr;
  /// Allocates a fresh SST file number.
  std::function<uint64_t()> next_file_number;
  /// Syncs and closes each finished output while the job writes the next.
  /// Required by RunCompaction.
  IoQueue* io = nullptr;
};

/// Output of one compaction job.
struct CompactionResult {
  /// Parallel to job.output_groups: the new files of each output group.
  std::vector<Version::FileList> outputs;
  uint64_t bytes_written = 0;
  uint64_t entries_written = 0;
};

/// Executes a compaction job (outside the engine mutex). Returns only after
/// every output is synced; on failure it has removed every file it created.
Status RunCompaction(const JobContext& ctx, const CompactionJob& job,
                     CompactionResult* result);

/// Flushes an immutable memtable to a row-format L0 SST, synced before it
/// returns.
Status RunFlush(const JobContext& ctx, const MemTable& imm,
                std::shared_ptr<FileMetaData>* output);

}  // namespace laser

#endif  // LASER_LASER_CG_COMPACTION_H_

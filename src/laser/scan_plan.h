// What a read sees, and how a range scan reads it (§4.3).
//
// A ReadView pins the memtables, the Version and the sequence number a read
// works against. Point reads walk it directly. A range scan is planned from
// it (PlanScan): key-range narrowing, the coverage census, zone-map filters,
// L0 pruning and cursor building all read one list of sources, taken in one
// walk of the pinned Version and laid out per that Version's design (a
// morph may have changed it since the seed config).

#ifndef LASER_LASER_SCAN_PLAN_H_
#define LASER_LASER_SCAN_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "laser/level_merging_iterator.h"
#include "laser/row_codec.h"
#include "laser/scan_pushdown.h"
#include "lsm/version.h"
#include "memtable/memtable.h"

namespace laser {

/// The memtables (Ref'd), the Version and the sequence number one read sees,
/// pinned together under the engine mutex by LaserDB::PinReadView. The
/// destructor unrefs the memtables; the Version stays alive as long as the
/// view does. Move-only.
struct ReadView {
  ReadView(MemTable* mem, std::vector<MemTable*> imms,
           std::shared_ptr<const Version> version, SequenceNumber sequence);
  ReadView(ReadView&& other) noexcept;
  ReadView(const ReadView&) = delete;
  ReadView& operator=(const ReadView&) = delete;
  ReadView& operator=(ReadView&&) = delete;
  ~ReadView();

  MemTable* mem;  ///< the mutable memtable; nullptr once moved from
  std::vector<MemTable*> imms;  ///< immutable memtables, oldest first
  std::shared_ptr<const Version> version;
  SequenceNumber sequence;  ///< entries above it are invisible
};

/// A range scan, planned: its (narrowed) upper bound, the projection
/// position of each predicate, one zone-map filter per SST-backed source
/// that can use one, and the merge over every source, positioned at the
/// scan's first key.
struct ScanPlan {
  std::string hi_key_encoded;  ///< inclusive upper bound, EncodeKey64
  /// Parallel to the spec's predicates.
  std::vector<int> pred_positions;
  // The merge's cursors hold raw pointers into `filters`: keep the filters
  // declared first so they are destroyed last.
  std::vector<std::unique_ptr<ZoneMapScanFilter>> filters;
  std::unique_ptr<LevelMergingIterator> merge;
};

/// Plans the scan of [lo_key, hi_key] for `projection` (already validated)
/// and `spec` over `view`. The plan reads `view`'s memtables and files: it
/// must not outlive the view. Returns nullopt when a predicate's column is
/// not projected (the filter re-check and the aggregate fold read it out of
/// the batch).
std::optional<ScanPlan> PlanScan(const ReadView& view, const RowCodec* codec,
                                 uint64_t lo_key, uint64_t hi_key,
                                 const ColumnSet& projection, const ScanSpec& spec);

}  // namespace laser

#endif  // LASER_LASER_SCAN_PLAN_H_

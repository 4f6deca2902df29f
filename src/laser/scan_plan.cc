#include "laser/scan_plan.h"

#include <algorithm>
#include <span>
#include <utility>

#include "laser/contribution_iterator.h"
#include "lsm/run_iterator.h"
#include "util/coding.h"

namespace laser {

ReadView::ReadView(MemTable* mem, std::vector<MemTable*> imms,
                   std::shared_ptr<const Version> version, SequenceNumber sequence)
    : mem(mem), imms(std::move(imms)), version(std::move(version)), sequence(sequence) {
  mem->Ref();
  for (MemTable* m : this->imms) m->Ref();
}

ReadView::ReadView(ReadView&& other) noexcept
    : mem(std::exchange(other.mem, nullptr)),
      imms(std::exchange(other.imms, {})),
      version(std::move(other.version)),
      sequence(other.sequence) {}

ReadView::~ReadView() {
  if (mem != nullptr) mem->Unref();
  for (MemTable* m : imms) m->Unref();
}

namespace {

/// One SST-backed source a scan may open: an L0 file (level 0 is one
/// row-format group, and its files overlap each other, so each is a source
/// of its own) or the run of one column group of a level >= 1.
struct RunSource {
  int level;
  const ColumnSet* columns;
  std::span<const std::shared_ptr<FileMetaData>> files;

  bool Overlaps(const Slice& lo, const Slice& hi) const {
    return std::any_of(files.begin(), files.end(),
                       [&](const auto& file) { return file->OverlapsUserRange(lo, hi); });
  }
};

/// Builds the zone-map filter for one SST-backed source: the scan's
/// predicates restricted to the columns the source actually stores (a
/// predicate on a column outside the source cannot be judged from its
/// blocks). `pred_cover[i]` is the number of the scan's sources that can
/// supply predicate i's column; a predicate only this source covers is
/// marked unconditional (window-free skipping is sound for it — see the
/// skip-safety argument in scan_pushdown.h). Returns nullptr when no
/// predicate applies.
std::unique_ptr<ZoneMapScanFilter> MakeSourceFilter(const ScanSpec& spec,
                                                    const ColumnSet& source_columns,
                                                    const std::vector<int>& pred_cover) {
  std::vector<ScanPredicate> preds;
  std::vector<bool> unconditional;
  bool any_unconditional = false;
  for (size_t i = 0; i < spec.predicates.size(); ++i) {
    if (ColumnSetContains(source_columns, spec.predicates[i].column)) {
      preds.push_back(spec.predicates[i]);
      const bool sole = pred_cover[i] == 1;
      unconditional.push_back(sole);
      any_unconditional |= sole;
    }
  }
  if (preds.empty()) return nullptr;
  if (!any_unconditional) unconditional.clear();
  return std::make_unique<ZoneMapScanFilter>(std::move(preds),
                                             std::move(unconditional));
}

/// Adds to `hull` the part inside [lo, hi] of every block of `file` that may
/// supply a value of `pred`'s column passing it (key-range narrowing in
/// scan_pushdown.h): the whole file when it has no zone maps, nothing when
/// its folded zone rules the column out.
void AddToKeyHull(const FileMetaData& file, const ScanPredicate& pred, uint64_t lo,
                  uint64_t hi, KeyHull* hull) {
  const uint64_t smallest = DecodeKey64(file.smallest_user_key());
  const uint64_t largest = DecodeKey64(file.largest_user_key());
  if (largest < lo || smallest > hi) return;
  const ZoneMaps* zones = file.reader->zone_maps();
  if (zones == nullptr || zones->blocks.empty()) {
    hull->Add(std::max(smallest, lo), std::min(largest, hi));
    return;
  }
  const ZoneMapEntry* file_zone = file.reader->file_zone();
  if (file_zone != nullptr && !ZoneMayHoldMatch(*file_zone, pred)) return;
  for (const ZoneMapEntry& block : zones->blocks) {
    if (block.last_user_key < lo || block.first_user_key > hi) continue;
    if (ZoneMayHoldMatch(block, pred)) {
      hull->Add(std::max(block.first_user_key, lo), std::min(block.last_user_key, hi));
    }
  }
}

}  // namespace

std::optional<ScanPlan> PlanScan(const ReadView& view, const RowCodec* codec,
                                 uint64_t lo_key, uint64_t hi_key,
                                 const ColumnSet& projection, const ScanSpec& spec) {
  ScanPlan plan;
  for (const ScanPredicate& pred : spec.predicates) {
    const auto it = std::lower_bound(projection.begin(), projection.end(), pred.column);
    if (it == projection.end() || *it != pred.column) return std::nullopt;
    plan.pred_positions.push_back(static_cast<int>(it - projection.begin()));
  }

  // The one walk of the pinned Version: L0 files newest first, then at each
  // level >= 1 the non-empty runs of the groups overlapping the projection
  // (§4.3: "we optimize range queries with projections by opening iterators
  // only for the overlapping column-groups in each level").
  const Version& version = *view.version;
  const CgConfig& design = version.design();
  const ColumnSet& row_columns = design.groups(0)[0];  // memtables and L0
  std::vector<RunSource> runs;
  const Version::FileList& l0 = version.files(0, 0);
  for (auto it = l0.rbegin(); it != l0.rend(); ++it) {
    runs.push_back({0, &row_columns, {&*it, 1}});
  }
  for (int level = 1; level < version.num_levels(); ++level) {
    for (int g : design.OverlappingGroups(level, projection)) {
      if (version.files(level, g).empty()) continue;
      runs.push_back({level, &design.groups(level)[g], version.files(level, g)});
    }
  }
  int memtables_with_rows = view.mem->num_entries() > 0 ? 1 : 0;
  for (MemTable* m : view.imms) memtables_with_rows += m->num_entries() > 0 ? 1 : 0;

  // Key-range narrowing (scan_pushdown.h): a matching row's key lies in
  // every predicate's key hull, read off the zone maps of the sources that
  // can supply the predicate's column. Memtables have no zone maps, so any
  // memtable row turns narrowing off.
  for (const ScanPredicate& pred : spec.predicates) {
    if (memtables_with_rows > 0 || lo_key > hi_key) break;
    KeyHull hull;
    for (const RunSource& run : runs) {
      if (!ColumnSetContains(*run.columns, pred.column)) continue;
      for (const auto& file : run.files) AddToKeyHull(*file, pred, lo_key, hi_key, &hull);
    }
    lo_key = std::max(lo_key, hull.lo);
    hi_key = std::min(hi_key, hull.hi);
  }
  const std::string lo_encoded = EncodeKey64(lo_key);
  plan.hi_key_encoded = EncodeKey64(hi_key);
  const Slice lo(lo_encoded);
  const Slice hi(plan.hi_key_encoded);

  // Exclusive-coverage census: for each predicate, how many of this scan's
  // sources could supply a value for its column. Non-empty memtables and
  // range-overlapping L0 files cover every column (row format); a level>=1
  // run covers its group's columns when any of its files overlaps the range.
  // A count of 1 marks the predicate unconditional for that lone source,
  // enabling window-free skips (seek-time file skips, L0 plan pruning) —
  // sound because every emitted row's value for the column then comes from
  // that source or is null, and null fails every predicate.
  std::vector<int> pred_cover(spec.predicates.size(), memtables_with_rows);
  for (const RunSource& run : runs) {
    if (spec.predicates.empty() || !run.Overlaps(lo, hi)) continue;
    for (size_t i = 0; i < spec.predicates.size(); ++i) {
      if (ColumnSetContains(*run.columns, spec.predicates[i].column)) ++pred_cover[i];
    }
  }

  // Memtables: newest first, each a source of its own.
  std::vector<LevelMergingIterator::Source> sources;
  const auto add_memtable = [&](MemTable* m) {
    sources.emplace_back();
    sources.back().push_back(std::make_unique<ContributionIterator>(
        m->NewIterator(), codec, row_columns, projection, view.sequence));
  };
  add_memtable(view.mem);
  std::for_each(view.imms.rbegin(), view.imms.rend(), add_memtable);

  // SST-backed sources. An empty range opens none: the scan emits nothing.
  // Each gets a zone-map filter, owned by the plan so it outlives the block
  // cursor that consults it; a source storing every projected column also
  // gets fold support (a filter even with no predicates): if the consumer
  // turns out to be AggregateAll, blocks provably made of visible
  // all-matching rows contribute their zone summaries instead of being read.
  // Every L0 file is a source of its own; a level's runs form one source,
  // whose groups the level merge stitches.
  int source_level = -1;  // level of sources.back(); -1 for a memtable
  for (const RunSource& run : runs) {
    if (lo_key > hi_key) break;
    // An L0 file whose key range is disjoint from [lo, hi] cannot
    // contribute and is not opened at all.
    if (run.level == 0 && !run.Overlaps(lo, hi)) continue;
    std::unique_ptr<ZoneMapScanFilter> owned =
        MakeSourceFilter(spec, *run.columns, pred_cover);
    // `covers` implies the filter carries every predicate of the scan
    // (predicate columns ⊆ projection ⊆ columns), the second fold
    // requirement.
    const bool covers = ColumnSetIsSubset(projection, *run.columns);
    if (owned == nullptr && covers) {
      owned = std::make_unique<ZoneMapScanFilter>(std::vector<ScanPredicate>());
    }
    if (covers) owned->ConfigureFold(projection, view.sequence);
    ZoneMapScanFilter* filter = owned.get();
    if (owned != nullptr) plan.filters.push_back(std::move(owned));

    std::unique_ptr<Iterator> iter;
    if (run.level == 0) {
      // File-level zone check: a file whose folded zone proves an
      // unconditional predicate cannot match anywhere drops out of the scan
      // plan without being opened (the filter stays in the plan so its skip
      // counters reach stats).
      SstReader* reader = run.files[0]->reader.get();
      const ZoneMapEntry* file_zone = reader->file_zone();
      if (filter != nullptr && file_zone != nullptr &&
          filter->CanSkipFile(*file_zone, reader->zone_maps()->blocks.size())) {
        continue;
      }
      iter = reader->NewIterator(filter);
    } else {
      iter = NewRunIterator(Version::FileList(run.files.begin(), run.files.end()),
                            filter);
    }
    if (run.level == 0 || run.level != source_level) sources.emplace_back();
    source_level = run.level;
    sources.back().push_back(std::make_unique<ContributionIterator>(
        std::move(iter), codec, *run.columns, projection, view.sequence, filter));
  }

  // The merge skips windows by the predicates' distinct positions.
  std::vector<int> merge_positions = plan.pred_positions;
  std::sort(merge_positions.begin(), merge_positions.end());
  merge_positions.erase(std::unique(merge_positions.begin(), merge_positions.end()),
                        merge_positions.end());
  plan.merge = std::make_unique<LevelMergingIterator>(
      std::move(sources), projection.size(), std::move(merge_positions));
  plan.merge->Seek(lo);
  return plan;
}

}  // namespace laser

#include "util/stats.h"

#include <cstdio>

namespace laser {

void Stats::AddCountersTo(Stats* out) const {
  const auto add = [](const std::atomic<uint64_t>& from,
                      std::atomic<uint64_t>& to) {
    to.fetch_add(from.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
  };
  add(data_block_reads, out->data_block_reads);
  add(index_block_reads, out->index_block_reads);
  add(block_cache_hits, out->block_cache_hits);
  add(block_cache_misses, out->block_cache_misses);
  add(bloom_checks, out->bloom_checks);
  add(bloom_negatives, out->bloom_negatives);
  add(bloom_false_positives, out->bloom_false_positives);
  for (int i = 0; i < kStatsLevels; ++i) {
    add(bloom_checks_by_level[i], out->bloom_checks_by_level[i]);
    add(bloom_negatives_by_level[i], out->bloom_negatives_by_level[i]);
    add(bloom_false_positives_by_level[i],
        out->bloom_false_positives_by_level[i]);
    add(filter_bytes_by_level[i], out->filter_bytes_by_level[i]);
  }
  add(filter_bytes_total, out->filter_bytes_total);
  add(point_reads, out->point_reads);
  add(range_scans, out->range_scans);
  for (int i = 0; i < kStatsLevels; ++i) {
    add(point_reads_by_level[i], out->point_reads_by_level[i]);
  }
  for (int i = 0; i < kStatsColumns; ++i) {
    add(scan_projected_by_column[i], out->scan_projected_by_column[i]);
    add(point_projected_by_column[i], out->point_projected_by_column[i]);
    add(updated_by_column[i], out->updated_by_column[i]);
  }
  add(inserts, out->inserts);
  add(updates, out->updates);
  add(scan_rows_emitted, out->scan_rows_emitted);
  add(scan_rows_merged, out->scan_rows_merged);
  add(scan_batches_emitted, out->scan_batches_emitted);
  add(scan_source_advances, out->scan_source_advances);
  add(scan_heap_resifts, out->scan_heap_resifts);
  add(scan_zip_rows, out->scan_zip_rows);
  add(scan_zip_splices, out->scan_zip_splices);
  add(scan_tie_fold_rows, out->scan_tie_fold_rows);
  add(blocks_skipped_zonemap, out->blocks_skipped_zonemap);
  add(files_skipped_zonemap, out->files_skipped_zonemap);
  add(rows_filtered_pushdown, out->rows_filtered_pushdown);
  add(aggs_pushed, out->aggs_pushed);
  add(aggs_from_zonemap, out->aggs_from_zonemap);
  add(design_morph_compactions, out->design_morph_compactions);
  add(design_morphs_completed, out->design_morphs_completed);
  add(bytes_written_wal, out->bytes_written_wal);
  add(wal_syncs, out->wal_syncs);
  add(wal_group_commits, out->wal_group_commits);
  add(wal_group_writes, out->wal_group_writes);
  add(bytes_flushed, out->bytes_flushed);
  add(bytes_compacted, out->bytes_compacted);
  add(compaction_jobs, out->compaction_jobs);
  add(flush_jobs, out->flush_jobs);
  add(write_stall_micros, out->write_stall_micros);
  // Gauge, not a counter: the per-shard caches are identical, report the max.
  const uint64_t shards =
      block_cache_effective_shards.load(std::memory_order_relaxed);
  if (shards >
      out->block_cache_effective_shards.load(std::memory_order_relaxed)) {
    out->block_cache_effective_shards.store(shards, std::memory_order_relaxed);
  }
  // Bits-per-key is a shared configuration gauge too (shards run the same
  // allocation): take the max rather than summing.
  for (int i = 0; i < kStatsLevels; ++i) {
    const uint64_t mb = bloom_millibits_by_level[i].load(std::memory_order_relaxed);
    if (mb > out->bloom_millibits_by_level[i].load(std::memory_order_relaxed)) {
      out->bloom_millibits_by_level[i].store(mb, std::memory_order_relaxed);
    }
  }
}

std::string Stats::ToString() const {
  char buf[768];
  snprintf(buf, sizeof(buf),
           "data_blocks=%llu index_blocks=%llu cache_hit=%llu cache_miss=%llu "
           "bloom_neg=%llu/%llu bloom_fp=%llu filter_bytes=%llu "
           "flushed=%lluB compacted=%lluB "
           "compactions=%llu stalls=%lluus wal_groups=%llu/%llu wal_syncs=%llu "
           "scan_rows=%llu scan_batches=%llu scan_advances=%llu scan_resifts=%llu "
           "scan_zip_rows=%llu scan_zip_splices=%llu scan_tie_fold_rows=%llu "
           "zonemap_skips=%llu zonemap_file_skips=%llu pushdown_filtered=%llu "
           "aggs_pushed=%llu cache_shards=%llu",
           static_cast<unsigned long long>(data_block_reads.load()),
           static_cast<unsigned long long>(index_block_reads.load()),
           static_cast<unsigned long long>(block_cache_hits.load()),
           static_cast<unsigned long long>(block_cache_misses.load()),
           static_cast<unsigned long long>(bloom_negatives.load()),
           static_cast<unsigned long long>(bloom_checks.load()),
           static_cast<unsigned long long>(bloom_false_positives.load()),
           static_cast<unsigned long long>(filter_bytes_total.load()),
           static_cast<unsigned long long>(bytes_flushed.load()),
           static_cast<unsigned long long>(bytes_compacted.load()),
           static_cast<unsigned long long>(compaction_jobs.load()),
           static_cast<unsigned long long>(write_stall_micros.load()),
           static_cast<unsigned long long>(wal_group_commits.load()),
           static_cast<unsigned long long>(wal_group_writes.load()),
           static_cast<unsigned long long>(wal_syncs.load()),
           static_cast<unsigned long long>(scan_rows_merged.load()),
           static_cast<unsigned long long>(scan_batches_emitted.load()),
           static_cast<unsigned long long>(scan_source_advances.load()),
           static_cast<unsigned long long>(scan_heap_resifts.load()),
           static_cast<unsigned long long>(scan_zip_rows.load()),
           static_cast<unsigned long long>(scan_zip_splices.load()),
           static_cast<unsigned long long>(scan_tie_fold_rows.load()),
           static_cast<unsigned long long>(blocks_skipped_zonemap.load()),
           static_cast<unsigned long long>(files_skipped_zonemap.load()),
           static_cast<unsigned long long>(rows_filtered_pushdown.load()),
           static_cast<unsigned long long>(aggs_pushed.load()),
           static_cast<unsigned long long>(block_cache_effective_shards.load()));
  std::string out(buf);

  snprintf(buf, sizeof(buf),
           " inserts=%llu updates=%llu scan_rows_emitted=%llu "
           "aggs_from_zonemap=%llu morph_jobs=%llu morphs_completed=%llu",
           static_cast<unsigned long long>(inserts.load()),
           static_cast<unsigned long long>(updates.load()),
           static_cast<unsigned long long>(scan_rows_emitted.load()),
           static_cast<unsigned long long>(aggs_from_zonemap.load()),
           static_cast<unsigned long long>(design_morph_compactions.load()),
           static_cast<unsigned long long>(design_morphs_completed.load()));
  out += buf;

  // Per-level filter line: only levels with configured bits, live filter
  // bytes, or probe activity (keeps the line empty on fresh/filterless DBs).
  for (int i = 0; i < kStatsLevels; ++i) {
    const unsigned long long mb = bloom_millibits_by_level[i].load();
    const unsigned long long fb = filter_bytes_by_level[i].load();
    const unsigned long long checks = bloom_checks_by_level[i].load();
    if (mb == 0 && fb == 0 && checks == 0) continue;
    char lv[160];
    snprintf(lv, sizeof(lv),
             " L%d[bits=%.2f filter=%lluB checks=%llu neg=%llu fp=%llu]", i,
             static_cast<double>(mb) / 1000.0, fb, checks,
             static_cast<unsigned long long>(bloom_negatives_by_level[i].load()),
             static_cast<unsigned long long>(
                 bloom_false_positives_by_level[i].load()));
    out += lv;
  }
  return out;
}

}  // namespace laser

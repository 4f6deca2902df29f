// Engine-wide instrumentation counters. The paper's cost model (§5) is
// expressed in block fetches; every read path increments these so benches can
// validate measured I/O against Equations 4-7 directly, independent of disk
// speed.

#ifndef LASER_UTIL_STATS_H_
#define LASER_UTIL_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace laser {

/// Thread-safe counters; cheap relaxed increments.
class Stats {
 public:
  /// Per-level stat arrays clamp deeper levels into the last slot.
  static constexpr int kStatsLevels = 16;
  /// Per-column stat arrays (1-based column ids; ids beyond the range clamp
  /// into the last slot).
  static constexpr int kStatsColumns = 128;

  // -- read path --
  std::atomic<uint64_t> data_block_reads{0};   ///< data blocks fetched
  std::atomic<uint64_t> index_block_reads{0};  ///< index blocks fetched
  std::atomic<uint64_t> block_cache_hits{0};
  std::atomic<uint64_t> block_cache_misses{0};
  std::atomic<uint64_t> bloom_checks{0};
  std::atomic<uint64_t> bloom_negatives{0};  ///< lookups short-circuited
  /// Filter said "maybe" but the block probe found no version of the key.
  /// Only the point-read walk in LaserDB::Read can tell, so only it counts.
  std::atomic<uint64_t> bloom_false_positives{0};
  std::atomic<uint64_t> point_reads{0};
  std::atomic<uint64_t> range_scans{0};
  /// Point reads resolved at each level (0 = memtable/L0; clamps like the
  /// filter arrays). Feeds the advisor's per-level read histogram.
  std::atomic<uint64_t> point_reads_by_level[kStatsLevels] = {};

  /// Clamps a 1-based column id into the per-column arrays.
  static int ColumnSlot(int column) {
    if (column < 1) column = 1;
    if (column > kStatsColumns) column = kStatsColumns;
    return column - 1;
  }

  // -- per-column workload telemetry (feeds BuildTraceFromStats; accumulated
  //    once per scan / point read / update op, not per row) --
  /// Scans whose projection included the column.
  std::atomic<uint64_t> scan_projected_by_column[kStatsColumns] = {};
  /// Found point reads whose projection included the column.
  std::atomic<uint64_t> point_projected_by_column[kStatsColumns] = {};
  /// Update ops that wrote the column.
  std::atomic<uint64_t> updated_by_column[kStatsColumns] = {};
  std::atomic<uint64_t> inserts{0};  ///< full-row inserts
  std::atomic<uint64_t> updates{0};  ///< partial-row update ops
  /// Rows handed to scan consumers after pushdown filtering (selectivity =
  /// scan_rows_emitted / range_scans).
  std::atomic<uint64_t> scan_rows_emitted{0};

  // -- per-level filter telemetry (level >= kStatsLevels folds into the
  //    last slot; L0 probes are level 0) --
  std::atomic<uint64_t> bloom_checks_by_level[kStatsLevels] = {};
  std::atomic<uint64_t> bloom_negatives_by_level[kStatsLevels] = {};
  std::atomic<uint64_t> bloom_false_positives_by_level[kStatsLevels] = {};

  /// One filter probe from the point-read walk, attributed to `level`.
  /// Mirrors into the aggregate counters.
  void RecordBloomProbe(int level, bool negative, bool false_positive) {
    if (level < 0) level = 0;
    if (level >= kStatsLevels) level = kStatsLevels - 1;
    bloom_checks.fetch_add(1, std::memory_order_relaxed);
    bloom_checks_by_level[level].fetch_add(1, std::memory_order_relaxed);
    if (negative) {
      bloom_negatives.fetch_add(1, std::memory_order_relaxed);
      bloom_negatives_by_level[level].fetch_add(1, std::memory_order_relaxed);
    }
    if (false_positive) {
      bloom_false_positives.fetch_add(1, std::memory_order_relaxed);
      bloom_false_positives_by_level[level].fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  // -- scan path (batched merge; flushed per scan, not per row) --
  std::atomic<uint64_t> scan_rows_merged{0};      ///< rows emitted by merges
  std::atomic<uint64_t> scan_batches_emitted{0};  ///< non-empty NextBatch fills
  std::atomic<uint64_t> scan_source_advances{0};  ///< contribution-source steps
  std::atomic<uint64_t> scan_heap_resifts{0};     ///< k-way-merge heap repairs
  std::atomic<uint64_t> scan_zip_rows{0};         ///< rows spliced run-at-a-time
  std::atomic<uint64_t> scan_zip_splices{0};      ///< successful zip rounds
  std::atomic<uint64_t> scan_tie_fold_rows{0};    ///< rows of the per-row tie fold

  // -- scan pushdown (predicates, zone maps, pushed aggregates) --
  std::atomic<uint64_t> blocks_skipped_zonemap{0};   ///< data blocks never read
  std::atomic<uint64_t> files_skipped_zonemap{0};    ///< files never opened
  std::atomic<uint64_t> rows_filtered_pushdown{0};   ///< rows dropped by preds
  std::atomic<uint64_t> aggs_pushed{0};              ///< aggregates folded in-scan
  /// Blocks whose aggregates were folded straight from the zone map — every
  /// row provably matched, so count/sum/min/max contributed without the
  /// block ever being read or decoded.
  std::atomic<uint64_t> aggs_from_zonemap{0};

  // -- adaptive design (online advisor + in-flight morphing) --
  std::atomic<uint64_t> design_morph_compactions{0};  ///< level re-layout jobs
  /// Morph installs after which the tree's per-level design matches the
  /// persisted target at every level (the morph converged).
  std::atomic<uint64_t> design_morphs_completed{0};

  // -- configuration gauges (set once at open; not part of Reset) --
  /// Shard count the block cache actually runs with after the min-bytes-per-
  /// shard clamp — tiny caches silently degrade below the requested count,
  /// so the effective value is surfaced here and in bench JSON.
  std::atomic<uint64_t> block_cache_effective_shards{0};

  // -- filter-memory gauges (refreshed at every version install) --
  /// Serialized filter bytes currently live per level, and their sum: the
  /// real memory the filter budget bought, visible next to SST bytes.
  std::atomic<uint64_t> filter_bytes_by_level[kStatsLevels] = {};
  std::atomic<uint64_t> filter_bytes_total{0};
  /// Configured bits-per-key per level ×1000 (gauge; fractional Monkey
  /// allocations survive the integer slot).
  std::atomic<uint64_t> bloom_millibits_by_level[kStatsLevels] = {};

  // -- write path --
  std::atomic<uint64_t> bytes_written_wal{0};
  std::atomic<uint64_t> wal_syncs{0};          ///< fsyncs issued on the WAL
  std::atomic<uint64_t> wal_group_commits{0};  ///< commit groups the leader ran
  std::atomic<uint64_t> wal_group_writes{0};   ///< WriteBatches across all groups
  std::atomic<uint64_t> bytes_flushed{0};       ///< memtable -> L0 bytes
  std::atomic<uint64_t> bytes_compacted{0};     ///< compaction output bytes
  std::atomic<uint64_t> compaction_jobs{0};
  std::atomic<uint64_t> flush_jobs{0};
  std::atomic<uint64_t> write_stall_micros{0};  ///< time writers waited

  void Reset() {
    data_block_reads = 0;
    index_block_reads = 0;
    block_cache_hits = 0;
    block_cache_misses = 0;
    bloom_checks = 0;
    bloom_negatives = 0;
    bloom_false_positives = 0;
    for (int i = 0; i < kStatsLevels; ++i) {
      bloom_checks_by_level[i] = 0;
      bloom_negatives_by_level[i] = 0;
      bloom_false_positives_by_level[i] = 0;
    }
    point_reads = 0;
    range_scans = 0;
    for (int i = 0; i < kStatsLevels; ++i) point_reads_by_level[i] = 0;
    for (int i = 0; i < kStatsColumns; ++i) {
      scan_projected_by_column[i] = 0;
      point_projected_by_column[i] = 0;
      updated_by_column[i] = 0;
    }
    inserts = 0;
    updates = 0;
    scan_rows_emitted = 0;
    scan_rows_merged = 0;
    scan_batches_emitted = 0;
    scan_source_advances = 0;
    scan_heap_resifts = 0;
    scan_zip_rows = 0;
    scan_zip_splices = 0;
    scan_tie_fold_rows = 0;
    blocks_skipped_zonemap = 0;
    files_skipped_zonemap = 0;
    rows_filtered_pushdown = 0;
    aggs_pushed = 0;
    aggs_from_zonemap = 0;
    design_morph_compactions = 0;
    design_morphs_completed = 0;
    bytes_written_wal = 0;
    wal_syncs = 0;
    wal_group_commits = 0;
    wal_group_writes = 0;
    bytes_flushed = 0;
    bytes_compacted = 0;
    compaction_jobs = 0;
    flush_jobs = 0;
    write_stall_micros = 0;
  }

  /// Accumulates every counter into `*out` (the effective-shards gauge takes
  /// the max, not the sum). Used by ShardedLaserDB to aggregate per-shard
  /// engine stats into one view.
  void AddCountersTo(Stats* out) const;

  std::string ToString() const;
};

}  // namespace laser

#endif  // LASER_UTIL_STATS_H_

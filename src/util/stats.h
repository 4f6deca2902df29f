// Engine-wide instrumentation counters. The paper's cost model (§5) is
// expressed in block fetches; every read path increments these so benches can
// validate measured I/O against Equations 4-7 directly, independent of disk
// speed. The per-level and per-column counters are also the engine's only
// workload telemetry: BuildTraceFromStats turns them into the design
// advisor's trace (§6.1).
//
// Every field is defined once, as one row of LASER_STATS_FIELDS. Reset,
// AddCountersTo, ToString and StatsSnapshot are derived from that table, so
// adding a counter is a one-line change.

#ifndef LASER_UTIL_STATS_H_
#define LASER_UTIL_STATS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace laser {

/// How a Stats field behaves under Reset, shard aggregation and snapshot
/// differences.
enum class StatKind {
  kCounter,   ///< zeroed by Reset; shards sum; snapshots subtract
  kSumGauge,  ///< a level kept across Reset; shards sum; snapshots keep the later
  kMaxGauge,  ///< shared configuration; kept across Reset; shards take the max
};

// The table: SCALAR(kind, name) is one std::atomic<uint64_t>, ARRAY(kind,
// name, n) a C array of n of them. Per-level arrays (n = kStatsLevels) clamp
// deeper levels into the last slot, L0 and the memtable being level 0;
// per-column arrays (n = kStatsColumns) are indexed by Stats::ColumnSlot.
// Rows are in declaration order.
// clang-format off
#define LASER_STATS_FIELDS(SCALAR, ARRAY)                                          \
  /* -- read path -- */                                                          \
  SCALAR(kCounter, data_block_reads)      /* data blocks fetched */              \
  SCALAR(kCounter, index_block_reads)     /* index blocks fetched */             \
  SCALAR(kCounter, block_cache_hits)                                             \
  SCALAR(kCounter, block_cache_misses)                                           \
  SCALAR(kCounter, bloom_checks)                                                 \
  SCALAR(kCounter, bloom_negatives)       /* lookups short-circuited */          \
  /* Filter said "maybe" but the block probe found no version of the key.        \
     Only the point-read walk in LaserDB::Read can tell, so only it counts. */   \
  SCALAR(kCounter, bloom_false_positives)                                        \
  SCALAR(kCounter, point_reads)                                                  \
  SCALAR(kCounter, range_scans)                                                  \
  /* Point reads resolved at each level: the advisor's read histogram. */        \
  ARRAY(kCounter, point_reads_by_level, kStatsLevels)                            \
  /* -- per-column workload telemetry (accumulated once per scan, point read     \
     or update op, not per row) -- */                                            \
  /* Scans whose projection included the column. */                              \
  ARRAY(kCounter, scan_projected_by_column, kStatsColumns)                       \
  /* Found point reads whose projection included the column. */                  \
  ARRAY(kCounter, point_projected_by_column, kStatsColumns)                      \
  /* Update ops that wrote the column. */                                        \
  ARRAY(kCounter, updated_by_column, kStatsColumns)                              \
  SCALAR(kCounter, inserts)               /* full-row inserts */                 \
  SCALAR(kCounter, updates)               /* partial-row update ops */           \
  /* Rows handed to scan consumers after pushdown filtering (selectivity =       \
     scan_rows_emitted / range_scans). */                                        \
  SCALAR(kCounter, scan_rows_emitted)                                            \
  /* -- per-level filter telemetry (see RecordBloomProbe) -- */                  \
  ARRAY(kCounter, bloom_checks_by_level, kStatsLevels)                           \
  ARRAY(kCounter, bloom_negatives_by_level, kStatsLevels)                        \
  ARRAY(kCounter, bloom_false_positives_by_level, kStatsLevels)                  \
  /* -- scan path (batched merge; flushed per scan, not per row) -- */           \
  SCALAR(kCounter, scan_rows_merged)      /* rows emitted by merges */           \
  SCALAR(kCounter, scan_batches_emitted)  /* non-empty NextBatch fills */        \
  SCALAR(kCounter, scan_source_advances)  /* contribution-source steps */        \
  SCALAR(kCounter, scan_heap_resifts)     /* k-way-merge heap repairs */         \
  SCALAR(kCounter, scan_zip_rows)         /* rows of the run merge */            \
  SCALAR(kCounter, scan_zip_splices)      /* run-merge windows */                \
  /* -- scan pushdown (predicates, zone maps, pushed aggregates) -- */           \
  SCALAR(kCounter, blocks_skipped_zonemap)  /* data blocks never read */         \
  SCALAR(kCounter, files_skipped_zonemap)   /* files never opened */             \
  SCALAR(kCounter, rows_filtered_pushdown)  /* rows dropped by predicates */     \
  SCALAR(kCounter, aggs_pushed)             /* aggregates folded in-scan */      \
  /* Blocks whose aggregates were folded straight from the zone map: every       \
     row provably matched, so the block was never read or decoded. */           \
  SCALAR(kCounter, aggs_from_zonemap)                                            \
  /* -- adaptive design (online advisor + in-flight morphing) -- */              \
  SCALAR(kCounter, design_morph_compactions)  /* whole-tree morph jobs */        \
  /* Morph installs after which the design matches the persisted target. */      \
  SCALAR(kCounter, design_morphs_completed)                                      \
  /* -- configuration gauge (set once at open): the block cache's shard count    \
     after the min-bytes-per-shard clamp, which tiny caches fall below. -- */    \
  SCALAR(kMaxGauge, block_cache_effective_shards)                                \
  /* -- filter-memory gauges (refreshed at every version install): live          \
     serialized filter bytes per level and their sum -- */                       \
  ARRAY(kSumGauge, filter_bytes_by_level, kStatsLevels)                          \
  SCALAR(kSumGauge, filter_bytes_total)                                          \
  /* Configured bits-per-key per level x1000, so fractional Monkey               \
     allocations survive the integer slot. */                                    \
  ARRAY(kMaxGauge, bloom_millibits_by_level, kStatsLevels)                       \
  /* -- write path -- */                                                         \
  SCALAR(kCounter, bytes_written_wal)                                            \
  SCALAR(kCounter, wal_syncs)             /* fsyncs issued on the WAL */         \
  SCALAR(kCounter, wal_group_commits)     /* commit groups the leader ran */     \
  SCALAR(kCounter, wal_group_writes)      /* WriteBatches across all groups */   \
  SCALAR(kCounter, bytes_flushed)         /* memtable -> L0 bytes */             \
  SCALAR(kCounter, bytes_compacted)       /* compaction output bytes */          \
  SCALAR(kCounter, compaction_jobs)                                              \
  SCALAR(kCounter, flush_jobs)                                                   \
  SCALAR(kCounter, write_stall_micros)    /* time writers waited */
// clang-format on

struct StatsSnapshot;

/// Thread-safe counters; cheap relaxed increments.
class Stats {
 public:
  /// Per-level stat arrays clamp deeper levels into the last slot.
  static constexpr int kStatsLevels = 16;
  /// Per-column stat arrays (1-based column ids; ids beyond the range clamp
  /// into the last slot).
  static constexpr int kStatsColumns = 128;

#define LASER_STATS_DECLARE_SCALAR(kind, name) std::atomic<uint64_t> name{0};
#define LASER_STATS_DECLARE_ARRAY(kind, name, n) std::atomic<uint64_t> name[n] = {};
  LASER_STATS_FIELDS(LASER_STATS_DECLARE_SCALAR, LASER_STATS_DECLARE_ARRAY)
#undef LASER_STATS_DECLARE_SCALAR
#undef LASER_STATS_DECLARE_ARRAY

  /// Clamps a 0-based level into the per-level arrays.
  static int LevelSlot(int level) {
    if (level < 0) return 0;
    return level < kStatsLevels ? level : kStatsLevels - 1;
  }

  /// Clamps a 1-based column id into the per-column arrays.
  static int ColumnSlot(int column) {
    if (column < 1) column = 1;
    if (column > kStatsColumns) column = kStatsColumns;
    return column - 1;
  }

  /// One filter probe from the point-read walk, attributed to `level`.
  /// Mirrors into the aggregate counters.
  void RecordBloomProbe(int level, bool negative, bool false_positive) {
    level = LevelSlot(level);
    bloom_checks.fetch_add(1, std::memory_order_relaxed);
    bloom_checks_by_level[level].fetch_add(1, std::memory_order_relaxed);
    if (negative) {
      bloom_negatives.fetch_add(1, std::memory_order_relaxed);
      bloom_negatives_by_level[level].fetch_add(1, std::memory_order_relaxed);
    }
    if (false_positive) {
      bloom_false_positives.fetch_add(1, std::memory_order_relaxed);
      bloom_false_positives_by_level[level].fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Zeroes every counter; gauges keep their level.
  void Reset();

  /// Accumulates every field into `*out` by its kind: counters and sum
  /// gauges add, max gauges keep the larger value. Used by ShardedLaserDB to
  /// aggregate per-shard engine stats into one view.
  void AddCountersTo(Stats* out) const;

  /// Plain-value copy of every field.
  StatsSnapshot Snapshot() const;

  /// Every scalar field as `name=value`, then one bracket per level that has
  /// filter bits, filter bytes or probes.
  std::string ToString() const;
};

/// Point-in-time values of every Stats field, so a bench or test can
/// attribute counter deltas to one measured interval:
/// `stats.Snapshot() - since`.
struct StatsSnapshot {
#define LASER_STATS_DECLARE_SCALAR(kind, name) uint64_t name = 0;
#define LASER_STATS_DECLARE_ARRAY(kind, name, n) uint64_t name[Stats::n] = {};
  LASER_STATS_FIELDS(LASER_STATS_DECLARE_SCALAR, LASER_STATS_DECLARE_ARRAY)
#undef LASER_STATS_DECLARE_SCALAR
#undef LASER_STATS_DECLARE_ARRAY

  /// Counters subtract `since`; gauges are levels, not flows, so they keep
  /// this (the later) reading.
  StatsSnapshot operator-(const StatsSnapshot& since) const;
};

/// Calls `f(kind, name, n, slots...)` once per table row, in order. Each of
/// `slots` points at the row's n slots in the matching one of `objs` (Stats
/// or StatsSnapshot objects); a scalar has n == 1.
template <typename F, typename... Objs>
void ForEachStat(F&& f, Objs&... objs) {
#define LASER_STATS_VISIT_SCALAR(kind, name) f(StatKind::kind, #name, 1, &objs.name...);
#define LASER_STATS_VISIT_ARRAY(kind, name, n) \
  f(StatKind::kind, #name, Stats::n, objs.name...);
  LASER_STATS_FIELDS(LASER_STATS_VISIT_SCALAR, LASER_STATS_VISIT_ARRAY)
#undef LASER_STATS_VISIT_SCALAR
#undef LASER_STATS_VISIT_ARRAY
}

}  // namespace laser

#endif  // LASER_UTIL_STATS_H_

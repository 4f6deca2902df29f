// LaserOptions: configuration of a Real-Time LSM-Tree instance. The defaults
// mirror the paper's setup (§7): leveling, T configurable, 4KB blocks,
// kOldestSmallestSeqFirst compaction priority, bloom filters, up to six
// background compaction threads.

#ifndef LASER_LASER_OPTIONS_H_
#define LASER_LASER_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "laser/cg_config.h"
#include "laser/schema.h"
#include "util/codec.h"
#include "util/env.h"

namespace laser {

/// When the group-commit leader fsyncs the WAL relative to acknowledging
/// writes. Ordered from strongest durability to fastest ingest.
enum class WalSyncPolicy {
  /// One fsync per WriteBatch, before its ack. Sync cost is never amortized
  /// across writers (the commit group is the single batch), so acknowledged
  /// always means durable — the slowest, strongest mode.
  kSyncEveryWrite,
  /// One fsync per commit group, before any member is acked. Concurrent
  /// writers' batches share the fsync; acknowledged still means durable.
  kSyncEveryGroup,
  /// A background thread fsyncs every wal_sync_interval_ms; acks do not wait.
  /// A crash loses at most the last interval of acknowledged writes.
  kSyncIntervalMs,
  /// Never fsync the WAL. A crash may lose everything since the last
  /// memtable flush. The default, matching the paper's benchmarks.
  kNoSync,
};

/// How the total filter-bits budget is split across levels.
enum class BloomAllocation {
  /// Every level gets bloom_bits_per_key — the classic policy.
  kUniform,
  /// Monkey (Dayan et al., SIGMOD'17): the same total budget re-split so
  /// the sum of expected false positives across levels is minimized —
  /// deeper levels get fewer bits per key; past the crossover, none.
  kMonkey,
};

/// Which SST of an overflowing sorted run is compacted first (§2.1, Fig. 2).
enum class CompactionPriority {
  /// Largest SST first (RocksDB kByCompensatedSize).
  kByCompensatedSize,
  /// SST whose keys went longest without compaction — smallest sequence
  /// number first (RocksDB kOldestSmallestSeqFirst). Default, as in §7: it
  /// distributes keys across levels by time-since-insertion.
  kOldestSmallestSeqFirst,
};

struct LaserOptions {
  /// Host environment; defaults to the Posix filesystem.
  Env* env = nullptr;  // nullptr -> Env::Default()

  /// Database directory.
  std::string path;

  /// Table schema (payload columns a1..ac).
  Schema schema;

  /// Per-level column-group layout. Must have num_levels entries.
  CgConfig cg_config;

  /// Total number of levels L (including level 0).
  int num_levels = 8;

  /// Size ratio T between adjacent levels.
  int size_ratio = 2;

  /// Memtable size before rotation.
  size_t write_buffer_size = 512 * 1024;

  /// Capacity of level 0 in bytes (the paper's B·pg entries).
  size_t level0_bytes = 2 * 1024 * 1024;

  /// Number of L0 files that triggers an L0->L1 compaction.
  int level0_file_compaction_trigger = 4;

  /// Number of L0 files at which writes stall until compaction catches up.
  int level0_stop_writes_trigger = 20;

  /// Target size of one SST within a sorted run.
  size_t target_sst_size = 1 * 1024 * 1024;

  /// SST data-block size (RocksDB default: 4KB).
  size_t block_size = 4096;

  /// Restart interval for key delta-encoding inside blocks (1 disables).
  int restart_interval = 16;

  /// Per-block compression.
  CompressionType compression = CompressionType::kNone;

  /// Bloom filter sizing; <= 0 disables filters. Under kUniform this is the
  /// bits-per-key of every level; under kMonkey it is the tree-wide AVERAGE
  /// bits-per-key (same total memory, optimally re-split per level).
  int bloom_bits_per_key = 10;

  /// Per-level split policy for the filter budget.
  BloomAllocation bloom_allocation = BloomAllocation::kUniform;

  /// Derived by Finalize(): bits-per-key each level's SST builder uses,
  /// num_levels entries. Uniform: bloom_bits_per_key everywhere. Monkey:
  /// the solver's allocation over expected level capacities.
  std::vector<double> bloom_bits_per_level;

  /// The (derived) allocation for `level`; safe for any level index.
  double bloom_bits_for_level(int level) const {
    if (level < 0 || level >= static_cast<int>(bloom_bits_per_level.size())) {
      return bloom_bits_per_key;
    }
    return bloom_bits_per_level[level];
  }

  /// Expected entry capacity per level (level0_bytes·T^level over the
  /// schema's encoded row size) — the weight vector handed to the Monkey
  /// solver. Exposed for tests and the advisor.
  std::vector<double> ExpectedEntriesPerLevel() const;

  CompactionPriority compaction_priority = CompactionPriority::kOldestSmallestSeqFirst;

  /// Background flush+compaction threads (paper: up to 6 compaction threads).
  int background_threads = 4;

  /// Shared uncompressed-block cache; 0 disables.
  size_t block_cache_bytes = 32 * 1024 * 1024;

  /// Write-ahead logging (durability).
  bool use_wal = true;

  /// When acknowledged writes become durable (see WalSyncPolicy).
  WalSyncPolicy wal_sync_policy = WalSyncPolicy::kNoSync;

  /// Sync cadence for WalSyncPolicy::kSyncIntervalMs; bounds the durable
  /// window of acknowledged writes.
  int wal_sync_interval_ms = 10;

  bool create_if_missing = true;

  /// Recovery-side commit oracle for two-phase (prepared) WAL groups: given
  /// a transaction id found in a prepared record during replay, returns
  /// whether the coordinator committed it. Unset means presumed abort —
  /// every prepared group found at recovery is discarded. Set by
  /// ShardedLaserDB from its coordinator log; plain LaserDB users can ignore
  /// it. Only consulted during Open().
  std::function<bool(uint64_t)> prepared_commit_resolver;

  /// When true, compactions run only via LaserDB::CompactUntilStable()
  /// (used by the write-amplification experiment, Fig. 7(e)).
  bool disable_auto_compactions = false;

  /// Online design advisor (§6 run continuously): when true, a background
  /// daemon periodically rebuilds a workload trace from the engine's live
  /// telemetry counters, re-scores the current design against the advisor's
  /// pick, and — when the predicted win exceeds
  /// advisor_min_predicted_gain — installs the pick as the morph target.
  /// cg_config then only seeds a freshly created tree.
  bool enable_design_advisor = false;

  /// Decision cadence of the advisor daemon.
  int advisor_interval_ms = 1000;

  /// Fractional predicted-cost win required before the advisor re-morphs the
  /// tree (hysteresis against design thrash). 0.10 = candidate must score at
  /// least 10% cheaper than the design the tree is already committed to.
  double advisor_min_predicted_gain = 0.10;

  /// Fills defaults (env, cg_config if empty) and checks consistency.
  Status Finalize();
};

}  // namespace laser

#endif  // LASER_LASER_OPTIONS_H_

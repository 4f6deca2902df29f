// ShardedLaserDB: a range-partitioned, shard-per-core front over N
// independent LaserDB engines. Each shard owns a contiguous key range and
// runs its own memtable, WAL, group-commit queue, and level structure under
// <root>/shard-<i>, so OLTP writers on disjoint ranges never contend on a
// shared commit queue and OLAP scans fan out across all shards.
//
// Cross-shard WriteBatches commit in two phases against a coordinator log
// (<root>/txn.log):
//   1. Prepare: the batch is split into per-shard fragments; each touched
//      shard (in ascending shard order — the canonical order that keeps the
//      flush-gate wait graph acyclic) durably logs its fragment as a
//      prepared WAL group under a fresh transaction id and applies it to its
//      memtable. The fragment's commit stays undecided.
//   2. Commit: one record carrying the xid is appended + fsynced to the
//      coordinator log — the atomic commit point — then every touched shard
//      is told MarkXidCommitted. Any failure in either phase poisons every
//      touched shard instead (commit-or-poison).
// Crash recovery replays each shard's prepared groups only if the
// coordinator log holds the xid (presumed abort), so a half-applied batch is
// never visible after a crash, no matter which per-shard WAL/flush/manifest
// op the crash interrupted. Live readers may transiently observe a batch on
// shard i before it lands on shard j (prepare is not a read barrier) — the
// guarantee here is crash atomicity, not snapshot isolation across shards.
//
// Scans: shard ranges are disjoint and ordered, so the k-way merge across
// shards degenerates to concatenation — ShardedScanIterator drains each
// per-shard ScanIterator (which runs the full SourceMinHeap merge inside its
// shard) in shard order, preserving NextBatch, pushdown, and AggregateAll
// semantics unchanged.

#ifndef LASER_LASER_SHARDED_LASER_DB_H_
#define LASER_LASER_SHARDED_LASER_DB_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "laser/laser_db.h"
#include "laser/shard_router.h"
#include "wal/log_writer.h"

namespace laser {

struct ShardedLaserOptions {
  /// Per-shard engine options. `base.path` is the root directory; shard i
  /// opens under <root>/shard-<i>. `base.prepared_commit_resolver` is
  /// overwritten per shard from the coordinator log.
  LaserOptions base;

  int num_shards = 1;

  /// Uniform router domain: keys [0, key_domain) split equally (used when
  /// `split_points` is empty).
  uint64_t key_domain = UINT64_MAX;

  /// Explicit router split points (strictly increasing); overrides
  /// key_domain. Must have num_shards - 1 entries when set.
  std::vector<uint64_t> split_points;
};

/// Cursor over a cross-shard range scan: per-shard ScanIterators drained in
/// ascending shard order. Same consumption contract as ScanIterator — pick
/// ONE of NextBatch / AggregateAll / per-row and stick to it.
class ShardedScanIterator {
 public:
  explicit ShardedScanIterator(
      std::vector<std::unique_ptr<ScanIterator>> shards);

  ShardedScanIterator(const ShardedScanIterator&) = delete;
  ShardedScanIterator& operator=(const ShardedScanIterator&) = delete;

  static constexpr size_t kDefaultBatchRows = ScanIterator::kDefaultBatchRows;

  /// Fills `batch` from the current shard, hopping to the next shard when
  /// one drains. Returns 0 when every shard is exhausted (or on error; check
  /// status()).
  size_t NextBatch(ScanBatch* batch, size_t max_rows = kDefaultBatchRows);

  /// Folds pushed aggregates over every shard's remainder.
  Status AggregateAll(ScanAggregates* out);

  bool Valid() const;
  void Next();
  uint64_t key() const;
  const std::vector<std::optional<ColumnValue>>& values() const;

  Status status() const;

 private:
  std::vector<std::unique_ptr<ScanIterator>> shards_;  // ascending key ranges
  mutable size_t current_ = 0;
};

class ShardedLaserDB {
 public:
  static Status Open(const ShardedLaserOptions& options,
                     std::unique_ptr<ShardedLaserDB>* db);

  ~ShardedLaserDB();  // stops the table-wide advisor before shards close

  ShardedLaserDB(const ShardedLaserDB&) = delete;
  ShardedLaserDB& operator=(const ShardedLaserDB&) = delete;

  // -- writes: routed to the owning shard --
  Status Insert(uint64_t key, const std::vector<ColumnValue>& row);
  Status Update(uint64_t key, const std::vector<ColumnValuePair>& values);
  Status Delete(uint64_t key);

  /// Commits `batch` atomically across every shard it touches. A batch
  /// confined to one shard rides that shard's ordinary group commit; a
  /// cross-shard batch pays the two-phase protocol (always fsynced).
  Status Write(const WriteBatch& batch);

  // -- reads --
  Status Read(uint64_t key, const ColumnSet& projection,
              LaserDB::ReadResult* result);

  /// Range scan over [lo_key, hi_key]: fans out to every overlapping shard
  /// and concatenates. Returns nullptr on an invalid projection/spec, as
  /// LaserDB::NewScan does.
  std::unique_ptr<ShardedScanIterator> NewScan(uint64_t lo_key,
                                               uint64_t hi_key,
                                               ColumnSet projection);
  std::unique_ptr<ShardedScanIterator> NewScan(uint64_t lo_key,
                                               uint64_t hi_key,
                                               ColumnSet projection,
                                               ScanSpec spec);

  // -- maintenance --

  /// Flush and CompactUntilStable start every shard's work (memtable
  /// rotation, and for CompactUntilStable a settle request) before waiting
  /// on any shard, so each shard's flush and compactions run at the same
  /// time on that shard's own background thread. A shard whose start failed
  /// is not waited on; every other shard is. The first error in shard order
  /// wins.
  Status Flush();
  Status CompactUntilStable();
  /// Waits for each shard's background work in turn.
  void WaitForBackgroundWork();

  // -- introspection --
  int num_shards() const { return static_cast<int>(shards_.size()); }
  LaserDB* shard(int i) { return shards_[i].get(); }
  const ShardRouter& router() const { return router_; }
  /// Sums per-shard engine counters into `*out` (see Stats::AddCountersTo).
  void AggregateStats(Stats* out) const;
  std::string DebugString() const;

 private:
  ShardedLaserDB(ShardRouter router);

  /// Appends + fsyncs the commit record for `xid` to the coordinator log.
  Status AppendCommitRecord(uint64_t xid);

  ShardRouter router_;
  std::vector<std::unique_ptr<LaserDB>> shards_;

  /// Coordinator log (txn.log): commit records only. Guarded by txn_mu_;
  /// xids are allocated from next_xid_ and never reused across restarts
  /// (monotonic past everything the previous log recorded), so a stale log
  /// resurrected by a crash can never validate a new transaction.
  std::mutex txn_mu_;
  std::unique_ptr<wal::LogWriter> txn_log_;
  std::atomic<uint64_t> next_xid_{1};

  /// Table-wide advisor (base.enable_design_advisor): one decision over
  /// aggregated shard telemetry, installed on every shard. Per-shard daemons
  /// are forced off. Declared last so it is destroyed (stopped) first.
  std::unique_ptr<DesignAdvisorDaemon> advisor_;
};

}  // namespace laser

#endif  // LASER_LASER_SHARDED_LASER_DB_H_

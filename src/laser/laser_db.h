// LaserDB: the Real-Time LSM-Tree storage engine (the paper's LASER, §4).
//
// Public operations mirror §3.1:
//   Insert(key, row)        — full row
//   Read(key, Π)            — point lookup with projection
//   Scan(lo, hi, Π)         — range scan with projection
//   Update(key, valueΠ)     — partial-row update of a column subset
//   Delete(key)             — tombstone
//
// Internally: a skiplist memtable + WAL absorb writes; flushes produce
// row-format L0 SSTs; CG-local compaction (§4.4) migrates data down the
// levels, re-laying it out per the CgConfig; reads probe only the column
// groups overlapping the projection (§4.3).

#ifndef LASER_LASER_LASER_DB_H_
#define LASER_LASER_LASER_DB_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "cost/design_advisor_daemon.h"
#include "laser/cg_compaction.h"
#include "laser/options.h"
#include "laser/row_codec.h"
#include "laser/scan_plan.h"
#include "laser/scan_pushdown.h"
#include "laser/write_batch.h"
#include "lsm/compaction_picker.h"
#include "lsm/manifest.h"
#include "lsm/version.h"
#include "memtable/memtable.h"
#include "util/io_queue.h"
#include "util/stats.h"
#include "util/thread_pool.h"
#include "wal/log_writer.h"

namespace laser {

class ScanIterator;

class LaserDB {
 public:
  /// Opens (or creates) a database. Recovers from MANIFEST + WAL.
  static Status Open(const LaserOptions& options, std::unique_ptr<LaserDB>* db);

  ~LaserDB();

  LaserDB(const LaserDB&) = delete;
  LaserDB& operator=(const LaserDB&) = delete;

  // -- writes (§3.1 / §4.2) --
  //
  // All mutations funnel through leader/follower group commit: concurrent
  // writers enqueue, the front writer becomes leader, coalesces the queue
  // into one WAL record, syncs per options.wal_sync_policy, applies the
  // group to the memtable, and acks every member. Any failed WAL append,
  // sync, or rotation poisons the engine (read-only) before any member of
  // the group is acknowledged.

  /// Inserts a full row; `row[i]` is the value of column i+1. Re-inserting a
  /// key overwrites the whole row.
  Status Insert(uint64_t key, const std::vector<ColumnValue>& row);

  /// Updates a subset of columns (sorted by column id) without reading the
  /// old row: a partial row is inserted and merged during compaction.
  Status Update(uint64_t key, const std::vector<ColumnValuePair>& values);

  /// Deletes the row (tombstone).
  Status Delete(uint64_t key);

  /// Commits every op in `batch` atomically: the batch shares one coalesced
  /// WAL record, so after a crash either all of it replays or none of it.
  /// An empty batch is a no-op.
  Status Write(const WriteBatch& batch);

  // -- two-phase writes (cross-shard batches; see ShardedLaserDB) --
  //
  // A coordinator splits one logical batch into per-shard fragments and
  // drives: WritePrepared on every touched shard (fragment durable + applied,
  // commit undecided), a commit record in its own log, then MarkXidCommitted
  // everywhere. On replay a prepared group is applied only if
  // options.prepared_commit_resolver confirms the xid committed (presumed
  // abort). An immutable memtable holding undecided xids is not flushed
  // until they resolve, so uncommitted prepared data never reaches L0 —
  // crash recovery can therefore never see half of a cross-shard batch.

  /// Phase 1: durably logs `batch` as a prepared fragment of transaction
  /// `xid` (always fsynced, never coalesced with other writers) and applies
  /// it to the memtable. The write is NOT committed yet: after a crash it
  /// replays only if the resolver confirms `xid`. xid must be nonzero.
  Status WritePrepared(uint64_t xid, const WriteBatch& batch);

  /// Phase 2: marks `xid` decided-committed, releasing any flush waiting on
  /// it. Called by the coordinator after its commit record is durable.
  void MarkXidCommitted(uint64_t xid);

  /// Forces the engine into the poisoned (read-only) state with `error`.
  /// The coordinator uses this when a sibling shard fails mid-batch
  /// (commit-or-poison): no later write can be acknowledged, and undecided
  /// prepared data is discarded by recovery on the next open.
  void Poison(const Status& error);

  // -- reads (§3.1 / §4.3) --

  struct ReadResult {
    bool found = false;
    /// Parallel to the projection; nullopt = column is null (deleted or
    /// never written).
    std::vector<std::optional<ColumnValue>> values;
  };

  /// Point lookup of `projection` (sorted column ids). NotFound status is
  /// not used; check result->found.
  Status Read(uint64_t key, const ColumnSet& projection, ReadResult* result);

  /// Range scan over user keys [lo_key, hi_key] with projection. The
  /// iterator pins the read view it was opened at (memtables, Version and
  /// sequence number): it sees no later write, and the files and memtables
  /// it reads stay alive until it is destroyed. It must not outlive the DB.
  std::unique_ptr<ScanIterator> NewScan(uint64_t lo_key, uint64_t hi_key,
                                        ColumnSet projection);

  /// Range scan with pushed-down predicates: only rows satisfying EVERY
  /// predicate in `spec` are emitted (a null in a predicated column fails
  /// it). The predicates are evaluated inside the scan engine — vectorized
  /// over whole batches, and below that as zone-map block skipping: data
  /// blocks (and whole SSTs) whose value ranges provably cannot match are
  /// never read or cached. Every predicate column must be in `projection`;
  /// returns nullptr otherwise (as for an invalid projection).
  std::unique_ptr<ScanIterator> NewScan(uint64_t lo_key, uint64_t hi_key,
                                        ColumnSet projection, ScanSpec spec);

  // -- maintenance --

  /// Rotates the memtable and waits for all pending flushes.
  Status Flush();

  /// Runs compactions until no level/CG exceeds capacity (works with
  /// disable_auto_compactions too). Returns the first background error.
  /// Every obsolete file no reader pins is gone from disk when it returns.
  /// The memtable is flushed first; while a call waits, each job's
  /// completion schedules the next compaction on the background threads,
  /// even with auto compactions off.
  Status CompactUntilStable();

  /// Waits for all scheduled background work to finish, then for the
  /// removal of every obsolete file no reader pins.
  void WaitForBackgroundWork();

  // -- adaptive design (§6: online advisor -> in-flight morphing) --

  /// Declares `target` the design the tree should converge to. The target is
  /// persisted in the manifest (a crash mid-morph resumes converging). Once
  /// the running compactions drain, one morph job folds every run below L0
  /// into the bottom level laid out in `target`, and installs the whole
  /// design at once; no other compaction starts while a target is pending.
  /// Setting the current design (with no morph in flight) is a no-op. With
  /// auto compactions disabled, CompactUntilStable() drives the morph to
  /// completion.
  Status SetTargetDesign(const CgConfig& target);

  /// The design the tree's files are laid out in right now: the old design
  /// until a morph installs, then its target.
  CgConfig CurrentDesign() const;

  /// The in-flight morph target; num_levels() == 0 when none.
  CgConfig TargetDesign() const;

  /// Cost-model shape (Table 1 parameters) derived from the options — the
  /// same mapping the embedded advisor daemon uses. Exposed so external
  /// advisor hosts (ShardedLaserDB, tools) score with identical terms.
  static LsmShape ShapeFromOptions(const LaserOptions& options);

  // -- introspection (used by benches and tests) --

  const LaserOptions& options() const { return options_; }
  Stats& stats() { return stats_; }
  const RowCodec& codec() const { return codec_; }
  SequenceNumber LastSequence() const;
  std::shared_ptr<const Version> current_version() const;
  /// Per-level/group file + byte summary.
  std::string DebugString() const;

 private:
  friend class ShardedLaserDB;  // starts every shard's settle before waiting

  /// One writer's seat in the group-commit queue. The front request is the
  /// leader; followers block on `cv` until the leader sets `done`.
  struct WriteRequest {
    std::string entries;       ///< WAL-entry-encoded ops (see write_batch.h)
    uint32_t count = 0;        ///< entries in `entries`
    uint64_t prepared_xid = 0; ///< nonzero: two-phase fragment of this xid
    bool sync = false;         ///< force a WAL fsync with this group
    bool rotate = false;       ///< rotate the memtable instead of writing
    bool done = false;
    Status status;
    std::condition_variable cv;
  };

  explicit LaserDB(const LaserOptions& options);

  Status Recover();
  Status ReplayWal(const std::string& fname);
  Status NewWal();

  /// Pins what a read sees: the memtables, the current Version and the last
  /// sequence number, taken together under mu_.
  ReadView PinReadView() const;

  /// Validates a projection (sorted, in range, non-empty).
  Status CheckProjection(const ColumnSet& projection) const;

  /// Validates and WAL-entry-encodes one op into `req`.
  Status EncodeOp(ValueType type, uint64_t key, const std::vector<ColumnValue>* row,
                  const std::vector<ColumnValuePair>* values, WriteRequest* req) const;

  /// Enqueues `req` and blocks until a leader (possibly this thread) commits
  /// it. Returns req->status.
  Status SubmitWrite(WriteRequest* req);

  /// Leader path: coalesces the queue front into one group, appends one WAL
  /// record, syncs per policy, applies to the memtable, acks the group, and
  /// hands leadership to the next queued writer. REQUIRES: mu_ held via
  /// `lock`; req is the queue front.
  void CommitWriteGroup(WriteRequest* req, std::unique_lock<std::mutex>* lock);

  /// Under kSyncIntervalMs: fsyncs the WAL if it has unsynced bytes, so the
  /// durable window stays bounded when acks run ahead of the sync thread.
  /// Poisons the engine on failure. No-op under other policies. REQUIRES:
  /// mu_ held and the caller is the current leader.
  Status SyncWalForIntervalLocked();

  /// Swaps the full memtable for a fresh one and rotates the WAL. Poisons
  /// the engine if the new WAL cannot be created. REQUIRES: mu_ held and the
  /// caller is the current leader (or Open, before concurrency starts).
  Status RotateMemtableLocked();

  /// Blocks while the memtable is full and background work is behind.
  /// REQUIRES: mu_ held (via lock); caller is the current leader.
  Status MakeRoomForWrite(std::unique_lock<std::mutex>* lock);

  /// Body of the kSyncIntervalMs background thread: periodically submits a
  /// sync-only request so the durable window stays bounded.
  void WalSyncLoop();

  /// Schedules flushes/compactions as needed. REQUIRES: mu_ held.
  void MaybeScheduleBackgroundWork();
  /// REQUIRES: mu_ held.
  void ScheduleCompactions();

  void BackgroundFlush();
  void BackgroundCompact(CompactionJob job);

  /// Flush() in two halves. StartFlush rotates the memtable through the
  /// writer queue, which schedules its flush, and does not wait;
  /// FinishFlush waits until no immutable memtable is left.
  Status StartFlush();
  Status FinishFlush();

  /// CompactUntilStable() in two halves. The start rotates the memtable and
  /// registers a settle request; it does not wait, and registers nothing
  /// when it fails. The finish waits for a stable tree and releases the
  /// request; every successful start must be paired with one finish.
  Status StartCompactUntilStable();
  Status FinishCompactUntilStable();

  JobContext MakeJobContext();

  /// Queues the unlink of every obsolete file whose metadata has been
  /// released everywhere, behind the install that made it obsolete. Callers
  /// that promise a clean directory drain io_ after releasing mu_.
  /// REQUIRES: mu_ held.
  void CollectObsoleteFiles();

  /// Persists the manifest. REQUIRES: mu_ held.
  Status SaveManifest();

  /// Re-sums the per-level filter-bytes gauges from the current version.
  /// Called at every version install (SaveManifest). REQUIRES: mu_ held.
  void RefreshFilterGauges();

  LaserOptions options_;
  Env* env_;
  std::string db_path_;
  /// schema.AllColumns(), materialized once — the point-read hot path needs
  /// it per call and must not re-allocate it.
  ColumnSet all_columns_;
  RowCodec codec_;
  Stats stats_;
  std::unique_ptr<BlockCache> cache_;
  CompactionPicker picker_;
  Manifest manifest_;
  std::unique_ptr<ThreadPool> pool_;
  /// Compaction file syscalls, one helper per background thread: each
  /// finished output is synced here before its job installs it, and each
  /// obsolete SST is unlinked here after the install that retired it.
  std::unique_ptr<IoQueue> io_;

  mutable std::mutex mu_;
  std::condition_variable cv_;

  MemTable* mem_ = nullptr;
  std::vector<MemTable*> imm_;             // oldest first
  std::vector<uint64_t> imm_wal_numbers_;  // parallel to imm_

  /// Prepared-but-undecided transaction ids per memtable (guarded by mu_;
  /// the active set tracks mem_, the vector is parallel to imm_). A flush
  /// waits until its memtable's set drains — that wait is deadlock-free as
  /// long as coordinators prepare shards in one canonical order, which keeps
  /// the cross-shard wait graph acyclic.
  std::set<uint64_t> mem_prepared_xids_;
  std::vector<std::set<uint64_t>> imm_prepared_xids_;
  std::shared_ptr<Version> version_;
  /// Design the tree is converging to; num_levels() == 0 when no morph is in
  /// flight. Persisted in the manifest next to the current design. Guarded
  /// by mu_.
  CgConfig target_design_;
  /// Periodic advisor loop (options.enable_design_advisor); started after
  /// recovery, stopped first in the destructor.
  std::unique_ptr<DesignAdvisorDaemon> advisor_;

  std::atomic<uint64_t> next_file_number_{1};
  std::atomic<SequenceNumber> last_sequence_{0};

  /// Group-commit state. The queue is guarded by mu_; wal_ and mem_ are
  /// written only by the current leader (front of the queue) or by Recover()
  /// before concurrency starts, which is what makes the leader's
  /// outside-the-lock WAL append + memtable apply safe.
  std::deque<WriteRequest*> write_queue_;
  std::unique_ptr<wal::LogWriter> wal_;
  uint64_t wal_number_ = 0;

  /// kSyncIntervalMs background sync thread (unused for other policies).
  std::thread wal_sync_thread_;
  std::condition_variable wal_sync_cv_;

  bool flush_scheduled_ = false;
  /// CompactUntilStable calls between their two halves. While nonzero and
  /// imm_ is empty, MaybeScheduleBackgroundWork schedules compactions even
  /// with auto compactions off. Guarded by mu_.
  int settle_requests_ = 0;
  std::set<std::pair<int, int>> busy_;
  int running_jobs_ = 0;
  bool shutting_down_ = false;
  Status bg_error_;

  /// Files unlinked from the tree but possibly still pinned by readers.
  /// Only a weak reference is kept: polling use_count() and deleting the
  /// reader in place would race with a reader thread's release (use_count
  /// is a relaxed load with no happens-before edge to that thread's reads).
  /// Destruction is left to the shared_ptr machinery; the sweeper merely
  /// unlinks the on-disk file once the metadata has expired.
  std::vector<std::pair<std::weak_ptr<FileMetaData>, uint64_t>> obsolete_;
};

/// Cursor over the rows of a range scan (§4.3), in key order, with old
/// versions discarded and columns stitched across levels and CGs.
///
/// Three consumption styles:
///   - NextBatch(): the fast path. Pulls whole columnar batches (ScanBatch)
///     out of the heap-based k-way merge; consumers aggregate over flat
///     per-column arrays.
///   - AggregateAll(): pushed aggregation. Folds count/sum/min/max per
///     projected column inside the scan without handing rows to the caller.
///   - Valid()/Next()/values(): the classic per-row cursor. It refills a
///     small batch through the same fill as NextBatch and steps through it
///     one row at a time.
/// Opening a scan only positions the merge: no row is merged until the
/// first NextBatch, AggregateAll or Valid() call.
/// Use ONE style per iterator. Mixing NextBatch/AggregateAll with the
/// per-row accessors asserts in debug builds; release builds invalidate the
/// iterator instead — the misused call returns 0/false and status() reports
/// InvalidArgument.
class ScanIterator {
 public:
  /// `plan` was planned over `view`, for `projection` and `spec`.
  ScanIterator(ReadView view, ScanPlan plan, ColumnSet projection, ScanSpec spec,
               Stats* stats);
  /// Flushes scan-path counters into the engine stats, with the number of
  /// rows actually emitted as the scan's selectivity.
  ~ScanIterator();

  ScanIterator(const ScanIterator&) = delete;
  ScanIterator& operator=(const ScanIterator&) = delete;

  /// Default fill size for NextBatch.
  static constexpr size_t kDefaultBatchRows = 1024;

  /// Clears `batch` and fills it with up to `max_rows` rows in key order,
  /// stopping at the scan's upper bound; rows failing the scan's predicates
  /// (if any) are filtered out before the batch is returned, so a non-empty
  /// return contains only matches. Returns the rows appended; 0 means the
  /// scan is exhausted (or, per the mode contract above, misused).
  size_t NextBatch(ScanBatch* batch, size_t max_rows = kDefaultBatchRows);

  /// Drains the remaining scan, folding count/sum/min/max of every projected
  /// column over the matching rows, without materializing rows for the
  /// caller. `out->rows` is the number of rows the same scan would emit
  /// through NextBatch: a row holding no projected value is not one.
  /// Consumes the iterator (batch style). Returns status().
  Status AggregateAll(ScanAggregates* out);

  bool Valid() const;
  void Next();

  /// Current primary key. REQUIRES: Valid().
  uint64_t key() const;

  /// Values parallel to the projection. REQUIRES: Valid().
  const std::vector<std::optional<ColumnValue>>& values() const;

  Status status() const {
    if (!mode_error_.ok()) return mode_error_;
    return plan_.merge->status();
  }
  const ColumnSet& projection() const { return projection_; }

 private:
  /// Drops batch rows failing any predicate: one mask pass per predicate
  /// over the flat column arrays, then a column-major compaction of the
  /// survivors.
  void FilterBatch(ScanBatch* batch);

  /// Clears `batch` and fills it with up to `max_rows` rows passing the
  /// predicates; 0 means the scan is exhausted. Under predicates a fill can
  /// be wiped out entirely, so it keeps pulling until a row survives.
  size_t Fill(ScanBatch* batch, size_t max_rows);

  /// Row mode: refills row_batch_ once row_ has stepped past its last row,
  /// then copies row row_ into row_values_ (unless the scan is exhausted).
  void LoadRow();

  /// Row-mode refill size.
  static constexpr size_t kRowBatchRows = 64;

  ColumnSet projection_;
  ScanSpec spec_;
  // The plan's cursors read the view's memtables and files: keep the view
  // declared first so it is released last.
  ReadView view_;
  ScanPlan plan_;
  Stats* stats_;
  uint64_t rows_emitted_ = 0;
  uint64_t batches_emitted_ = 0;
  uint64_t rows_filtered_ = 0;
  uint64_t aggs_pushed_ = 0;
  uint64_t aggs_from_zonemap_ = 0;
  std::vector<uint8_t> filter_mask_;  // FilterBatch scratch
  // Row mode: the current refill, the current row in it, and that row's
  // values.
  ScanBatch row_batch_;
  size_t row_ = 0;
  std::vector<std::optional<ColumnValue>> row_values_;
  // Mode guard (one consumption style per iterator): the first NextBatch /
  // AggregateAll locks batch mode, the first Valid() locks row mode and
  // takes the first row-mode refill.
  bool batch_mode_ = false;
  mutable bool row_mode_ = false;
  mutable Status mode_error_;
};

}  // namespace laser

#endif  // LASER_LASER_LASER_DB_H_

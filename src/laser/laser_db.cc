#include "laser/laser_db.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>

#include "cost/trace.h"
#include "sst/bloom.h"
#include "util/coding.h"
#include "wal/log_reader.h"

namespace laser {

namespace {

constexpr size_t kMaxImmutableMemtables = 2;

/// Cap on one coalesced group record. Only followers are bounded by it: the
/// leader's own batch always commits, however large, so an oversized batch
/// can never wedge the queue.
constexpr size_t kMaxGroupBytes = 1 << 20;

bool HasSuffix(const std::string& name, const std::string& suffix) {
  return name.size() >= suffix.size() &&
         name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / recovery
// ---------------------------------------------------------------------------

LaserDB::LaserDB(const LaserOptions& options)
    : options_(options),
      env_(options_.env),
      db_path_(options_.path),
      all_columns_(options_.schema.AllColumns()),
      codec_(&options_.schema),
      picker_(&options_),
      manifest_(options_.env, options_.path),
      io_(std::make_unique<IoQueue>(env_, options_.background_threads)) {
  if (options_.block_cache_bytes > 0) {
    cache_ = std::make_unique<BlockCache>(options_.block_cache_bytes);
    // The min-bytes-per-shard clamp can silently degrade the requested shard
    // count; surface what the cache actually runs with.
    stats_.block_cache_effective_shards.store(
        static_cast<uint64_t>(cache_->num_shards()), std::memory_order_relaxed);
  }
  // Configuration gauge: the per-level filter allocation Finalize() derived
  // (×1000 so fractional Monkey bits survive the integer slot).
  for (int level = 0; level < options_.num_levels; ++level) {
    stats_.bloom_millibits_by_level[Stats::LevelSlot(level)].store(
        static_cast<uint64_t>(options_.bloom_bits_for_level(level) * 1000.0),
        std::memory_order_relaxed);
  }
}

Status LaserDB::Open(const LaserOptions& options, std::unique_ptr<LaserDB>* db) {
  LaserOptions finalized = options;
  LASER_RETURN_IF_ERROR(finalized.Finalize());

  auto instance = std::unique_ptr<LaserDB>(new LaserDB(finalized));
  LASER_RETURN_IF_ERROR(instance->Recover());
  instance->pool_ =
      std::make_unique<ThreadPool>(instance->options_.background_threads);
  if (instance->options_.use_wal &&
      instance->options_.wal_sync_policy == WalSyncPolicy::kSyncIntervalMs) {
    instance->wal_sync_thread_ =
        std::thread([db_raw = instance.get()] { db_raw->WalSyncLoop(); });
  }
  {
    std::unique_lock<std::mutex> lock(instance->mu_);
    instance->MaybeScheduleBackgroundWork();
  }
  if (finalized.enable_design_advisor) {
    LaserDB* raw = instance.get();
    DesignAdvisorDaemonOptions dopts;
    dopts.interval_ms = finalized.advisor_interval_ms;
    dopts.min_predicted_gain = finalized.advisor_min_predicted_gain;
    dopts.shape = ShapeFromOptions(finalized);
    DesignAdvisorDaemon::Hooks hooks;
    hooks.fill_trace = [raw](WorkloadTrace* trace) {
      BuildTraceFromStats(raw->stats_, trace);
    };
    hooks.design_to_beat = [raw] {
      // Compare against the committed target while a morph converges: the
      // old design is on its way out and would destabilize the hysteresis.
      CgConfig target = raw->TargetDesign();
      return target.num_levels() > 0 ? target : raw->CurrentDesign();
    };
    hooks.install = [raw](const CgConfig& design) {
      return raw->SetTargetDesign(design);
    };
    instance->advisor_ = std::make_unique<DesignAdvisorDaemon>(
        &instance->options_.schema, dopts, std::move(hooks));
    instance->advisor_->Start();
  }
  *db = std::move(instance);
  return Status::OK();
}

LsmShape LaserDB::ShapeFromOptions(const LaserOptions& options) {
  const int c = options.schema.num_columns();
  double entry_bytes = 16.0 + (c + 7) / 8;
  for (int id = 1; id <= c; ++id) entry_bytes += options.schema.value_size(id);
  LsmShape shape;
  shape.num_levels = options.num_levels;
  shape.size_ratio = options.size_ratio;
  shape.entries_per_block = static_cast<double>(options.block_size) / entry_bytes;
  shape.blocks_level0 =
      static_cast<double>(options.level0_bytes) / options.block_size;
  shape.num_columns = c;
  return shape;
}

Status LaserDB::Recover() {
  LASER_RETURN_IF_ERROR(env_->CreateDir(db_path_));

  if (manifest_.Exists()) {
    ManifestData data;
    LASER_RETURN_IF_ERROR(manifest_.Load(cache_.get(), &stats_, &data));
    if (data.version->num_levels() != options_.num_levels) {
      return Status::InvalidArgument("manifest level count != options");
    }
    // The manifest's design is authoritative for existing trees —
    // options_.cg_config only seeds a fresh create — and the reloaded target
    // keeps an interrupted morph converging instead of reverting. Only a
    // tree saved mid-morph by a build that re-laid one level at a time can
    // hold an invalid design, and then a target is pending: the picker runs
    // the whole-tree morph to it before any other job.
    const CgConfig& valid = data.target_design.num_levels() > 0
                                ? data.target_design
                                : data.version->design();
    if (valid.num_levels() != options_.num_levels ||
        !valid.Validate(options_.schema.num_columns()).ok()) {
      return Status::Corruption("manifest holds an invalid design");
    }
    version_ = std::move(data.version);
    target_design_ = std::move(data.target_design);
    next_file_number_.store(data.next_file_number);
    last_sequence_.store(data.last_sequence);
  } else {
    if (!options_.create_if_missing) {
      return Status::NotFound("no database at " + db_path_);
    }
    version_ = Version::Empty(options_.cg_config);
  }

  // Remove SSTs not referenced by the manifest (crash leftovers) and find
  // WALs to replay.
  std::set<uint64_t> live;
  for (int level = 0; level < version_->num_levels(); ++level) {
    for (int group = 0; group < version_->num_groups(level); ++group) {
      for (const auto& f : version_->files(level, group)) {
        live.insert(f->file_number);
      }
    }
  }
  std::vector<std::string> children;
  LASER_RETURN_IF_ERROR(env_->GetChildren(db_path_, &children));
  std::vector<std::string> wals;
  for (const std::string& name : children) {
    if (HasSuffix(name, ".sst")) {
      const uint64_t number = std::strtoull(name.c_str(), nullptr, 10);
      if (live.count(number) == 0) {
        env_->RemoveFile(db_path_ + "/" + name);
      }
    } else if (HasSuffix(name, ".wal")) {
      wals.push_back(name);
    } else if (HasSuffix(name, ".tmp")) {
      env_->RemoveFile(db_path_ + "/" + name);
    }
  }
  std::sort(wals.begin(), wals.end());

  mem_ = new MemTable();
  mem_->Ref();

  for (const std::string& wal : wals) {
    LASER_RETURN_IF_ERROR(ReplayWal(db_path_ + "/" + wal));
  }

  if (mem_->num_entries() > 0) {
    // Make replayed data durable as an L0 file, then discard the WALs.
    JobContext ctx = MakeJobContext();
    std::shared_ptr<FileMetaData> meta;
    LASER_RETURN_IF_ERROR(RunFlush(ctx, *mem_, &meta));
    if (meta != nullptr) {
      version_->AddLevel0File(std::move(meta));
    }
    mem_->Unref();
    mem_ = new MemTable();
    mem_->Ref();
  }

  LASER_RETURN_IF_ERROR(NewWal());
  {
    std::unique_lock<std::mutex> lock(mu_);
    LASER_RETURN_IF_ERROR(SaveManifest());
  }
  for (const std::string& wal : wals) {
    env_->RemoveFile(db_path_ + "/" + wal);
  }
  return Status::OK();
}

Status LaserDB::ReplayWal(const std::string& fname) {
  std::unique_ptr<SequentialFile> file;
  Status s = env_->NewSequentialFile(fname, &file);
  if (s.IsNotFound()) return Status::OK();
  LASER_RETURN_IF_ERROR(s);

  wal::LogReader reader(std::move(file));
  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
    // Each record is one commit group; a torn record was dropped whole by
    // the reader, so groups replay all-or-nothing.
    Slice payload = record;
    wal::GroupHeader header;
    if (!wal::DecodeAnyGroupHeader(&payload, &header)) {
      return Status::Corruption("bad WAL group header in " + fname);
    }
    // A prepared group replays only if the coordinator committed its xid
    // (presumed abort otherwise); its sequences are consumed either way so
    // shard numbering is identical whether or not the crash happened.
    const bool apply =
        !header.prepared || (options_.prepared_commit_resolver != nullptr &&
                             options_.prepared_commit_resolver(header.xid));
    for (uint32_t i = 0; i < header.count; ++i) {
      ValueType type;
      Slice user_key, value;
      if (!DecodeWalEntry(&payload, &type, &user_key, &value)) {
        return Status::Corruption("bad WAL entry in " + fname);
      }
      if (apply) mem_->Add(header.first_seq + i, type, user_key, value);
    }
    if (!payload.empty()) {
      return Status::Corruption("trailing bytes in WAL group in " + fname);
    }
    if (header.count > 0) {
      const SequenceNumber last = header.first_seq + header.count - 1;
      if (last > last_sequence_.load()) last_sequence_.store(last);
    }
  }
  // A torn tail is expected after a crash; anything before it was replayed.
  return Status::OK();
}

Status LaserDB::NewWal() {
  if (!options_.use_wal) return Status::OK();
  wal_number_ = next_file_number_.fetch_add(1);
  std::unique_ptr<WritableFile> file;
  LASER_RETURN_IF_ERROR(
      env_->NewWritableFile(db_path_ + "/" + WalFileName(wal_number_), &file));
  wal_ = std::make_unique<wal::LogWriter>(std::move(file));
  return Status::OK();
}

LaserDB::~LaserDB() {
  // Stop the advisor first: its install hook takes mu_ and schedules work,
  // which must not race the shutdown sequence below.
  if (advisor_ != nullptr) advisor_->Stop();
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
    // Wake a flush parked on an undecided prepared xid — it re-checks
    // shutting_down_ and bails out.
    cv_.notify_all();
    cv_.wait(lock, [this] { return running_jobs_ == 0; });
  }
  wal_sync_cv_.notify_all();
  if (wal_sync_thread_.joinable()) wal_sync_thread_.join();
  pool_.reset();  // joins workers
  if (wal_ != nullptr) wal_->Close();
  {
    std::unique_lock<std::mutex> lock(mu_);
    CollectObsoleteFiles();
  }
  io_.reset();  // runs every queued unlink, then joins the I/O helpers
  if (mem_ != nullptr) mem_->Unref();
  for (MemTable* imm : imm_) imm->Unref();
}

// ---------------------------------------------------------------------------
// Write path
// ---------------------------------------------------------------------------

namespace {

/// Counts one acknowledged write op into the advisor's telemetry.
void CountWrite(Stats* stats, ValueType type,
                const std::vector<ColumnValuePair>& values) {
  if (type == kTypeFullRow) {
    stats->inserts.fetch_add(1, std::memory_order_relaxed);
  } else if (type == kTypePartialRow) {
    stats->updates.fetch_add(1, std::memory_order_relaxed);
    for (const auto& pair : values) {
      stats->updated_by_column[Stats::ColumnSlot(pair.column)].fetch_add(
          1, std::memory_order_relaxed);
    }
  }
}

}  // namespace

Status LaserDB::Insert(uint64_t key, const std::vector<ColumnValue>& row) {
  WriteRequest req;
  LASER_RETURN_IF_ERROR(EncodeOp(kTypeFullRow, key, &row, nullptr, &req));
  Status s = SubmitWrite(&req);
  if (s.ok()) CountWrite(&stats_, kTypeFullRow, {});
  return s;
}

Status LaserDB::Update(uint64_t key, const std::vector<ColumnValuePair>& values) {
  WriteRequest req;
  LASER_RETURN_IF_ERROR(EncodeOp(kTypePartialRow, key, nullptr, &values, &req));
  Status s = SubmitWrite(&req);
  if (s.ok()) CountWrite(&stats_, kTypePartialRow, values);
  return s;
}

Status LaserDB::Delete(uint64_t key) {
  WriteRequest req;
  LASER_RETURN_IF_ERROR(EncodeOp(kTypeDeletion, key, nullptr, nullptr, &req));
  return SubmitWrite(&req);
}

Status LaserDB::Write(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  WriteRequest req;
  for (const WriteBatch::Op& op : batch.ops()) {
    LASER_RETURN_IF_ERROR(EncodeOp(op.type, op.key, &op.row, &op.values, &req));
  }
  Status s = SubmitWrite(&req);
  if (s.ok()) {
    for (const WriteBatch::Op& op : batch.ops()) CountWrite(&stats_, op.type, op.values);
  }
  return s;
}

Status LaserDB::WritePrepared(uint64_t xid, const WriteBatch& batch) {
  if (xid == 0) return Status::InvalidArgument("prepared xid must be nonzero");
  if (batch.empty()) return Status::OK();
  WriteRequest req;
  for (const WriteBatch::Op& op : batch.ops()) {
    LASER_RETURN_IF_ERROR(EncodeOp(op.type, op.key, &op.row, &op.values, &req));
  }
  req.prepared_xid = xid;
  // The fragment must be durable before the coordinator can write its commit
  // record: once that record lands, replay WILL apply this group.
  req.sync = true;
  return SubmitWrite(&req);
}

void LaserDB::MarkXidCommitted(uint64_t xid) {
  std::unique_lock<std::mutex> lock(mu_);
  mem_prepared_xids_.erase(xid);
  for (auto& xids : imm_prepared_xids_) xids.erase(xid);
  // A flush may be parked on this xid draining from its memtable's set.
  cv_.notify_all();
}

void LaserDB::Poison(const Status& error) {
  if (error.ok()) return;
  std::unique_lock<std::mutex> lock(mu_);
  if (bg_error_.ok()) bg_error_ = error;
  cv_.notify_all();
}

Status LaserDB::EncodeOp(ValueType type, uint64_t key,
                         const std::vector<ColumnValue>* row,
                         const std::vector<ColumnValuePair>* values,
                         WriteRequest* req) const {
  std::string value;
  switch (type) {
    case kTypeFullRow:
      if (static_cast<int>(row->size()) != options_.schema.num_columns()) {
        return Status::InvalidArgument("row arity != schema");
      }
      value = codec_.Encode(all_columns_, MakeFullRow(*row));
      break;
    case kTypePartialRow: {
      if (values->empty()) return Status::InvalidArgument("empty update");
      for (size_t i = 0; i < values->size(); ++i) {
        if ((*values)[i].column < 1 ||
            (*values)[i].column > options_.schema.num_columns()) {
          return Status::InvalidArgument("update column out of range");
        }
        if (i > 0 && (*values)[i].column <= (*values)[i - 1].column) {
          return Status::InvalidArgument("update columns must be sorted and unique");
        }
      }
      value = codec_.Encode(all_columns_, *values);
      break;
    }
    case kTypeDeletion:
      break;
  }
  AppendWalEntry(&req->entries, type, Slice(EncodeKey64(key)), Slice(value));
  ++req->count;
  return Status::OK();
}

Status LaserDB::SubmitWrite(WriteRequest* req) {
  std::unique_lock<std::mutex> lock(mu_);
  write_queue_.push_back(req);
  while (!req->done && req != write_queue_.front()) {
    req->cv.wait(lock);
  }
  if (!req->done) CommitWriteGroup(req, &lock);
  return req->status;
}

void LaserDB::CommitWriteGroup(WriteRequest* req, std::unique_lock<std::mutex>* lock) {
  // This thread is the leader: req is the queue front, and nothing else may
  // touch wal_ or mem_ until the group is acked and leadership handed over.
  auto finish_leader_only = [&](const Status& s) {
    write_queue_.pop_front();
    req->status = s;
    req->done = true;
    if (!write_queue_.empty()) write_queue_.front()->cv.notify_one();
  };

  if (req->rotate) {
    Status s = bg_error_;
    if (s.ok() && mem_->num_entries() > 0) s = RotateMemtableLocked();
    MaybeScheduleBackgroundWork();
    finish_leader_only(s);
    return;
  }

  if (req->count > 0) {
    // Sync-only requests skip the room check: they add nothing to the
    // memtable, and stalling them behind backpressure would leave the
    // durable window unbounded exactly when writes pile up.
    Status s = MakeRoomForWrite(lock);
    if (!s.ok()) {
      finish_leader_only(s);
      return;
    }
  } else if (!bg_error_.ok()) {
    finish_leader_only(bg_error_);
    return;
  }

  // Commit window: when this group is about to pay an fsync (~100us on a
  // commodity SSD), give concurrent writers a few scheduling slices (~1us
  // each) to enqueue and join it. Without this, writers acked by the
  // previous group rarely re-enqueue before the next leader builds its
  // group, and group sizes stall far below the writer count. The leader
  // stays at the front of the queue throughout, so dropping the lock here
  // is safe — nobody else can touch wal_ or mem_.
  if (options_.wal_sync_policy == WalSyncPolicy::kSyncEveryGroup &&
      wal_ != nullptr && req->count > 0 && req->prepared_xid == 0) {
    size_t seen = write_queue_.size();
    for (int window = 0; window < 8; ++window) {
      lock->unlock();
      std::this_thread::yield();
      lock->lock();
      const size_t now = write_queue_.size();
      if (now == seen) break;  // nobody else is arriving; stop waiting
      seen = now;
    }
  }

  // Build the commit group: consecutive queued batches are coalesced into
  // one WAL record. kSyncEveryWrite forbids coalescing so every batch pays
  // its own fsync; a sync-only leader stays solo so it can never smuggle
  // batches past MakeRoomForWrite. Rotations never join. Prepared fragments
  // never coalesce in either direction — their record carries a per-xid
  // header, and mixing undecided data into a plain group would tie other
  // writers' durability to a foreign commit decision. Member pointers
  // are snapshotted here, under the lock: the IO phase below must not touch
  // write_queue_ itself while followers keep enqueueing.
  std::vector<WriteRequest*> members{req};
  size_t batch_members = req->count > 0 ? 1 : 0;
  size_t group_bytes = req->entries.size();
  uint32_t count = req->count;
  bool sync = req->sync;
  if (options_.wal_sync_policy != WalSyncPolicy::kSyncEveryWrite &&
      req->count > 0 && req->prepared_xid == 0) {
    while (members.size() < write_queue_.size()) {
      WriteRequest* next = write_queue_[members.size()];
      if (next->rotate || next->prepared_xid != 0) break;
      if (group_bytes + next->entries.size() > kMaxGroupBytes) break;
      group_bytes += next->entries.size();
      count += next->count;
      if (next->count > 0) ++batch_members;
      sync |= next->sync;
      members.push_back(next);
    }
  }
  if (options_.wal_sync_policy == WalSyncPolicy::kSyncEveryWrite ||
      options_.wal_sync_policy == WalSyncPolicy::kSyncEveryGroup) {
    sync |= count > 0;
  }

  const SequenceNumber first_seq = last_sequence_.load(std::memory_order_relaxed) + 1;
  wal::LogWriter* wal = wal_.get();
  MemTable* mem = mem_;

  std::string record;
  if (wal != nullptr && count > 0) {
    record.reserve(35 + group_bytes);
    if (req->prepared_xid != 0) {
      wal::AppendPreparedGroupHeader(&record, req->prepared_xid, first_seq,
                                     count);
    } else {
      wal::AppendGroupHeader(&record, first_seq, count);
    }
    for (const WriteRequest* member : members) {
      record.append(member->entries);
    }
  }

  // The IO phase runs without the mutex: reads can pin their view and
  // background jobs can install results while the leader appends and syncs.
  // Leader exclusivity keeps wal_/mem_ single-writer.
  lock->unlock();
  Status s;
  bool synced = false;
  if (wal != nullptr) {
    if (!record.empty()) s = wal->AddRecord(Slice(record));
    if (s.ok() && sync && wal->unsynced_bytes() > 0) {
      s = wal->Sync();
      synced = s.ok();
    }
  }
  if (s.ok() && count > 0) {
    SequenceNumber seq = first_seq;
    for (const WriteRequest* member : members) {
      Slice entries(member->entries);
      ValueType type;
      Slice user_key, value;
      while (DecodeWalEntry(&entries, &type, &user_key, &value)) {
        mem->Add(seq++, type, user_key, value);
      }
    }
    assert(seq == first_seq + count);
  }
  lock->lock();

  if (s.ok()) {
    if (count > 0) {
      last_sequence_.store(first_seq + count - 1, std::memory_order_release);
      // The fragment sits in the memtable with its commit undecided; the
      // flush gate keys off this set until MarkXidCommitted (or recovery)
      // resolves it. mem is still mem_: rotation is leader-exclusive.
      if (req->prepared_xid != 0) {
        mem_prepared_xids_.insert(req->prepared_xid);
      }
    }
    if (!record.empty()) {
      stats_.bytes_written_wal.fetch_add(record.size(), std::memory_order_relaxed);
    }
    if (count > 0) {
      // Sync-only requests (the interval thread's) are not writes, whether
      // they led an empty group or rode along with this one; counting them
      // would dilute the writes-per-group metric.
      stats_.wal_group_commits.fetch_add(1, std::memory_order_relaxed);
      stats_.wal_group_writes.fetch_add(batch_members, std::memory_order_relaxed);
    }
    if (synced) stats_.wal_syncs.fetch_add(1, std::memory_order_relaxed);
  } else {
    // The log tail now holds an unacknowledged (possibly partial) group. A
    // later successful sync would make it durable and resurrect it on
    // replay, so poison the engine before any member is acknowledged.
    bg_error_ = s;
  }

  for (WriteRequest* member : members) {
    assert(member == write_queue_.front());
    write_queue_.pop_front();
    member->status = s;
    member->done = true;
    if (member != req) member->cv.notify_one();
  }
  if (!write_queue_.empty()) write_queue_.front()->cv.notify_one();
}

Status LaserDB::SyncWalForIntervalLocked() {
  if (wal_ == nullptr ||
      options_.wal_sync_policy != WalSyncPolicy::kSyncIntervalMs ||
      wal_->unsynced_bytes() == 0) {
    return Status::OK();
  }
  Status s = wal_->Sync();
  if (!s.ok()) {
    bg_error_ = s;
    return s;
  }
  stats_.wal_syncs.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status LaserDB::RotateMemtableLocked() {
  // Acknowledged-but-unsynced bytes in the outgoing log would stay volatile
  // until its flush lands; sync now so the durable window stays bounded by
  // the interval.
  LASER_RETURN_IF_ERROR(SyncWalForIntervalLocked());
  imm_.push_back(mem_);
  imm_wal_numbers_.push_back(wal_number_);
  imm_prepared_xids_.push_back(std::move(mem_prepared_xids_));
  mem_prepared_xids_.clear();
  mem_ = new MemTable();
  mem_->Ref();
  if (wal_ != nullptr) {
    wal_->Close();
    Status s = NewWal();
    if (!s.ok()) {
      // Without a fresh log, writes would keep appending to the closed one,
      // which the pending flush is about to delete — acknowledged writes
      // would vanish. Poison the engine instead.
      bg_error_ = s;
      return s;
    }
  }
  MaybeScheduleBackgroundWork();
  return Status::OK();
}

Status LaserDB::MakeRoomForWrite(std::unique_lock<std::mutex>* lock) {
  while (true) {
    if (!bg_error_.ok()) return bg_error_;
    if (mem_->ApproximateMemoryUsage() < options_.write_buffer_size) {
      return Status::OK();
    }
    const size_t l0_files = version_->files(0, 0).size();
    if (imm_.size() >= kMaxImmutableMemtables ||
        l0_files >= static_cast<size_t>(options_.level0_stop_writes_trigger)) {
      // Backpressure: compaction/flush must catch up (§7.2's write stalls).
      // The leader keeps its queue seat while waiting; followers pile up
      // behind it and commit as one group once room opens.
      //
      // Under kSyncIntervalMs the interval thread's sync-only request would
      // queue behind this stalled leader, so sync here before parking: no
      // further writes are acked during the stall, which keeps the durable
      // window bounded by the interval no matter how long the stall lasts.
      LASER_RETURN_IF_ERROR(SyncWalForIntervalLocked());
      const uint64_t start = env_->NowMicros();
      MaybeScheduleBackgroundWork();
      cv_.wait(*lock);
      stats_.write_stall_micros.fetch_add(env_->NowMicros() - start,
                                          std::memory_order_relaxed);
      continue;
    }
    LASER_RETURN_IF_ERROR(RotateMemtableLocked());
  }
}

void LaserDB::WalSyncLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!shutting_down_) {
    // Predicate form so a shutdown notified before this thread first parks
    // is never lost (the destructor may run within one interval of Open).
    wal_sync_cv_.wait_for(lock,
                          std::chrono::milliseconds(options_.wal_sync_interval_ms),
                          [this] { return shutting_down_; });
    if (shutting_down_) return;
    if (!bg_error_.ok() || wal_ == nullptr) continue;
    lock.unlock();
    // The leader path skips the fsync when the log is already clean, so an
    // idle database costs one queue round-trip per interval, not an fsync.
    WriteRequest req;
    req.sync = true;
    SubmitWrite(&req);
    lock.lock();
  }
}

// ---------------------------------------------------------------------------
// Background work
// ---------------------------------------------------------------------------

JobContext LaserDB::MakeJobContext() {
  JobContext ctx;
  ctx.options = &options_;
  ctx.codec = &codec_;
  ctx.db_path = db_path_;
  ctx.cache = cache_.get();
  ctx.stats = &stats_;
  ctx.next_file_number = [this] { return next_file_number_.fetch_add(1); };
  ctx.io = io_.get();
  return ctx;
}

void LaserDB::MaybeScheduleBackgroundWork() {
  if (shutting_down_ || !bg_error_.ok()) return;
  if (!imm_.empty() && !flush_scheduled_) {
    flush_scheduled_ = true;
    ++running_jobs_;
    pool_->Submit([this] { BackgroundFlush(); });
  }
  // A pending settle schedules compactions even with auto compactions off,
  // but only once no immutable memtable is left: flush first, then compact.
  if (!options_.disable_auto_compactions ||
      (settle_requests_ > 0 && imm_.empty())) {
    ScheduleCompactions();
  }
}

void LaserDB::ScheduleCompactions() {
  while (running_jobs_ < options_.background_threads) {
    const CgConfig* target =
        target_design_.num_levels() > 0 ? &target_design_ : nullptr;
    auto job = picker_.Pick(*version_, busy_, target);
    if (!job.has_value()) break;
    busy_.insert(job->claims.begin(), job->claims.end());
    ++running_jobs_;
    pool_->Submit([this, j = std::move(*job)]() mutable {
      BackgroundCompact(std::move(j));
    });
  }
}

void LaserDB::BackgroundFlush() {
  MemTable* imm = nullptr;
  uint64_t wal_number = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Two-phase gate: an immutable memtable holding prepared-but-undecided
    // transactions must not reach L0 — the flush would delete its WAL and
    // the data could never be rolled back if the coordinator aborts. Park
    // until every xid resolves (MarkXidCommitted), the engine poisons, or
    // shutdown. Only this thread removes from imm_, so the front is stable
    // across the wait.
    cv_.wait(lock, [this] {
      return shutting_down_ || !bg_error_.ok() || imm_.empty() ||
             imm_prepared_xids_.front().empty();
    });
    if (imm_.empty() || shutting_down_ || !bg_error_.ok()) {
      flush_scheduled_ = false;
      --running_jobs_;
      cv_.notify_all();
      return;
    }
    imm = imm_.front();
    wal_number = imm_wal_numbers_.front();
  }

  JobContext ctx = MakeJobContext();
  std::shared_ptr<FileMetaData> meta;
  Status s = RunFlush(ctx, *imm, &meta);

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (s.ok()) {
      auto next = version_->Clone();
      if (meta != nullptr) next->AddLevel0File(std::move(meta));
      version_ = std::move(next);
      s = SaveManifest();
    }
    if (s.ok()) {
      imm_.erase(imm_.begin());
      imm_wal_numbers_.erase(imm_wal_numbers_.begin());
      imm_prepared_xids_.erase(imm_prepared_xids_.begin());
      imm->Unref();
      if (options_.use_wal) {
        env_->RemoveFile(db_path_ + "/" + WalFileName(wal_number));
      }
    } else {
      bg_error_ = s;
    }
    flush_scheduled_ = false;
    --running_jobs_;
    MaybeScheduleBackgroundWork();
    cv_.notify_all();
  }
}

void LaserDB::BackgroundCompact(CompactionJob job) {
  JobContext ctx = MakeJobContext();
  CompactionResult result;
  Status s = RunCompaction(ctx, job, &result);

  {
    std::unique_lock<std::mutex> lock(mu_);
    if (s.ok()) {
      // A morph installs its design and its runs in one step, so the
      // published Version's design always matches its files.
      version_ = job.Apply(*version_, result.outputs);
      // Morph complete? Clear the target before persisting so the manifest
      // records the finished state in the same snapshot.
      if (target_design_.num_levels() > 0 && version_->design() == target_design_) {
        target_design_ = CgConfig();
        stats_.design_morphs_completed.fetch_add(1, std::memory_order_relaxed);
      }
      s = SaveManifest();
    }
    if (s.ok()) {
      for (const CompactionInput& in : job.inputs) {
        for (const auto& f : in.files) obsolete_.emplace_back(f, f->file_number);
      }
      // Release this job's references before sweeping, so the metadata can
      // expire and the files can be unlinked now. This must include
      // result.outputs: the new version owns those files, and if this
      // thread is preempted after dropping the mutex a later job can
      // obsolete them while this frame still pins them, leaving undeletable
      // orphans on disk.
      job.inputs.clear();
      result.outputs.clear();
      CollectObsoleteFiles();
    } else {
      // A failed job has removed its own outputs. After a failed
      // SaveManifest the live version references the outputs, and the
      // parents must stay on disk so a reopen from the stale manifest can
      // still find its files.
      bg_error_ = s;
    }
    for (const auto& claim : job.claims) busy_.erase(claim);
    --running_jobs_;
    MaybeScheduleBackgroundWork();
    cv_.notify_all();
  }
}

void LaserDB::CollectObsoleteFiles() {
  for (auto it = obsolete_.begin(); it != obsolete_.end();) {
    if (it->first.expired()) {
      // Every reference is gone; the last holder is destroying (or has
      // destroyed) the reader, so only the on-disk file is left to reclaim.
      // Unlinking a possibly still-open file is fine on POSIX and MemEnv.
      const uint64_t number = it->second;
      io_->RemoveFile(db_path_ + "/" + SstFileName(number));
      if (cache_ != nullptr) cache_->EraseFile(number);
      it = obsolete_.erase(it);
    } else {
      ++it;
    }
  }
}

Status LaserDB::SaveManifest() {
  RefreshFilterGauges();
  ManifestData data;
  data.version = version_;
  data.next_file_number = next_file_number_.load();
  data.last_sequence = last_sequence_.load();
  data.wal_number = wal_number_;
  data.target_design = target_design_;
  return manifest_.Save(data);
}

void LaserDB::RefreshFilterGauges() {
  // Deep levels fold into the clamp slot.
  uint64_t by_slot[Stats::kStatsLevels] = {};
  uint64_t total = 0;
  for (int level = 0; level < version_->num_levels(); ++level) {
    for (int group = 0; group < version_->num_groups(level); ++group) {
      for (const auto& f : version_->files(level, group)) {
        const uint64_t bytes = f->reader != nullptr ? f->reader->filter_bytes()
                                                    : f->props.filter_bytes;
        by_slot[Stats::LevelSlot(level)] += bytes;
        total += bytes;
      }
    }
  }
  for (int slot = 0; slot < Stats::kStatsLevels; ++slot) {
    stats_.filter_bytes_by_level[slot].store(by_slot[slot], std::memory_order_relaxed);
  }
  stats_.filter_bytes_total.store(total, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Maintenance
// ---------------------------------------------------------------------------

Status LaserDB::Flush() {
  LASER_RETURN_IF_ERROR(StartFlush());
  return FinishFlush();
}

Status LaserDB::StartFlush() {
  // Rotation must not race a leader's outside-the-lock commit, so it rides
  // the writer queue like any other mutation.
  WriteRequest req;
  req.rotate = true;
  return SubmitWrite(&req);
}

Status LaserDB::FinishFlush() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return imm_.empty() || !bg_error_.ok(); });
  return bg_error_;
}

Status LaserDB::CompactUntilStable() {
  LASER_RETURN_IF_ERROR(StartCompactUntilStable());
  return FinishCompactUntilStable();
}

Status LaserDB::StartCompactUntilStable() {
  LASER_RETURN_IF_ERROR(StartFlush());
  // Registered after the rotation, so compactions never start ahead of the
  // flush it scheduled. If that flush has already landed, schedule now;
  // otherwise its completion does.
  std::unique_lock<std::mutex> lock(mu_);
  ++settle_requests_;
  MaybeScheduleBackgroundWork();
  return Status::OK();
}

Status LaserDB::FinishCompactUntilStable() {
  Status s;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] {
      const CgConfig* target =
          target_design_.num_levels() > 0 ? &target_design_ : nullptr;
      return !bg_error_.ok() ||
             (running_jobs_ == 0 && imm_.empty() &&
              !picker_.NeedsCompaction(*version_, target));
    });
    --settle_requests_;
    s = bg_error_;
    if (s.ok()) CollectObsoleteFiles();
  }
  io_->Drain();
  return s;
}

void LaserDB::WaitForBackgroundWork() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return (running_jobs_ == 0 && imm_.empty()) || !bg_error_.ok();
  });
  CollectObsoleteFiles();
  lock.unlock();
  io_->Drain();
}

SequenceNumber LaserDB::LastSequence() const {
  return last_sequence_.load(std::memory_order_acquire);
}

std::shared_ptr<const Version> LaserDB::current_version() const {
  std::unique_lock<std::mutex> lock(mu_);
  return version_;
}

std::string LaserDB::DebugString() const {
  std::unique_lock<std::mutex> lock(mu_);
  return version_->DebugString();
}

// ---------------------------------------------------------------------------
// Adaptive design (§6 online)
// ---------------------------------------------------------------------------

Status LaserDB::SetTargetDesign(const CgConfig& target) {
  if (target.num_levels() != options_.num_levels) {
    return Status::InvalidArgument("target design level count != num_levels");
  }
  {
    Status s = target.Validate(options_.schema.num_columns());
    if (!s.ok()) {
      return Status::InvalidArgument("target design: " + s.ToString());
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (!bg_error_.ok()) return bg_error_;
  if (target == target_design_) return Status::OK();
  if (target_design_.num_levels() == 0 && target == version_->design()) {
    // Already laid out this way and no morph in flight: nothing to do.
    return Status::OK();
  }
  // Persist the target before any morph work happens so a crash mid-morph
  // resumes toward the same design.
  CgConfig previous = std::move(target_design_);
  target_design_ = target;
  Status s = SaveManifest();
  if (!s.ok()) {
    target_design_ = std::move(previous);
    return s;
  }
  MaybeScheduleBackgroundWork();
  return Status::OK();
}

CgConfig LaserDB::CurrentDesign() const {
  std::unique_lock<std::mutex> lock(mu_);
  return version_->design();
}

CgConfig LaserDB::TargetDesign() const {
  std::unique_lock<std::mutex> lock(mu_);
  return target_design_;
}

// ---------------------------------------------------------------------------
// Reads (§4.3)
// ---------------------------------------------------------------------------

ReadView LaserDB::PinReadView() const {
  std::unique_lock<std::mutex> lock(mu_);
  return ReadView(mem_, imm_, version_, last_sequence_.load());
}

Status LaserDB::CheckProjection(const ColumnSet& projection) const {
  if (projection.empty()) return Status::InvalidArgument("empty projection");
  for (size_t i = 0; i < projection.size(); ++i) {
    if (projection[i] < 1 || projection[i] > options_.schema.num_columns()) {
      return Status::InvalidArgument("projection column out of range");
    }
    if (i > 0 && projection[i] <= projection[i - 1]) {
      return Status::InvalidArgument("projection must be sorted and unique");
    }
  }
  return Status::OK();
}

namespace {

/// One level's candidate file for the deep-level walk (memoized by the
/// pre-pass so FileContaining runs once per level per lookup).
struct DeepCandidate {
  int level;
  int group;
  FileMetaData* file;  // owned by the pinned Version, valid for this call
};

/// Per-thread buffers for LaserDB::Read. After each thread's first lookup the
/// whole point-read path is allocation-free: every vector here keeps its
/// capacity across calls. Stale contents (including DeepCandidate pointers
/// into a previous call's Version) are overwritten before use, never read.
struct ReadScratch {
  std::vector<uint8_t> resolved;
  std::vector<std::optional<ColumnValue>> values;
  std::vector<ColumnValuePair> decode;
  std::vector<KeyVersion> versions;
  ColumnSet needed;
  std::vector<DeepCandidate> candidates;
};

ReadScratch& TlsReadScratch() {
  thread_local ReadScratch scratch;
  return scratch;
}

/// Tracks which projected columns still need resolution during the top-down
/// walk of a point lookup. State lives in the caller's ReadScratch.
class PointResolver {
 public:
  PointResolver(const ColumnSet& projection, const RowCodec* codec,
                ReadScratch* scratch)
      : projection_(projection),
        codec_(codec),
        resolved_(scratch->resolved),
        values_(scratch->values),
        scratch_(scratch->decode) {
    resolved_.assign(projection.size(), 0);
    values_.assign(projection.size(), std::nullopt);
    unresolved_ = projection.size();
  }

  bool done() const { return unresolved_ == 0; }

  /// Projected columns not yet resolved that the given source covers,
  /// written into caller-owned scratch (no per-probe allocation).
  void UnresolvedIn(const ColumnSet& source_columns, ColumnSet* result) const {
    result->clear();
    for (size_t i = 0; i < projection_.size(); ++i) {
      if (!resolved_[i] && ColumnSetContains(source_columns, projection_[i])) {
        result->push_back(projection_[i]);
      }
    }
  }

  /// Applies the versions (newest first) of one source covering
  /// `source_columns`.
  void Apply(const ColumnSet& source_columns,
             const std::vector<KeyVersion>& versions) {
    for (const KeyVersion& v : versions) {
      switch (v.type) {
        case kTypeDeletion:
          // The whole chain below is dead for this source's columns.
          for (size_t i = 0; i < projection_.size(); ++i) {
            if (!resolved_[i] &&
                ColumnSetContains(source_columns, projection_[i])) {
              MarkResolved(i, std::nullopt);
            }
          }
          return;
        case kTypeFullRow:
        case kTypePartialRow: {
          scratch_.clear();
          if (!codec_->Decode(source_columns, Slice(v.value), &scratch_).ok()) {
            return;
          }
          for (const auto& pair : scratch_) {
            const auto it = std::lower_bound(projection_.begin(),
                                             projection_.end(), pair.column);
            if (it == projection_.end() || *it != pair.column) continue;
            const size_t pos = it - projection_.begin();
            if (!resolved_[pos]) MarkResolved(pos, pair.value);
          }
          if (v.type == kTypeFullRow) return;  // chain terminator
          break;
        }
      }
    }
  }

  /// Deepest level that resolved at least one column (0 for memtable/L0).
  int resolve_level() const { return resolve_level_; }
  void set_current_level(int level) { current_level_ = level; }

  /// Builds the final result: found iff any column has a value.
  void Finish(LaserDB::ReadResult* result) const {
    result->values = values_;
    result->found = false;
    for (const auto& v : values_) {
      if (v.has_value()) {
        result->found = true;
        break;
      }
    }
  }

 private:
  void MarkResolved(size_t pos, std::optional<ColumnValue> value) {
    resolved_[pos] = true;
    values_[pos] = value;
    --unresolved_;
    if (current_level_ > resolve_level_) resolve_level_ = current_level_;
  }

  const ColumnSet& projection_;
  const RowCodec* codec_;
  std::vector<uint8_t>& resolved_;
  std::vector<std::optional<ColumnValue>>& values_;
  std::vector<ColumnValuePair>& scratch_;
  size_t unresolved_;
  int current_level_ = 0;
  int resolve_level_ = 0;
};

}  // namespace

Status LaserDB::Read(uint64_t key, const ColumnSet& projection,
                     ReadResult* result) {
  LASER_RETURN_IF_ERROR(CheckProjection(projection));
  stats_.point_reads.fetch_add(1, std::memory_order_relaxed);

  const ReadView view = PinReadView();
  const Version& version = *view.version;
  const SequenceNumber snapshot = view.sequence;

  // Thread-local scratch: the key is encoded into a stack buffer and every
  // probe vector reuses its previous capacity, so after a thread's first
  // lookup the whole walk below allocates nothing.
  const ColumnSet& all_columns = all_columns_;
  char key_buf[8];
  EncodeBigEndian64(key_buf, key);
  const Slice user_key(key_buf, sizeof(key_buf));
  ReadScratch& scratch = TlsReadScratch();
  PointResolver resolver(projection, &codec_, &scratch);
  std::vector<KeyVersion>& versions = scratch.versions;
  versions.clear();
  ColumnSet& needed = scratch.needed;

  // 1. Memtables, newest first.
  if (view.mem->GetVersions(user_key, snapshot, &versions)) {
    resolver.Apply(all_columns, versions);
  }
  for (auto it = view.imms.rbegin(); it != view.imms.rend() && !resolver.done(); ++it) {
    versions.clear();
    if ((*it)->GetVersions(user_key, snapshot, &versions)) {
      resolver.Apply(all_columns, versions);
    }
  }

  // Every file's filter is probed with the same hash; compute it once.
  const uint32_t key_hash = BloomKeyHash(user_key);
  FilterOutcome outcome;

  // 2. Level-0 files, newest first.
  if (!resolver.done()) {
    const auto& l0 = version.files(0, 0);
    for (auto it = l0.rbegin(); it != l0.rend() && !resolver.done(); ++it) {
      if (!(*it)->OverlapsUserRange(user_key, user_key)) continue;
      versions.clear();
      const bool added =
          (*it)->reader->Get(user_key, key_hash, snapshot, &versions, &outcome);
      if (outcome != FilterOutcome::kNoFilter) {
        stats_.RecordBloomProbe(0, outcome == FilterOutcome::kNegative,
                                outcome == FilterOutcome::kPass && !added);
      }
      if (added) resolver.Apply(all_columns, versions);
    }
  }

  // 2b. Deep-level pre-pass: find each level's candidate file once and warm
  // the cache lines its filter probes will touch. A zero-result lookup at
  // cache-miss scale is dominated by the filters' DRAM latency, so issuing
  // every level's prefetch before the first probe overlaps those misses.
  // Pure memoization + hint: the walk below visits the same files in the
  // same order and still re-checks which groups matter.
  std::vector<DeepCandidate>& candidates = scratch.candidates;
  candidates.clear();
  if (!resolver.done()) {
    for (int level = 1; level < version.num_levels(); ++level) {
      const int groups = static_cast<int>(version.design().groups(level).size());
      for (int g = 0; g < groups; ++g) {
        FileMetaData* file = version.FileContaining(level, g, user_key);
        if (file == nullptr) continue;
        file->reader->PrefetchFilterProbes(key_hash);
        candidates.push_back({level, g, file});
      }
    }
  }

  // 3. Deeper levels: probe only CGs still covering unresolved columns.
  for (const DeepCandidate& cand : candidates) {
    if (resolver.done()) break;
    resolver.set_current_level(cand.level);
    // The pinned Version's design is authoritative: a morph may have
    // changed it since the seed config.
    const ColumnSet& group_cols =
        version.design().groups(cand.level)[cand.group];
    resolver.UnresolvedIn(group_cols, &needed);
    if (needed.empty()) continue;
    versions.clear();
    const bool added = cand.file->reader->Get(user_key, key_hash, snapshot,
                                              &versions, &outcome);
    if (outcome != FilterOutcome::kNoFilter) {
      stats_.RecordBloomProbe(cand.level, outcome == FilterOutcome::kNegative,
                              outcome == FilterOutcome::kPass && !added);
    }
    if (added) resolver.Apply(group_cols, versions);
  }

  resolver.Finish(result);
  if (result->found) {
    stats_.point_reads_by_level[Stats::LevelSlot(resolver.resolve_level())].fetch_add(
        1, std::memory_order_relaxed);
    for (int column : projection) {
      stats_.point_projected_by_column[Stats::ColumnSlot(column)].fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

std::unique_ptr<ScanIterator> LaserDB::NewScan(uint64_t lo_key, uint64_t hi_key,
                                               ColumnSet projection) {
  return NewScan(lo_key, hi_key, std::move(projection), ScanSpec());
}

std::unique_ptr<ScanIterator> LaserDB::NewScan(uint64_t lo_key, uint64_t hi_key,
                                               ColumnSet projection,
                                               ScanSpec spec) {
  if (!CheckProjection(projection).ok()) return nullptr;
  ReadView view = PinReadView();
  std::optional<ScanPlan> plan =
      PlanScan(view, &codec_, lo_key, hi_key, projection, spec);
  if (!plan.has_value()) return nullptr;
  stats_.range_scans.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<ScanIterator>(std::move(view), std::move(*plan),
                                        std::move(projection), std::move(spec), &stats_);
}

}  // namespace laser

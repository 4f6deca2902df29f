#include "laser/sharded_laser_db.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "util/coding.h"
#include "wal/log_reader.h"

namespace laser {

namespace {

std::string ShardPath(const std::string& root, int shard) {
  return root + "/shard-" + std::to_string(shard);
}

std::string TxnLogPath(const std::string& root) { return root + "/txn.log"; }

/// Runs `start` on every shard, then `finish` on each shard whose start
/// succeeded, so the shards' background work overlaps. Returns the first
/// error in shard order: a shard's start error, else its finish error.
Status StartAllThenFinish(const std::vector<std::unique_ptr<LaserDB>>& shards,
                          Status (LaserDB::*start)(),
                          Status (LaserDB::*finish)()) {
  std::vector<Status> results;
  results.reserve(shards.size());
  for (const auto& shard : shards) results.push_back((shard.get()->*start)());
  Status result;
  for (size_t i = 0; i < shards.size(); ++i) {
    if (results[i].ok()) results[i] = (shards[i].get()->*finish)();
    if (result.ok()) result = results[i];
  }
  return result;
}

/// Reads every committed xid out of the coordinator log. A torn tail is
/// dropped whole by the record framing — exactly the presumed-abort
/// semantics the protocol needs: an unsynced commit record was never
/// acknowledged, so losing it aborts the transaction.
Status ReadCommittedXids(Env* env, const std::string& fname,
                         std::set<uint64_t>* committed, uint64_t* max_xid) {
  *max_xid = 0;
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (s.IsNotFound()) return Status::OK();
  LASER_RETURN_IF_ERROR(s);
  wal::LogReader reader(std::move(file));
  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
    Slice payload = record;
    uint64_t xid = 0;
    if (!GetVarint64(&payload, &xid) || !payload.empty()) {
      return Status::Corruption("bad commit record in " + fname);
    }
    committed->insert(xid);
    *max_xid = std::max(*max_xid, xid);
  }
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardedScanIterator
// ---------------------------------------------------------------------------

ShardedScanIterator::ShardedScanIterator(
    std::vector<std::unique_ptr<ScanIterator>> shards)
    : shards_(std::move(shards)) {}

size_t ShardedScanIterator::NextBatch(ScanBatch* batch, size_t max_rows) {
  while (current_ < shards_.size()) {
    const size_t n = shards_[current_]->NextBatch(batch, max_rows);
    if (n > 0) return n;
    if (!shards_[current_]->status().ok()) return 0;
    ++current_;
  }
  return 0;
}

Status ShardedScanIterator::AggregateAll(ScanAggregates* out) {
  *out = ScanAggregates();
  bool first = true;
  for (; current_ < shards_.size(); ++current_) {
    ScanAggregates agg;
    LASER_RETURN_IF_ERROR(shards_[current_]->AggregateAll(&agg));
    if (first) {
      *out = std::move(agg);
      first = false;
      continue;
    }
    out->Merge(agg);
  }
  return Status::OK();
}

bool ShardedScanIterator::Valid() const {
  while (current_ < shards_.size()) {
    if (shards_[current_]->Valid()) return true;
    if (!shards_[current_]->status().ok()) return false;
    ++current_;
  }
  return false;
}

void ShardedScanIterator::Next() {
  assert(Valid());
  shards_[current_]->Next();
}

uint64_t ShardedScanIterator::key() const {
  assert(Valid());
  return shards_[current_]->key();
}

const std::vector<std::optional<ColumnValue>>& ShardedScanIterator::values()
    const {
  assert(Valid());
  return shards_[current_]->values();
}

Status ShardedScanIterator::status() const {
  for (const auto& shard : shards_) {
    if (!shard->status().ok()) return shard->status();
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ShardedLaserDB
// ---------------------------------------------------------------------------

ShardedLaserDB::ShardedLaserDB(ShardRouter router)
    : router_(std::move(router)) {}

Status ShardedLaserDB::Open(const ShardedLaserOptions& options,
                            std::unique_ptr<ShardedLaserDB>* db) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (options.base.path.empty()) {
    return Status::InvalidArgument("ShardedLaserOptions.base.path is empty");
  }
  if (!options.split_points.empty() &&
      static_cast<int>(options.split_points.size()) !=
          options.num_shards - 1) {
    return Status::InvalidArgument("split_points arity != num_shards - 1");
  }

  Env* env = options.base.env != nullptr ? options.base.env : Env::Default();
  const std::string& root = options.base.path;
  LASER_RETURN_IF_ERROR(env->CreateDir(root));

  // The committed-xid set must exist before any shard recovers: each shard's
  // WAL replay consults it to decide every prepared group it finds.
  auto committed = std::make_shared<std::set<uint64_t>>();
  uint64_t max_xid = 0;
  LASER_RETURN_IF_ERROR(
      ReadCommittedXids(env, TxnLogPath(root), committed.get(), &max_xid));

  auto instance = std::unique_ptr<ShardedLaserDB>(new ShardedLaserDB(
      options.split_points.empty()
          ? ShardRouter::Uniform(options.num_shards, options.key_domain)
          : ShardRouter(options.split_points)));

  for (int i = 0; i < options.num_shards; ++i) {
    LaserOptions shard_options = options.base;
    shard_options.env = env;
    shard_options.path = ShardPath(root, i);
    // One advisor for the whole table (hosted below, over aggregated shard
    // telemetry): per-shard daemons would each see a slice of the workload
    // and could morph shards toward different designs.
    shard_options.enable_design_advisor = false;
    shard_options.prepared_commit_resolver = [committed](uint64_t xid) {
      return committed->count(xid) != 0;
    };
    std::unique_ptr<LaserDB> shard;
    LASER_RETURN_IF_ERROR(LaserDB::Open(shard_options, &shard));
    instance->shards_.push_back(std::move(shard));
  }

  // Every shard has recovered: replayed WALs are flushed to L0 and deleted,
  // so nothing on disk references the old xids any more and the coordinator
  // log can restart empty. xids stay monotonic past everything the old log
  // recorded — even if a crash resurrects stale log content (recreation is
  // volatile under fault injection), a stale commit record can only name an
  // xid no surviving WAL mentions.
  instance->next_xid_.store(max_xid + 1, std::memory_order_relaxed);
  std::unique_ptr<WritableFile> txn_file;
  LASER_RETURN_IF_ERROR(env->NewWritableFile(TxnLogPath(root), &txn_file));
  instance->txn_log_ = std::make_unique<wal::LogWriter>(std::move(txn_file));

  if (options.base.enable_design_advisor) {
    // One decision over the union of every shard's telemetry, fanned out to
    // all shards, so the table converges to a single design.
    ShardedLaserDB* raw = instance.get();
    DesignAdvisorDaemonOptions dopts;
    dopts.interval_ms = options.base.advisor_interval_ms;
    dopts.min_predicted_gain = options.base.advisor_min_predicted_gain;
    dopts.shape = LaserDB::ShapeFromOptions(raw->shards_[0]->options());
    DesignAdvisorDaemon::Hooks hooks;
    hooks.fill_trace = [raw](WorkloadTrace* trace) {
      Stats aggregated;
      raw->AggregateStats(&aggregated);
      BuildTraceFromStats(aggregated, trace);
    };
    hooks.design_to_beat = [raw] {
      CgConfig target = raw->shards_[0]->TargetDesign();
      return target.num_levels() > 0 ? target
                                     : raw->shards_[0]->CurrentDesign();
    };
    hooks.install = [raw](const CgConfig& design) {
      for (auto& shard : raw->shards_) {
        LASER_RETURN_IF_ERROR(shard->SetTargetDesign(design));
      }
      return Status::OK();
    };
    instance->advisor_ = std::make_unique<DesignAdvisorDaemon>(
        &instance->shards_[0]->options().schema, dopts, std::move(hooks));
    instance->advisor_->Start();
  }

  *db = std::move(instance);
  return Status::OK();
}

ShardedLaserDB::~ShardedLaserDB() {
  // The advisor's install hook walks shards_; stop it before they go away.
  if (advisor_ != nullptr) advisor_->Stop();
}

Status ShardedLaserDB::Insert(uint64_t key,
                              const std::vector<ColumnValue>& row) {
  return shards_[router_.ShardOf(key)]->Insert(key, row);
}

Status ShardedLaserDB::Update(uint64_t key,
                              const std::vector<ColumnValuePair>& values) {
  return shards_[router_.ShardOf(key)]->Update(key, values);
}

Status ShardedLaserDB::Delete(uint64_t key) {
  return shards_[router_.ShardOf(key)]->Delete(key);
}

Status ShardedLaserDB::AppendCommitRecord(uint64_t xid) {
  std::string payload;
  PutVarint64(&payload, xid);
  std::unique_lock<std::mutex> lock(txn_mu_);
  LASER_RETURN_IF_ERROR(txn_log_->AddRecord(Slice(payload)));
  return txn_log_->Sync();
}

Status ShardedLaserDB::Write(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();

  // Partition into per-shard fragments, preserving op order within a shard
  // (cross-shard order is immaterial: shards own disjoint key ranges).
  std::vector<WriteBatch> fragments(shards_.size());
  std::vector<int> touched;
  for (const WriteBatch::Op& op : batch.ops()) {
    const int shard = router_.ShardOf(op.key);
    if (fragments[shard].empty()) touched.push_back(shard);
    switch (op.type) {
      case kTypeFullRow:
        fragments[shard].Insert(op.key, op.row);
        break;
      case kTypePartialRow:
        fragments[shard].Update(op.key, op.values);
        break;
      case kTypeDeletion:
        fragments[shard].Delete(op.key);
        break;
    }
  }

  // One shard: its own WAL-record atomicity is already all-or-nothing; no
  // xid, no forced fsync beyond the shard's sync policy.
  if (touched.size() == 1) {
    return shards_[touched[0]]->Write(fragments[touched[0]]);
  }

  std::sort(touched.begin(), touched.end());
  const uint64_t xid = next_xid_.fetch_add(1, std::memory_order_relaxed);

  // Commit-or-poison: once any fragment is durably prepared, the only two
  // exits are a durable commit record or poisoning every touched shard so no
  // later write can be acknowledged on a half-applied foundation; recovery
  // then discards the undecided fragments (presumed abort).
  const auto poison_touched = [&](const Status& error) {
    for (int shard : touched) shards_[shard]->Poison(error);
  };

  // Phase 1 — prepare in ascending shard order. The canonical order makes
  // the flush-gate wait graph acyclic: a coordinator stalled on shard i only
  // waits on transactions whose remaining prepares sit on shards > i.
  for (int shard : touched) {
    Status s = shards_[shard]->WritePrepared(xid, fragments[shard]);
    if (!s.ok()) {
      poison_touched(s);
      return s;
    }
  }

  // Phase 2 — the commit point.
  Status s = AppendCommitRecord(xid);
  if (!s.ok()) {
    poison_touched(s);
    return s;
  }

  for (int shard : touched) shards_[shard]->MarkXidCommitted(xid);
  return Status::OK();
}

Status ShardedLaserDB::Read(uint64_t key, const ColumnSet& projection,
                            LaserDB::ReadResult* result) {
  return shards_[router_.ShardOf(key)]->Read(key, projection, result);
}

std::unique_ptr<ShardedScanIterator> ShardedLaserDB::NewScan(
    uint64_t lo_key, uint64_t hi_key, ColumnSet projection) {
  return NewScan(lo_key, hi_key, std::move(projection), ScanSpec());
}

std::unique_ptr<ShardedScanIterator> ShardedLaserDB::NewScan(
    uint64_t lo_key, uint64_t hi_key, ColumnSet projection, ScanSpec spec) {
  const int lo_shard = router_.ShardOf(lo_key);
  const int hi_shard =
      hi_key >= lo_key ? router_.ShardOf(hi_key) : lo_shard;
  std::vector<std::unique_ptr<ScanIterator>> iterators;
  iterators.reserve(hi_shard - lo_shard + 1);
  for (int i = lo_shard; i <= hi_shard; ++i) {
    const uint64_t shard_lo = std::max(lo_key, router_.shard_lo(i));
    const uint64_t shard_hi = std::min(hi_key, router_.shard_hi(i));
    auto iter = shards_[i]->NewScan(shard_lo, shard_hi, projection, spec);
    if (iter == nullptr) return nullptr;  // invalid projection/spec
    iterators.push_back(std::move(iter));
  }
  return std::make_unique<ShardedScanIterator>(std::move(iterators));
}

Status ShardedLaserDB::Flush() {
  return StartAllThenFinish(shards_, &LaserDB::StartFlush,
                            &LaserDB::FinishFlush);
}

Status ShardedLaserDB::CompactUntilStable() {
  return StartAllThenFinish(shards_, &LaserDB::StartCompactUntilStable,
                            &LaserDB::FinishCompactUntilStable);
}

void ShardedLaserDB::WaitForBackgroundWork() {
  for (auto& shard : shards_) shard->WaitForBackgroundWork();
}

void ShardedLaserDB::AggregateStats(Stats* out) const {
  for (const auto& shard : shards_) shard->stats().AddCountersTo(out);
}

std::string ShardedLaserDB::DebugString() const {
  std::string out;
  for (size_t i = 0; i < shards_.size(); ++i) {
    out += "-- shard " + std::to_string(i) + " --\n";
    out += shards_[i]->DebugString();
  }
  return out;
}

}  // namespace laser

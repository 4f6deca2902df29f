#include "laser/cg_compaction.h"

#include <algorithm>
#include <cassert>
#include <deque>

#include "lsm/merging_iterator.h"
#include "lsm/run_iterator.h"
#include "sst/sst_builder.h"
#include "util/coding.h"

namespace laser {

// ---------------------------------------------------------------------------
// VersionMerger
// ---------------------------------------------------------------------------

VersionMerger::VersionMerger(const RowCodec* codec, ColumnSet cg, bool bottom_level)
    : codec_(codec), cg_(std::move(cg)), bottom_level_(bottom_level) {}

size_t VersionMerger::Fold(std::vector<MergedEntry>* versions, size_t n) {
  if (n == 0) return 0;
  MergedEntry* v = versions->data();

  // v[w] is the accumulator; v[0, w) are already emitted. Entries move only
  // toward the front (swaps), so every slot keeps a string buffer. Only a
  // partial row absorbs older versions: a full row or a tombstone hides
  // everything older.
  size_t w = 0;
  for (size_t r = 1; r < n && v[w].type == kTypePartialRow; ++r) {
    assert(v[r].sequence < v[w].sequence);
    if (v[r].type == kTypeDeletion) {
      // Partial over tombstone: not representable as one entry (the
      // tombstone must still mask deeper values), so emit both.
      ++w;
      if (w != r) std::swap(v[w], v[r]);
      continue;
    }
    MergedEntry& acc = v[w];
    codec_->Merge(cg_, Slice(acc.value), Slice(v[r].value), &scratch_);
    acc.value.swap(scratch_);
    if (codec_->IsComplete(cg_, Slice(acc.value))) acc.type = kTypeFullRow;
  }
  size_t emitted = w + 1;

  // Bottom level: the oldest emitted entry, if a tombstone, masks nothing —
  // there is no deeper data in this chain — so it is always droppable.
  if (bottom_level_ && v[w].type == kTypeDeletion) --emitted;
  return emitted;
}

// ---------------------------------------------------------------------------
// ProjectingIterator
// ---------------------------------------------------------------------------

namespace {

class ProjectingIterator final : public Iterator {
 public:
  ProjectingIterator(std::unique_ptr<Iterator> base, const RowCodec* codec,
                     const ColumnSet& parent, const ColumnSet& child)
      : base_(std::move(base)), plan_(codec->PlanProjection(parent, child)) {}

  bool Valid() const override { return base_->Valid(); }

  void SeekToFirst() override {
    base_->SeekToFirst();
    Project();
  }
  void Seek(const Slice& target) override {
    base_->Seek(target);
    Project();
  }
  void Next() override {
    base_->Next();
    Project();
  }

  Slice key() const override { return base_->key(); }

  Slice value() const override {
    return projected_valid_ ? Slice(projected_) : base_->value();
  }

  Status status() const override { return base_->status(); }

 private:
  /// Re-encodes the current row for the child, skipping partial rows that
  /// carry none of the child's columns. Tombstones and identity projections
  /// pass the base value through.
  void Project() {
    projected_valid_ = false;
    if (plan_.identity()) return;
    for (; base_->Valid(); base_->Next()) {
      const ValueType type = ExtractValueType(base_->key());
      if (type == kTypeDeletion) return;
      const int present = plan_.Apply(base_->value(), &projected_);
      if (present > 0 || type != kTypePartialRow) {
        projected_valid_ = true;
        return;
      }
    }
  }

  std::unique_ptr<Iterator> base_;
  const ProjectionPlan plan_;
  std::string projected_;
  bool projected_valid_ = false;
};

}  // namespace

std::unique_ptr<Iterator> NewProjectingIterator(std::unique_ptr<Iterator> base,
                                                const RowCodec* codec,
                                                const ColumnSet& parent,
                                                const ColumnSet& child) {
  return std::make_unique<ProjectingIterator>(std::move(base), codec, parent, child);
}

// ---------------------------------------------------------------------------
// Output writing
// ---------------------------------------------------------------------------

namespace {

/// zone_columns for SSTs holding `cols` payloads: the CG's full column set
/// with each column's fixed value width, in storage order (the builder
/// interprets row presence bitmaps against this list).
std::vector<SstBuildOptions::ZoneColumnSpec> ZoneColumnsFor(
    const RowCodec* codec, const ColumnSet& cols) {
  std::vector<SstBuildOptions::ZoneColumnSpec> specs;
  specs.reserve(cols.size());
  for (const int column : cols) {
    specs.push_back({static_cast<uint32_t>(column),
                     static_cast<uint32_t>(codec->ValueWidth(column))});
  }
  return specs;
}

SstBuildOptions BuildOptionsFor(const JobContext& ctx, const ColumnSet& columns,
                                int level) {
  SstBuildOptions build_options;
  build_options.block_size = ctx.options->block_size;
  build_options.restart_interval = ctx.options->restart_interval;
  build_options.compression = ctx.options->compression;
  build_options.bloom_bits_per_key = ctx.options->bloom_bits_for_level(level);
  build_options.zone_columns = ZoneColumnsFor(ctx.codec, columns);
  return build_options;
}

/// The SST files one job creates. A finished file goes to the I/O queue to be
/// synced and closed while the job writes the next one. The job keeps the
/// file object until its sync has run and frees it itself, so the I/O
/// helpers never free memory.
class JobFiles {
 public:
  explicit JobFiles(const JobContext& ctx) : ctx_(ctx) {}
  /// A queued sync must not outlive its file.
  ~JobFiles() { Wait(); }

  JobFiles(const JobFiles&) = delete;
  JobFiles& operator=(const JobFiles&) = delete;

  /// Allocates the next file number and creates its SST.
  Status Create(uint64_t* number, std::unique_ptr<WritableFile>* file) {
    *number = ctx_.next_file_number();
    LASER_RETURN_IF_ERROR(ctx_.options->env->NewWritableFile(Path(*number), file));
    created_.push_back(*number);
    return Status::OK();
  }

  /// Queues a finished file's sync and close. First frees the files whose
  /// syncs have run: a job may write dozens of outputs, and each writable
  /// file holds a write buffer.
  void Sync(std::unique_ptr<WritableFile> file) {
    while (!syncing_.empty() && ctx_.io->Done(syncing_.front().first)) {
      syncing_.pop_front();
    }
    const uint64_t ticket = ctx_.io->SyncAndClose(file.get(), &sync_error_);
    syncing_.emplace_back(ticket, std::move(file));
  }

  /// Blocks until every queued sync has run; returns the first failure.
  Status Wait() {
    for (const auto& [ticket, file] : syncing_) ctx_.io->Wait(ticket);
    syncing_.clear();
    return sync_error_;
  }

  /// Ends the job: waits for its syncs, and when `s` or a sync failed,
  /// removes every file the job created. Returns the job's status.
  Status Finish(Status s) {
    const Status synced = Wait();
    if (s.ok()) s = synced;
    if (!s.ok()) {
      for (const uint64_t number : created_) {
        ctx_.options->env->RemoveFile(Path(number));
      }
    }
    return s;
  }

  std::string Path(uint64_t number) const {
    return ctx_.db_path + "/" + SstFileName(number);
  }

 private:
  const JobContext& ctx_;
  std::vector<uint64_t> created_;
  std::deque<std::pair<uint64_t, std::unique_ptr<WritableFile>>> syncing_;  // by ticket
  Status sync_error_;
};

/// Opens the reader for a finished SST and describes it.
Status DescribeOutput(const JobContext& ctx, const SstBuilder& builder, uint64_t number,
                      const std::string& path, std::shared_ptr<FileMetaData>* output) {
  auto meta = std::make_shared<FileMetaData>();
  meta->file_number = number;
  meta->file_size = builder.FileSize();
  meta->smallest = builder.smallest_key();
  meta->largest = builder.largest_key();
  meta->props = builder.properties();
  std::unique_ptr<SstReader> reader;
  LASER_RETURN_IF_ERROR(SstReader::Open(ctx.options->env, path, number, ctx.cache,
                                        ctx.stats, &reader));
  meta->reader = std::move(reader);
  *output = std::move(meta);
  return Status::OK();
}

/// Writes a stream of internal entries into target-sized SSTs, cutting only
/// at user-key boundaries so one key's versions never straddle files.
class OutputWriter {
 public:
  /// `columns` is the full column set of the CG being written (used for
  /// zone-map summaries); `target_level` picks the level's filter
  /// allocation (Monkey hands each level its own bits-per-key).
  OutputWriter(const JobContext& ctx, JobFiles* job_files, const ColumnSet& columns,
               int target_level)
      : ctx_(ctx),
        job_files_(job_files),
        build_options_(BuildOptionsFor(ctx, columns, target_level)) {}

  Status Add(const Slice& internal_key, const Slice& value) {
    const Slice user_key = ExtractUserKey(internal_key);
    if (builder_ != nullptr &&
        builder_->FileSize() + pending_bytes_ >= ctx_.options->target_sst_size &&
        user_key != Slice(last_user_key_)) {
      LASER_RETURN_IF_ERROR(FinishCurrent());
    }
    if (builder_ == nullptr) {
      LASER_RETURN_IF_ERROR(StartNew());
    }
    builder_->Add(internal_key, value);
    pending_bytes_ += internal_key.size() + value.size();
    last_user_key_.assign(user_key.data(), user_key.size());
    return Status::OK();
  }

  Status Finish(Version::FileList* files, uint64_t* bytes, uint64_t* entries) {
    LASER_RETURN_IF_ERROR(FinishCurrent());
    *files = std::move(files_);
    *bytes = total_bytes_;
    *entries = total_entries_;
    return Status::OK();
  }

 private:
  Status StartNew() {
    std::unique_ptr<WritableFile> file;
    LASER_RETURN_IF_ERROR(job_files_->Create(&current_number_, &file));
    builder_ = std::make_unique<SstBuilder>(build_options_, std::move(file));
    pending_bytes_ = 0;
    return Status::OK();
  }

  /// Finishes the open file and queues its sync without waiting: the next
  /// output is written while the device syncs this one.
  Status FinishCurrent() {
    if (builder_ == nullptr) return Status::OK();
    if (builder_->NumEntries() == 0) {
      builder_.reset();
      return Status::OK();
    }
    LASER_RETURN_IF_ERROR(builder_->Finish());
    job_files_->Sync(builder_->ReleaseFile());

    std::shared_ptr<FileMetaData> meta;
    LASER_RETURN_IF_ERROR(DescribeOutput(ctx_, *builder_, current_number_,
                                         job_files_->Path(current_number_), &meta));
    total_bytes_ += meta->file_size;
    total_entries_ += meta->props.num_entries;
    files_.push_back(std::move(meta));
    builder_.reset();
    return Status::OK();
  }

  const JobContext& ctx_;
  JobFiles* const job_files_;
  const SstBuildOptions build_options_;
  std::unique_ptr<SstBuilder> builder_;
  uint64_t current_number_ = 0;
  uint64_t pending_bytes_ = 0;
  std::string last_user_key_;
  Version::FileList files_;
  uint64_t total_bytes_ = 0;
  uint64_t total_entries_ = 0;
};

// ---------------------------------------------------------------------------
// Compaction and flush execution
// ---------------------------------------------------------------------------

/// Merges the job's inputs into its outputs; RunCompaction ends the job.
Status WriteCompactionOutputs(const JobContext& ctx, const CompactionJob& job,
                              JobFiles* files, CompactionResult* result) {
  // All column sets come from the job (snapshotted at pick time from the
  // Version being compacted) — never from options, which only seed a fresh
  // tree's design.
  result->outputs.clear();
  result->outputs.resize(job.output_groups.size());

  for (size_t out = 0; out < job.output_groups.size(); ++out) {
    const ColumnSet& group_cols = job.output_columns[out];

    // Every input run whose columns intersect this group, newest first,
    // re-encoded for it when laid out differently. The other runs hold
    // nothing for it: tombstones are replicated into every group of a
    // level, so any intersecting run carries them.
    std::vector<std::unique_ptr<Iterator>> streams;
    for (const CompactionInput& in : job.inputs) {
      if (!ColumnSetsIntersect(in.columns, group_cols)) continue;
      std::unique_ptr<Iterator> run = NewRunIterator(in.files);
      if (in.columns != group_cols) {
        run = NewProjectingIterator(std::move(run), ctx.codec, in.columns, group_cols);
      }
      streams.push_back(std::move(run));
    }
    auto merged = NewMergingIterator(std::move(streams));

    VersionMerger merger(ctx.codec, group_cols, job.to_bottom_level);
    OutputWriter writer(ctx, files, group_cols, job.output_level);

    // The versions of the current user key live in versions[0, num_versions);
    // slots past that keep their string buffers for the next key, so the
    // loop allocates only while a key has more versions than any before it.
    std::string current_user_key;
    std::vector<MergedEntry> versions;
    size_t num_versions = 0;
    std::string ikey;
    std::string scratch;

    auto flush_key = [&]() -> Status {
      const size_t emitted = merger.Fold(&versions, num_versions);
      num_versions = 0;
      for (size_t i = 0; i < emitted; ++i) {
        const MergedEntry& e = versions[i];
        ikey.clear();
        AppendInternalKey(&ikey,
                          ParsedInternalKey(Slice(current_user_key), e.sequence, e.type));
        LASER_RETURN_IF_ERROR(writer.Add(Slice(ikey), Slice(e.value)));
      }
      return Status::OK();
    };

    for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(merged->key(), &parsed)) {
        return Status::Corruption("bad internal key during compaction");
      }
      if (parsed.user_key != Slice(current_user_key)) {
        LASER_RETURN_IF_ERROR(flush_key());
        current_user_key.assign(parsed.user_key.data(), parsed.user_key.size());
      }
      const Slice value = merged->value();
      ValueType type = parsed.type;
      // A row that was full in its source layout may not cover this output
      // group (the source columns need not contain it). Retype so deeper
      // merging keeps looking for the missing columns.
      if (type == kTypeFullRow && !ctx.codec->IsComplete(group_cols, value)) {
        type = kTypePartialRow;
      }
      // Equal-(key, seq) entries are fragments of one logical write whose
      // columns were split across source groups (or the same tombstone
      // replicated into several of them): recombine into a single entry, the
      // earlier input winning any column both carry. VersionMerger requires
      // strictly decreasing sequences per key.
      if (num_versions > 0 && versions[num_versions - 1].sequence == parsed.sequence) {
        MergedEntry& prev = versions[num_versions - 1];
        if (prev.type == kTypeDeletion || type == kTypeDeletion) {
          prev.type = kTypeDeletion;
          prev.value.clear();
        } else {
          ctx.codec->Merge(group_cols, Slice(prev.value), value, &scratch);
          prev.value.swap(scratch);
          prev.type = ctx.codec->IsComplete(group_cols, Slice(prev.value))
                          ? kTypeFullRow
                          : kTypePartialRow;
        }
        continue;
      }
      if (num_versions == versions.size()) versions.emplace_back();
      MergedEntry& e = versions[num_versions++];
      e.type = type;
      e.sequence = parsed.sequence;
      e.value.assign(value.data(), value.size());
    }
    LASER_RETURN_IF_ERROR(merged->status());
    LASER_RETURN_IF_ERROR(flush_key());

    uint64_t bytes = 0;
    uint64_t entries = 0;
    LASER_RETURN_IF_ERROR(writer.Finish(&result->outputs[out], &bytes, &entries));
    result->bytes_written += bytes;
    result->entries_written += entries;
  }
  return Status::OK();
}

/// Writes the memtable into one new L0 SST and syncs it on this thread. A
/// flush has nothing to overlap its one sync with, and writers may be
/// stalled on it, so it does not queue behind compaction work on the I/O
/// helpers.
Status WriteFlushOutput(const JobContext& ctx, const MemTable& imm, JobFiles* files,
                        std::shared_ptr<FileMetaData>* output) {
  uint64_t number = 0;
  std::unique_ptr<WritableFile> file;
  LASER_RETURN_IF_ERROR(files->Create(&number, &file));
  // L0 files hold full rows over the whole schema.
  SstBuilder builder(BuildOptionsFor(ctx, ctx.options->schema.AllColumns(), 0),
                     std::move(file));
  auto iter = imm.NewIterator();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    builder.Add(iter->key(), iter->value());
  }
  LASER_RETURN_IF_ERROR(builder.Finish());
  LASER_RETURN_IF_ERROR(SyncThenClose(builder.ReleaseFile().get()));
  if (builder.NumEntries() == 0) {
    // Nothing to flush (an empty memtable was rotated, or WAL replay found
    // only an empty tail).
    ctx.options->env->RemoveFile(files->Path(number));
    return Status::OK();
  }
  return DescribeOutput(ctx, builder, number, files->Path(number), output);
}

}  // namespace

Status RunCompaction(const JobContext& ctx, const CompactionJob& job,
                     CompactionResult* result) {
  JobFiles files(ctx);
  const Status s = files.Finish(WriteCompactionOutputs(ctx, job, &files, result));
  if (!s.ok()) {
    result->outputs.clear();
    return s;
  }
  if (ctx.stats != nullptr) {
    ctx.stats->bytes_compacted.fetch_add(result->bytes_written,
                                         std::memory_order_relaxed);
    if (job.design.num_levels() > 0) {
      ctx.stats->design_morph_compactions.fetch_add(1, std::memory_order_relaxed);
    } else {
      ctx.stats->compaction_jobs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return Status::OK();
}

Status RunFlush(const JobContext& ctx, const MemTable& imm,
                std::shared_ptr<FileMetaData>* output) {
  *output = nullptr;
  JobFiles files(ctx);
  std::shared_ptr<FileMetaData> meta;
  LASER_RETURN_IF_ERROR(files.Finish(WriteFlushOutput(ctx, imm, &files, &meta)));
  if (meta != nullptr && ctx.stats != nullptr) {
    ctx.stats->bytes_flushed.fetch_add(meta->file_size, std::memory_order_relaxed);
    ctx.stats->flush_jobs.fetch_add(1, std::memory_order_relaxed);
  }
  *output = std::move(meta);
  return Status::OK();
}

}  // namespace laser

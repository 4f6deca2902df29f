// Unit tests for the compaction machinery (§4.4): flush jobs, CG-local
// compaction with layout splitting, tombstone replication into every child
// chain, multi-SST outputs, version merging and morphs.

#include <gtest/gtest.h>

#include "laser/cg_compaction.h"
#include "lsm/run_iterator.h"
#include "util/coding.h"

namespace laser {
namespace {

class CgCompactionTest : public ::testing::Test {
 protected:
  static constexpr int kColumns = 4;

  void SetUp() override {
    env_ = NewMemEnv();
    io_ = std::make_unique<IoQueue>(env_.get(), 1);
    ASSERT_TRUE(env_->CreateDir("/db").ok());
    options_.env = env_.get();
    options_.path = "/db";
    options_.schema = Schema::UniformInt32(kColumns);
    options_.num_levels = 3;
    // L0,L1 row; L2: <1,2><3,4>.
    std::vector<std::vector<ColumnSet>> levels = {
        {MakeColumnRange(1, kColumns)},
        {MakeColumnRange(1, kColumns)},
        {MakeColumnRange(1, 2), MakeColumnRange(3, 4)},
    };
    options_.cg_config = CgConfig(levels);
    options_.target_sst_size = 4096;
    ASSERT_TRUE(options_.Finalize().ok());
    codec_ = std::make_unique<RowCodec>(&options_.schema);
  }

  JobContext MakeContext() {
    JobContext ctx;
    ctx.options = &options_;
    ctx.codec = codec_.get();
    ctx.db_path = "/db";
    ctx.cache = nullptr;
    ctx.stats = &stats_;
    ctx.next_file_number = [this] { return next_file_++; };
    ctx.io = io_.get();
    return ctx;
  }

  /// The job merging `parents` (each file a run of group 0 of `level`,
  /// newest first) into every group of level+1, whose runs hold `children`
  /// (one file list per group; missing ones are empty). Column sets come
  /// from the fixture's cg_config, the way CompactionPicker snapshots them
  /// from a Version's design.
  CompactionJob ChildJob(int level, const Version::FileList& parents, bool to_bottom,
                         std::vector<Version::FileList> children = {}) {
    const CgConfig& config = options_.cg_config;
    CompactionJob job;
    for (const auto& f : parents) {
      job.inputs.push_back({level, 0, config.groups(level)[0], {f}});
    }
    job.output_level = level + 1;
    children.resize(config.num_groups(level + 1));
    for (int g = 0; g < config.num_groups(level + 1); ++g) {
      const ColumnSet& cols = config.groups(level + 1)[g];
      job.inputs.push_back({level + 1, g, cols, children[g]});
      job.output_groups.push_back(g);
      job.output_columns.push_back(cols);
    }
    job.to_bottom_level = to_bottom;
    return job;
  }

  /// The morph job of a tree whose row-format L1 is empty and whose L2, the
  /// bottom, holds `runs[g]` laid out in `from[g]`: it writes L2 in the
  /// groups `to` and installs row format above them. It keeps tombstones, as
  /// a job above the bottom level would, so their recombination shows.
  CompactionJob MorphJob(const std::vector<ColumnSet>& from,
                         const std::vector<Version::FileList>& runs,
                         const std::vector<ColumnSet>& to) {
    const ColumnSet all = options_.schema.AllColumns();
    CompactionJob job;
    job.inputs.push_back({1, 0, all, {}});
    for (size_t g = 0; g < from.size(); ++g) {
      job.inputs.push_back({2, static_cast<int>(g), from[g], runs[g]});
    }
    job.output_level = 2;
    for (size_t g = 0; g < to.size(); ++g) job.output_groups.push_back(static_cast<int>(g));
    job.output_columns = to;
    job.design = CgConfig({{all}, {all}, to});
    return job;
  }

  /// Decodes every entry of `run` laid out in `cols`: (key, seq, type, values).
  struct Entry {
    uint64_t key;
    SequenceNumber seq;
    ValueType type;
    std::vector<ColumnValuePair> values;
  };
  std::vector<Entry> ReadRun(const Version::FileList& run, const ColumnSet& cols) {
    std::vector<Entry> out;
    auto iter = NewRunIterator(run);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      Entry e{DecodeKey64(ExtractUserKey(iter->key())), ExtractSequence(iter->key()),
              ExtractValueType(iter->key()), {}};
      if (e.type != kTypeDeletion) {
        EXPECT_TRUE(codec_->Decode(cols, iter->value(), &e.values).ok());
      }
      out.push_back(std::move(e));
    }
    return out;
  }

  /// Builds a memtable with `rows` full rows keyed 0..rows-1.
  MemTable* FillMemTable(int rows, SequenceNumber base_seq) {
    MemTable* mem = new MemTable();
    mem->Ref();
    const ColumnSet all = options_.schema.AllColumns();
    for (int k = 0; k < rows; ++k) {
      std::vector<ColumnValuePair> vals;
      for (int c = 1; c <= kColumns; ++c) {
        vals.push_back({c, static_cast<uint64_t>(k * 10 + c)});
      }
      mem->Add(base_seq + k, kTypeFullRow, EncodeKey64(k), codec_->Encode(all, vals));
    }
    return mem;
  }

  /// Reads every (user_key, type) from a run.
  std::vector<std::pair<uint64_t, ValueType>> DumpRun(const Version::FileList& run) {
    std::vector<std::pair<uint64_t, ValueType>> out;
    auto iter = NewRunIterator(run);
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      out.emplace_back(DecodeKey64(ExtractUserKey(iter->key())),
                       ExtractValueType(iter->key()));
    }
    return out;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<IoQueue> io_;
  LaserOptions options_;
  std::unique_ptr<RowCodec> codec_;
  Stats stats_;
  uint64_t next_file_ = 1;
};

TEST_F(CgCompactionTest, FlushWritesRowFormatSst) {
  MemTable* mem = FillMemTable(100, 1);
  JobContext ctx = MakeContext();
  std::shared_ptr<FileMetaData> meta;
  ASSERT_TRUE(RunFlush(ctx, *mem, &meta).ok());
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->props.num_entries, 100u);
  EXPECT_EQ(meta->props.smallest_seq, 1u);
  EXPECT_EQ(meta->props.largest_seq, 100u);
  EXPECT_EQ(DecodeKey64(meta->smallest_user_key()), 0u);
  EXPECT_EQ(DecodeKey64(meta->largest_user_key()), 99u);
  EXPECT_GT(stats_.bytes_flushed.load(), 0u);
  mem->Unref();
}

TEST_F(CgCompactionTest, FlushOfEmptyMemtableYieldsNothing) {
  MemTable* mem = new MemTable();
  mem->Ref();
  JobContext ctx = MakeContext();
  std::shared_ptr<FileMetaData> meta;
  ASSERT_TRUE(RunFlush(ctx, *mem, &meta).ok());
  EXPECT_EQ(meta, nullptr);
  mem->Unref();
}

TEST_F(CgCompactionTest, CompactionSplitsRowsIntoChildGroups) {
  // Flush 50 rows to "L1" (row format), then compact L1 -> L2 (two CGs).
  MemTable* mem = FillMemTable(50, 1);
  JobContext ctx = MakeContext();
  std::shared_ptr<FileMetaData> l1_file;
  ASSERT_TRUE(RunFlush(ctx, *mem, &l1_file).ok());
  mem->Unref();

  const CompactionJob job = ChildJob(1, {l1_file}, /*to_bottom=*/true);

  CompactionResult result;
  ASSERT_TRUE(RunCompaction(ctx, job, &result).ok());
  ASSERT_EQ(result.outputs.size(), 2u);
  ASSERT_FALSE(result.outputs[0].empty());
  ASSERT_FALSE(result.outputs[1].empty());

  // Both child runs hold all 50 keys, values restricted to their columns.
  for (int child = 0; child < 2; ++child) {
    auto dump = DumpRun(result.outputs[child]);
    ASSERT_EQ(dump.size(), 50u);
    const ColumnSet& cols = options_.cg_config.groups(2)[child];
    auto iter = NewRunIterator(result.outputs[child]);
    iter->SeekToFirst();
    for (uint64_t k = 0; k < 50; ++k, iter->Next()) {
      ASSERT_TRUE(iter->Valid());
      EXPECT_EQ(DecodeKey64(ExtractUserKey(iter->key())), k);
      std::vector<ColumnValuePair> vals;
      ASSERT_TRUE(codec_->Decode(cols, iter->value(), &vals).ok());
      ASSERT_EQ(vals.size(), 2u);
      EXPECT_EQ(vals[0].value, k * 10 + cols[0]);
      EXPECT_EQ(vals[1].value, k * 10 + cols[1]);
    }
  }
}

TEST_F(CgCompactionTest, TombstonesReachEveryChildGroup) {
  MemTable* mem = new MemTable();
  mem->Ref();
  const ColumnSet all = options_.schema.AllColumns();
  mem->Add(1, kTypeFullRow, EncodeKey64(1),
           codec_->Encode(all, {{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
  mem->Add(2, kTypeDeletion, EncodeKey64(2), "");
  JobContext ctx = MakeContext();
  std::shared_ptr<FileMetaData> file;
  ASSERT_TRUE(RunFlush(ctx, *mem, &file).ok());
  mem->Unref();

  // Tombstones must survive mid-tree.
  const CompactionJob job = ChildJob(1, {file}, /*to_bottom=*/false);

  CompactionResult result;
  ASSERT_TRUE(RunCompaction(ctx, job, &result).ok());
  for (int child = 0; child < 2; ++child) {
    auto dump = DumpRun(result.outputs[child]);
    ASSERT_EQ(dump.size(), 2u) << "child " << child;
    EXPECT_EQ(dump[0], (std::pair<uint64_t, ValueType>{1, kTypeFullRow}));
    EXPECT_EQ(dump[1], (std::pair<uint64_t, ValueType>{2, kTypeDeletion}));
  }
}

TEST_F(CgCompactionTest, BottomLevelDropsTombstones) {
  MemTable* mem = new MemTable();
  mem->Ref();
  mem->Add(1, kTypeDeletion, EncodeKey64(7), "");
  JobContext ctx = MakeContext();
  std::shared_ptr<FileMetaData> file;
  ASSERT_TRUE(RunFlush(ctx, *mem, &file).ok());
  mem->Unref();

  const CompactionJob job = ChildJob(1, {file}, /*to_bottom=*/true);

  CompactionResult result;
  ASSERT_TRUE(RunCompaction(ctx, job, &result).ok());
  EXPECT_TRUE(result.outputs[0].empty());
  EXPECT_TRUE(result.outputs[1].empty());
}

TEST_F(CgCompactionTest, PartialUpdateMergesWithChildRow) {
  JobContext ctx = MakeContext();
  const ColumnSet all = options_.schema.AllColumns();

  // Older full row already in the child level (as two CG runs).
  MemTable* older = new MemTable();
  older->Ref();
  older->Add(1, kTypeFullRow, EncodeKey64(5),
             codec_->Encode(all, {{1, 10}, {2, 20}, {3, 30}, {4, 40}}));
  std::shared_ptr<FileMetaData> older_row_file;
  ASSERT_TRUE(RunFlush(ctx, *older, &older_row_file).ok());
  older->Unref();
  const CompactionJob seed_job = ChildJob(1, {older_row_file}, /*to_bottom=*/true);
  CompactionResult seeded;
  ASSERT_TRUE(RunCompaction(ctx, seed_job, &seeded).ok());

  // Newer partial row (update of column 3 only) arrives above.
  MemTable* newer = new MemTable();
  newer->Ref();
  newer->Add(9, kTypePartialRow, EncodeKey64(5), codec_->Encode(all, {{3, 333}}));
  std::shared_ptr<FileMetaData> newer_file;
  ASSERT_TRUE(RunFlush(ctx, *newer, &newer_file).ok());
  newer->Unref();

  const CompactionJob job = ChildJob(1, {newer_file}, /*to_bottom=*/true,
                                     {seeded.outputs[0], seeded.outputs[1]});

  CompactionResult result;
  ASSERT_TRUE(RunCompaction(ctx, job, &result).ok());

  // Child <1,2>: untouched by the partial -> old values intact, 1 entry.
  {
    auto iter = NewRunIterator(result.outputs[0]);
    iter->SeekToFirst();
    ASSERT_TRUE(iter->Valid());
    std::vector<ColumnValuePair> vals;
    ASSERT_TRUE(codec_->Decode({1, 2}, iter->value(), &vals).ok());
    EXPECT_EQ(vals[0].value, 10u);
    EXPECT_EQ(vals[1].value, 20u);
  }
  // Child <3,4>: merged, column 3 updated, column 4 preserved, FULL row.
  {
    auto iter = NewRunIterator(result.outputs[1]);
    iter->SeekToFirst();
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(ExtractValueType(iter->key()), kTypeFullRow);
    EXPECT_EQ(ExtractSequence(iter->key()), 9u);
    std::vector<ColumnValuePair> vals;
    ASSERT_TRUE(codec_->Decode({3, 4}, iter->value(), &vals).ok());
    EXPECT_EQ(vals[0].value, 333u);
    EXPECT_EQ(vals[1].value, 40u);
  }
}

TEST_F(CgCompactionTest, OutputRespectsTargetSstSize) {
  options_.target_sst_size = 4096;  // tiny targets -> several output files
  MemTable* mem = FillMemTable(2000, 1);
  JobContext ctx = MakeContext();
  std::shared_ptr<FileMetaData> file;
  ASSERT_TRUE(RunFlush(ctx, *mem, &file).ok());
  mem->Unref();

  const CompactionJob job = ChildJob(1, {file}, /*to_bottom=*/true);

  CompactionResult result;
  ASSERT_TRUE(RunCompaction(ctx, job, &result).ok());
  EXPECT_GT(result.outputs[0].size(), 1u);
  // Files within a run must be sorted and non-overlapping.
  for (const auto& run : result.outputs) {
    for (size_t i = 0; i + 1 < run.size(); ++i) {
      EXPECT_LT(Slice(run[i]->largest).compare(Slice(run[i + 1]->smallest)), 0);
    }
  }
  // Entries preserved.
  uint64_t total = 0;
  for (const auto& f : result.outputs[0]) total += f->props.num_entries;
  EXPECT_EQ(total, 2000u);
}

TEST_F(CgCompactionTest, IdentityCompactionKeepsRowFormat) {
  // L0 -> L1 with identical (row) layouts exercises the identity projection.
  MemTable* mem = FillMemTable(100, 1);
  JobContext ctx = MakeContext();
  std::shared_ptr<FileMetaData> file;
  ASSERT_TRUE(RunFlush(ctx, *mem, &file).ok());
  mem->Unref();

  const CompactionJob job = ChildJob(0, {file}, /*to_bottom=*/false);

  CompactionResult result;
  ASSERT_TRUE(RunCompaction(ctx, job, &result).ok());
  ASSERT_EQ(result.outputs.size(), 1u);
  uint64_t total = 0;
  for (const auto& f : result.outputs[0]) total += f->props.num_entries;
  EXPECT_EQ(total, 100u);
}

TEST_F(CgCompactionTest, L0MultipleOverlappingRunsMergeNewestWins) {
  JobContext ctx = MakeContext();
  const ColumnSet all = options_.schema.AllColumns();

  MemTable* old_mem = new MemTable();
  old_mem->Ref();
  old_mem->Add(1, kTypeFullRow, EncodeKey64(1),
               codec_->Encode(all, {{1, 100}, {2, 100}, {3, 100}, {4, 100}}));
  std::shared_ptr<FileMetaData> old_file;
  ASSERT_TRUE(RunFlush(ctx, *old_mem, &old_file).ok());
  old_mem->Unref();

  MemTable* new_mem = new MemTable();
  new_mem->Ref();
  new_mem->Add(2, kTypeFullRow, EncodeKey64(1),
               codec_->Encode(all, {{1, 200}, {2, 200}, {3, 200}, {4, 200}}));
  std::shared_ptr<FileMetaData> new_file;
  ASSERT_TRUE(RunFlush(ctx, *new_mem, &new_file).ok());
  new_mem->Unref();

  const CompactionJob job = ChildJob(0, {new_file, old_file}, /*to_bottom=*/false);

  CompactionResult result;
  ASSERT_TRUE(RunCompaction(ctx, job, &result).ok());
  auto iter = NewRunIterator(result.outputs[0]);
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractSequence(iter->key()), 2u);  // newest version won
  iter->Next();
  EXPECT_FALSE(iter->Valid());  // the older version is folded away
}

TEST_F(CgCompactionTest, MorphReLaysGroupsIntoRowAndBack) {
  JobContext ctx = MakeContext();
  const ColumnSet all = options_.schema.AllColumns();

  // Two CG runs at L2: a full row, a tombstone (replicated into both groups)
  // and a partial write whose columns 2 and 3 split across the groups.
  MemTable* mem = new MemTable();
  mem->Ref();
  mem->Add(1, kTypeFullRow, EncodeKey64(1),
           codec_->Encode(all, {{1, 11}, {2, 12}, {3, 13}, {4, 14}}));
  mem->Add(2, kTypeDeletion, EncodeKey64(2), "");
  mem->Add(3, kTypePartialRow, EncodeKey64(3), codec_->Encode(all, {{2, 32}, {3, 33}}));
  std::shared_ptr<FileMetaData> file;
  ASSERT_TRUE(RunFlush(ctx, *mem, &file).ok());
  mem->Unref();
  CompactionResult split;
  ASSERT_TRUE(RunCompaction(ctx, ChildJob(1, {file}, /*to_bottom=*/false), &split).ok());

  const std::vector<ColumnSet> groups = options_.cg_config.groups(2);
  CompactionResult row;
  ASSERT_TRUE(RunCompaction(ctx, MorphJob(groups, split.outputs, {all}), &row).ok());
  ASSERT_EQ(row.outputs.size(), 1u);
  const std::vector<Entry> rows = ReadRun(row.outputs[0], all);
  ASSERT_EQ(rows.size(), 3u);  // one entry per key: fragments recombined
  EXPECT_EQ(rows[0].key, 1u);
  EXPECT_EQ(rows[0].seq, 1u);
  EXPECT_EQ(rows[0].type, kTypeFullRow);
  EXPECT_EQ(rows[0].values,
            (std::vector<ColumnValuePair>{{1, 11}, {2, 12}, {3, 13}, {4, 14}}));
  EXPECT_EQ(rows[1].key, 2u);
  EXPECT_EQ(rows[1].type, kTypeDeletion);  // the tombstone comes out once
  EXPECT_EQ(rows[2].key, 3u);
  EXPECT_EQ(rows[2].seq, 3u);
  EXPECT_EQ(rows[2].type, kTypePartialRow);
  EXPECT_EQ(rows[2].values, (std::vector<ColumnValuePair>{{2, 32}, {3, 33}}));

  // And back: each group gets its columns of every key, and the tombstone.
  CompactionResult back;
  ASSERT_TRUE(RunCompaction(ctx, MorphJob({all}, row.outputs, groups), &back).ok());
  ASSERT_EQ(back.outputs.size(), 2u);
  for (int g = 0; g < 2; ++g) {
    const ColumnSet& cols = groups[g];
    const std::vector<Entry> entries = ReadRun(back.outputs[g], cols);
    ASSERT_EQ(entries.size(), 3u) << "group " << g;
    EXPECT_EQ(entries[0].type, kTypeFullRow);
    EXPECT_EQ(entries[0].values,
              (std::vector<ColumnValuePair>{{cols[0], 10 + static_cast<uint64_t>(cols[0])},
                                            {cols[1], 10 + static_cast<uint64_t>(cols[1])}}));
    EXPECT_EQ(entries[1].type, kTypeDeletion);
    EXPECT_EQ(entries[2].type, kTypePartialRow);
    EXPECT_EQ(entries[2].values,
              (std::vector<ColumnValuePair>{{g == 0 ? 2 : 3, g == 0 ? 32u : 33u}}));
  }
  EXPECT_EQ(stats_.design_morph_compactions.load(), 2u);
}

// Bug A of the per-level morph (ROADMAP.md) on one key, over L0 row, L1
// <1,2><3,4> and L2 <1,2><3,4>, each step a job the picker returns:
//   1. Seq 5, a full row of 5s, settles into L2.
//   2. Seq 10 (column 3 = 10) and seq 12 (column 1 = 12) land in L1: its
//      <1,2> run holds seq 12 and its <3,4> run seq 10.
//   3. Only L1's <1,2> overflows into L2. L2's <1,2> becomes seq 12 {12, 5};
//      its <3,4> keeps seq 5.
// Then the tree morphs to row format. Morphing L1 and then L2 on its own
// would fold L2's two groups into one seq-12 full row that carries column
// 3 = 5 although seq 10 is newer there, and L1's overflow into L2 would then
// let that row shadow seq 10. One morph of every run below L0 folds seq 10
// in, so column 3 reads 10.
TEST_F(CgCompactionTest, MorphFoldsAcrossGroupFrontiers) {
  JobContext ctx = MakeContext();
  const ColumnSet all = options_.schema.AllColumns();
  options_.level0_file_compaction_trigger = 1;
  options_.level0_bytes = 1;  // every run below L0 overflows
  const CompactionPicker picker(&options_);
  std::shared_ptr<Version> version = Version::Empty(CgConfig::EquiWidth(kColumns, 3, 2));

  // Flushes writes of key 1 to an L0 file.
  struct Write {
    SequenceNumber seq;
    ValueType type;
    std::vector<ColumnValuePair> values;
  };
  const auto flush = [&](const std::vector<Write>& writes) {
    MemTable* mem = new MemTable();
    mem->Ref();
    for (const Write& w : writes) {
      mem->Add(w.seq, w.type, EncodeKey64(1), codec_->Encode(all, w.values));
    }
    std::shared_ptr<FileMetaData> file;
    ASSERT_TRUE(RunFlush(ctx, *mem, &file).ok());
    mem->Unref();
    version->AddLevel0File(std::move(file));
  };
  // Runs a picked job and installs it the way the engine does.
  const auto install = [&](const std::optional<CompactionJob>& job) {
    ASSERT_TRUE(job.has_value());
    CompactionResult result;
    ASSERT_TRUE(RunCompaction(ctx, *job, &result).ok());
    version = job->Apply(*version, result.outputs);
  };

  // 1.
  flush({{5, kTypeFullRow, {{1, 5}, {2, 5}, {3, 5}, {4, 5}}}});
  while (auto job = picker.Pick(*version, {})) install(job);
  // 2.
  flush({{10, kTypePartialRow, {{3, 10}}}, {12, kTypePartialRow, {{1, 12}}}});
  install(picker.Pick(*version, {}));
  // 3. L1's <3,4> and its child are busy.
  install(picker.Pick(*version, {{1, 1}, {2, 1}}));
  ASSERT_TRUE(version->files(1, 0).empty());
  for (const auto& [level, group] : {std::pair{1, 1}, {2, 0}, {2, 1}}) {
    ASSERT_EQ(version->files(level, group).size(), 1u) << level << "." << group;
  }

  // The morph, and every job the picker returns after it.
  const CgConfig row = CgConfig::RowOnly(kColumns, 3);
  while (auto job = picker.Pick(*version, {}, &row)) install(job);
  ASSERT_EQ(version->design(), row);
  ASSERT_TRUE(version->files(1, 0).empty());

  // A read takes each column from the newest entry that carries it (0:
  // null), down to the first full row or tombstone.
  uint64_t read[kColumns] = {};
  bool seen[kColumns] = {};
  for (const Entry& e : ReadRun(version->files(2, 0), all)) {
    for (const ColumnValuePair& pair : e.values) {
      if (!seen[pair.column - 1]) read[pair.column - 1] = pair.value;
      seen[pair.column - 1] = true;
    }
    if (e.type != kTypePartialRow) break;
  }
  const uint64_t want[kColumns] = {12, 5, 10, 5};
  for (int c = 0; c < kColumns; ++c) {
    EXPECT_EQ(read[c], want[c]) << "column " << c + 1;
  }
}

}  // namespace
}  // namespace laser

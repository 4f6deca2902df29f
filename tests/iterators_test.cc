// Iterator machinery tests: merging iterator, run iterator, projecting
// iterator, VersionMerger semantics, contribution cursors and the level merge.

#include <gtest/gtest.h>

#include <optional>

#include "laser/cg_compaction.h"
#include "laser/contribution_iterator.h"
#include "laser/level_merging_iterator.h"
#include "lsm/merging_iterator.h"
#include "lsm/run_iterator.h"
#include "memtable/memtable.h"
#include "util/coding.h"

namespace laser {
namespace {

/// Simple in-memory iterator over (internal_key, value) pairs for tests.
class VectorIterator final : public Iterator {
 public:
  explicit VectorIterator(std::vector<std::pair<std::string, std::string>> data)
      : data_(std::move(data)) {}

  bool Valid() const override { return pos_ < data_.size(); }
  void SeekToFirst() override { pos_ = 0; }
  void Seek(const Slice& target) override {
    InternalKeyComparator cmp;
    pos_ = 0;
    while (pos_ < data_.size() && cmp.Compare(Slice(data_[pos_].first), target) < 0) {
      ++pos_;
    }
  }
  void Next() override { ++pos_; }
  Slice key() const override { return Slice(data_[pos_].first); }
  Slice value() const override { return Slice(data_[pos_].second); }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<std::pair<std::string, std::string>> data_;
  size_t pos_ = 0;
};

std::string IK(uint64_t key, SequenceNumber seq, ValueType type = kTypeFullRow) {
  return MakeInternalKey(EncodeKey64(key), seq, type);
}

TEST(MergingIteratorTest, InterleavesSortedStreams) {
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{
          {IK(1, 1), "a"}, {IK(5, 1), "b"}, {IK(9, 1), "c"}}));
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{
          {IK(2, 1), "d"}, {IK(5, 2), "e"}, {IK(10, 1), "f"}}));
  auto merged = NewMergingIterator(std::move(children));

  std::vector<std::string> values;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    values.push_back(merged->value().ToString());
  }
  // Key 5: seq 2 sorts before seq 1.
  EXPECT_EQ(values, (std::vector<std::string>{"a", "d", "e", "b", "c", "f"}));
}

TEST(MergingIteratorTest, EqualKeysPopInChildOrder) {
  // The fragments of one write share an internal key across column-group
  // runs; compaction lists its inputs newest first and relies on this order.
  std::vector<std::unique_ptr<Iterator>> children;
  for (int child = 0; child < 5; ++child) {
    const std::string id = std::to_string(child);
    std::vector<std::pair<std::string, std::string>> data;
    if (child % 2 == 1) data.push_back({IK(1, 1), "x" + id});
    data.push_back({IK(2, 7), id});
    data.push_back({IK(3, 7, kTypeDeletion), id});
    children.push_back(std::make_unique<VectorIterator>(std::move(data)));
  }
  auto merged = NewMergingIterator(std::move(children));

  std::vector<std::string> values;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    values.push_back(merged->value().ToString());
  }
  EXPECT_EQ(values, (std::vector<std::string>{"x1", "x3", "0", "1", "2", "3", "4", "0",
                                              "1", "2", "3", "4"}));
}

TEST(MergingIteratorTest, SeekLandsOnLowerBound) {
  std::vector<std::unique_ptr<Iterator>> children;
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{{IK(1, 1), "a"},
                                                       {IK(9, 1), "c"}}));
  children.push_back(std::make_unique<VectorIterator>(
      std::vector<std::pair<std::string, std::string>>{{IK(4, 1), "b"}}));
  auto merged = NewMergingIterator(std::move(children));
  merged->Seek(IK(2, kMaxSequenceNumber));
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ(merged->value().ToString(), "b");
}

TEST(MergingIteratorTest, EmptyChildren) {
  auto merged = NewMergingIterator({});
  merged->SeekToFirst();
  EXPECT_FALSE(merged->Valid());
}

// ---------------------------------------------------------- VersionMerger --

class VersionMergerTest : public ::testing::Test {
 protected:
  VersionMergerTest() : schema_(Schema::UniformInt32(4)), codec_(&schema_) {}

  MergedEntry Full(SequenceNumber seq, uint64_t base) {
    std::vector<ColumnValuePair> vals;
    for (int c = 1; c <= 4; ++c) vals.push_back({c, base + c});
    return {kTypeFullRow, seq, codec_.Encode(cg_, vals)};
  }
  MergedEntry Partial(SequenceNumber seq, std::vector<ColumnValuePair> vals) {
    return {kTypePartialRow, seq, codec_.Encode(cg_, vals)};
  }
  MergedEntry Tombstone(SequenceNumber seq) { return {kTypeDeletion, seq, ""}; }

  /// The entries VersionMerger::Fold leaves to emit, newest first.
  static std::vector<MergedEntry> FoldVersions(VersionMerger& merger,
                                               std::vector<MergedEntry> versions) {
    versions.resize(merger.Fold(&versions, versions.size()));
    return versions;
  }

  Schema schema_;
  RowCodec codec_;
  ColumnSet cg_ = MakeColumnRange(1, 4);
};

TEST_F(VersionMergerTest, NewestFullAbsorbsOlder) {
  VersionMerger merger(&codec_, cg_, /*bottom_level=*/false);
  auto out = FoldVersions(merger, {Full(10, 100), Full(5, 500), Partial(3, {{1, 1}})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].sequence, 10u);
  EXPECT_EQ(out[0].type, kTypeFullRow);
}

TEST_F(VersionMergerTest, PartialMergesIntoOlderFull) {
  VersionMerger merger(&codec_, cg_, false);
  auto out = FoldVersions(merger, {Partial(10, {{2, 999}}), Full(5, 100)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, kTypeFullRow);
  EXPECT_EQ(out[0].sequence, 10u);
  std::vector<ColumnValuePair> vals;
  ASSERT_TRUE(codec_.Decode(cg_, Slice(out[0].value), &vals).ok());
  EXPECT_EQ(vals[1].value, 999u);   // updated
  EXPECT_EQ(vals[0].value, 101u);   // from the full row
}

TEST_F(VersionMergerTest, PartialsMergeTogether) {
  VersionMerger merger(&codec_, cg_, false);
  auto out = FoldVersions(merger, {Partial(10, {{2, 22}}), Partial(8, {{3, 33}})});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, kTypePartialRow);
  std::vector<ColumnValuePair> vals;
  ASSERT_TRUE(codec_.Decode(cg_, Slice(out[0].value), &vals).ok());
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0].value, 22u);
  EXPECT_EQ(vals[1].value, 33u);
}

TEST_F(VersionMergerTest, TombstoneAbsorbsOlderAndSurvivesMidLevels) {
  VersionMerger merger(&codec_, cg_, false);
  auto out = FoldVersions(merger, {Tombstone(10), Full(5, 100)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, kTypeDeletion);
}

TEST_F(VersionMergerTest, TombstoneDroppedAtBottom) {
  VersionMerger merger(&codec_, cg_, /*bottom_level=*/true);
  auto out = FoldVersions(merger, {Tombstone(10), Full(5, 100)});
  EXPECT_TRUE(out.empty());
}

TEST_F(VersionMergerTest, PartialOverTombstoneKeepsBoth) {
  VersionMerger merger(&codec_, cg_, false);
  auto out = FoldVersions(merger, {Partial(10, {{1, 1}}), Tombstone(5), Full(2, 100)});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type, kTypePartialRow);
  EXPECT_EQ(out[1].type, kTypeDeletion);
}

TEST_F(VersionMergerTest, PartialOverTombstoneCollapsesAtBottom) {
  VersionMerger merger(&codec_, cg_, true);
  auto out = FoldVersions(merger, {Partial(10, {{1, 1}}), Tombstone(5), Full(2, 100)});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, kTypePartialRow);  // absent columns are null
}

// ----------------------------------------------------- ProjectingIterator --

TEST(ProjectingIteratorTest, ReEncodesAndSkipsEmptyPartials) {
  Schema schema = Schema::UniformInt32(4);
  RowCodec codec(&schema);
  const ColumnSet parent = MakeColumnRange(1, 4);
  const ColumnSet child = {3, 4};

  std::vector<std::pair<std::string, std::string>> data;
  data.emplace_back(IK(1, 3),
                    codec.Encode(parent, {{1, 11}, {2, 12}, {3, 13}, {4, 14}}));
  data.emplace_back(IK(2, 2, kTypePartialRow), codec.Encode(parent, {{1, 7}}));
  data.emplace_back(IK(3, 1, kTypeDeletion), "");

  auto iter = NewProjectingIterator(std::make_unique<VectorIterator>(data),
                                    &codec, parent, child);
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  {
    // Full row restricted to <3,4>.
    std::vector<ColumnValuePair> vals;
    ASSERT_TRUE(codec.Decode(child, iter->value(), &vals).ok());
    ASSERT_EQ(vals.size(), 2u);
    EXPECT_EQ(vals[0].value, 13u);
    EXPECT_EQ(vals[1].value, 14u);
  }
  iter->Next();
  // Key 2's partial had no child columns: skipped. Key 3's tombstone passes.
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractValueType(iter->key()), kTypeDeletion);
  iter->Next();
  EXPECT_FALSE(iter->Valid());
}

// ------------------------------------------------- Contribution/Level ----

class StitchTest : public ::testing::Test {
 protected:
  StitchTest() : schema_(Schema::UniformInt32(4)), codec_(&schema_) {}

  std::unique_ptr<ContributionIterator> MakeSource(
      std::vector<std::pair<std::string, std::string>> data, ColumnSet source_cols,
      ColumnSet projection, SequenceNumber snapshot = kMaxSequenceNumber) {
    return std::make_unique<ContributionIterator>(
        std::make_unique<VectorIterator>(std::move(data)), &codec_,
        std::move(source_cols), std::move(projection), snapshot);
  }

  /// One merge source made of `cursors`: a row-format cursor, or the column
  /// groups of one level.
  template <typename... Cursors>
  static LevelMergingIterator::Source SourceOf(Cursors... cursors) {
    LevelMergingIterator::Source source;
    (source.push_back(std::move(cursors)), ...);
    return source;
  }

  /// One resolved row, parallel to the projection.
  using Row = std::vector<std::optional<ColumnValue>>;
  static constexpr std::nullopt_t kNull = std::nullopt;

  /// The rows of `batch`.
  static std::vector<Row> Rows(const ScanBatch& batch) {
    std::vector<Row> rows(batch.keys.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      for (const ScanBatch::Column& column : batch.columns) {
        rows[r].push_back(column.present[r] != 0 ? Row::value_type(column.values[r]) : kNull);
      }
    }
    return rows;
  }

  /// Drains `merged` (already sought) through AppendRows, `max_rows` rows at
  /// a time, into one batch of `width` columns.
  static ScanBatch Drain(LevelMergingIterator* merged, size_t width, size_t max_rows = 1) {
    ScanBatch batch;
    batch.Reset(width);
    while (merged->AppendRows(&batch, Slice(), max_rows) > 0) {
    }
    return batch;
  }

  Schema schema_;
  RowCodec codec_;
};

TEST_F(StitchTest, ContributionFoldsVersions) {
  const ColumnSet all = MakeColumnRange(1, 4);
  std::vector<std::pair<std::string, std::string>> data;
  data.emplace_back(IK(1, 5, kTypePartialRow), codec_.Encode(all, {{2, 99}}));
  data.emplace_back(IK(1, 3), codec_.Encode(all, {{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
  auto src = MakeSource(std::move(data), all, {1, 2});
  src->Seek(EncodeKey64(0));
  ASSERT_TRUE(src->Valid());
  EXPECT_EQ(src->states()[0], ColumnState::kValue);
  EXPECT_EQ(src->values()[0], 1u);
  EXPECT_EQ(src->states()[1], ColumnState::kValue);
  EXPECT_EQ(src->values()[1], 99u);  // newer partial wins
}

TEST_F(StitchTest, ContributionSkipsIrrelevantKeys) {
  const ColumnSet all = MakeColumnRange(1, 4);
  std::vector<std::pair<std::string, std::string>> data;
  data.emplace_back(IK(1, 5, kTypePartialRow), codec_.Encode(all, {{4, 9}}));
  data.emplace_back(IK(2, 3), codec_.Encode(all, {{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
  auto src = MakeSource(std::move(data), all, {1});
  src->Seek(EncodeKey64(0));
  ASSERT_TRUE(src->Valid());
  EXPECT_EQ(DecodeKey64(src->user_key()), 2u);  // key 1 had nothing for col 1
}

TEST_F(StitchTest, ContributionRespectsSnapshot) {
  const ColumnSet all = MakeColumnRange(1, 4);
  std::vector<std::pair<std::string, std::string>> data;
  data.emplace_back(IK(1, 9), codec_.Encode(all, {{1, 900}, {2, 2}, {3, 3}, {4, 4}}));
  data.emplace_back(IK(1, 2), codec_.Encode(all, {{1, 200}, {2, 2}, {3, 3}, {4, 4}}));
  auto src = MakeSource(std::move(data), all, {1}, /*snapshot=*/5);
  src->Seek(EncodeKey64(0));
  ASSERT_TRUE(src->Valid());
  EXPECT_EQ(src->values()[0], 200u);
}

// One level split into two column groups is the only source: each key
// takes each position from the group covering it, and a key one group lacks
// is null there.
TEST_F(StitchTest, LevelMergingStitchesDisjointGroups) {
  const ColumnSet g1 = {1, 2};
  const ColumnSet g2 = {3, 4};
  const ColumnSet proj = {2, 3};

  std::vector<std::pair<std::string, std::string>> d1;
  d1.emplace_back(IK(1, 4), codec_.Encode(g1, {{1, 11}, {2, 12}}));
  d1.emplace_back(IK(2, 4), codec_.Encode(g1, {{1, 21}, {2, 22}}));
  std::vector<std::pair<std::string, std::string>> d2;
  d2.emplace_back(IK(1, 4), codec_.Encode(g2, {{3, 13}, {4, 14}}));
  d2.emplace_back(IK(3, 4), codec_.Encode(g2, {{3, 33}, {4, 34}}));

  std::vector<LevelMergingIterator::Source> sources;
  sources.push_back(
      SourceOf(MakeSource(std::move(d1), g1, proj), MakeSource(std::move(d2), g2, proj)));
  LevelMergingIterator merged(std::move(sources), proj.size());

  merged.Seek(EncodeKey64(0));
  const ScanBatch batch = Drain(&merged, proj.size());
  EXPECT_EQ(batch.keys, (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(Rows(batch), (std::vector<Row>{{12, 13},       // col 2 from g1, col 3 from g2
                                            {22, kNull},    // no g2 entry for key 2
                                            {kNull, 33}}));  // no g1 entry for key 3
}

TEST_F(StitchTest, LevelMergingNewestSourceWins) {
  const ColumnSet all = MakeColumnRange(1, 4);
  const ColumnSet proj = {1, 2};

  // "Upper level": a partial update of column 1 at seq 9.
  std::vector<std::pair<std::string, std::string>> upper;
  upper.emplace_back(IK(1, 9, kTypePartialRow), codec_.Encode(all, {{1, 111}}));
  // "Lower level": the original full row at seq 2.
  std::vector<std::pair<std::string, std::string>> lower;
  lower.emplace_back(IK(1, 2), codec_.Encode(all, {{1, 1}, {2, 2}, {3, 3}, {4, 4}}));

  std::vector<LevelMergingIterator::Source> sources;
  sources.push_back(SourceOf(MakeSource(std::move(upper), all, proj)));
  sources.push_back(SourceOf(MakeSource(std::move(lower), all, proj)));
  LevelMergingIterator merged(std::move(sources), proj.size());

  merged.Seek(EncodeKey64(0));
  const ScanBatch batch = Drain(&merged, proj.size());
  EXPECT_EQ(batch.keys, (std::vector<uint64_t>{1}));
  // Column 1 from the upper level, column 2 stitched from the lower level.
  EXPECT_EQ(Rows(batch), (std::vector<Row>{{111, 2}}));
}

TEST_F(StitchTest, LevelMergingSkipsFullyDeletedRows) {
  const ColumnSet all = MakeColumnRange(1, 4);
  const ColumnSet proj = {1};

  std::vector<std::pair<std::string, std::string>> upper;
  upper.emplace_back(IK(1, 9, kTypeDeletion), "");
  std::vector<std::pair<std::string, std::string>> lower;
  lower.emplace_back(IK(1, 2), codec_.Encode(all, {{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
  lower.emplace_back(IK(2, 3), codec_.Encode(all, {{1, 5}, {2, 2}, {3, 3}, {4, 4}}));

  std::vector<LevelMergingIterator::Source> sources;
  sources.push_back(SourceOf(MakeSource(std::move(upper), all, proj)));
  sources.push_back(SourceOf(MakeSource(std::move(lower), all, proj)));
  LevelMergingIterator merged(std::move(sources), proj.size());

  merged.Seek(EncodeKey64(0));
  EXPECT_EQ(Drain(&merged, proj.size()).keys, (std::vector<uint64_t>{2}));  // key 1 deleted
}

// Two column groups of one level hold different keys behind the same first
// key and the same number of rows. The run merge must keep their streams
// apart: each key's columns come from the group that holds it.
TEST_F(StitchTest, LevelMergingRunMergeKeepsDivergedGroupsApart) {
  const ColumnSet all = MakeColumnRange(1, 4);
  const ColumnSet g1 = {1, 2};
  const ColumnSet g2 = {3, 4};

  std::vector<std::pair<std::string, std::string>> newest;
  for (const uint64_t key : {1, 2, 10}) {
    newest.emplace_back(IK(key, 9), codec_.Encode(all, {{1, key * 100 + 1},
                                                        {2, key * 100 + 2},
                                                        {3, key * 100 + 3},
                                                        {4, key * 100 + 4}}));
  }
  std::vector<std::pair<std::string, std::string>> d1;
  std::vector<std::pair<std::string, std::string>> d2;
  for (const uint64_t key : {2, 3, 5}) {
    d1.emplace_back(IK(key, 2), codec_.Encode(g1, {{1, key * 10 + 1}, {2, key * 10 + 2}}));
  }
  for (const uint64_t key : {2, 4, 5}) {
    d2.emplace_back(IK(key, 2), codec_.Encode(g2, {{3, key * 10 + 3}, {4, key * 10 + 4}}));
  }
  std::vector<LevelMergingIterator::Source> sources;
  sources.push_back(SourceOf(MakeSource(std::move(newest), all, all)));
  sources.push_back(
      SourceOf(MakeSource(std::move(d1), g1, all), MakeSource(std::move(d2), g2, all)));
  LevelMergingIterator merged(std::move(sources), all.size());

  merged.Seek(EncodeKey64(0));
  ScanBatch batch;
  batch.Reset(all.size());
  // Keys 1 and 10 have one source each and are drained from it; keys 2-5 go
  // through one run-merge window.
  ASSERT_EQ(merged.AppendRows(&batch, Slice(), 16), 6u);
  EXPECT_EQ(merged.counters().zip_rows, 4u);
  EXPECT_EQ(batch.keys, (std::vector<uint64_t>{1, 2, 3, 4, 5, 10}));
  EXPECT_EQ(Rows(batch), (std::vector<Row>{{101, 102, 103, 104},
                                            {201, 202, 203, 204},
                                            {31, 32, kNull, kNull},
                                            {kNull, kNull, 43, 44},
                                            {51, 52, 53, 54},
                                            {1001, 1002, 1003, 1004}}));
}

// A level stitched from two column groups is the only source, and its
// groups hold different keys behind the same first key. The whole range is
// one run-merge window over the two groups' cursors: each key's columns come
// from the group that holds it.
TEST_F(StitchTest, LevelMergingRunMergeStitchesSoleLevel) {
  const ColumnSet all = MakeColumnRange(1, 4);
  const ColumnSet g1 = {1, 2};
  const ColumnSet g2 = {3, 4};

  std::vector<std::pair<std::string, std::string>> d1;
  std::vector<std::pair<std::string, std::string>> d2;
  for (const uint64_t key : {2, 3, 5}) {
    d1.emplace_back(IK(key, 2),
                    codec_.Encode(g1, {{1, key * 10 + 1}, {2, key * 10 + 2}}));
  }
  for (const uint64_t key : {2, 4, 5}) {
    d2.emplace_back(IK(key, 2),
                    codec_.Encode(g2, {{3, key * 10 + 3}, {4, key * 10 + 4}}));
  }
  std::vector<LevelMergingIterator::Source> sources;
  sources.push_back(
      SourceOf(MakeSource(std::move(d1), g1, all), MakeSource(std::move(d2), g2, all)));
  LevelMergingIterator merged(std::move(sources), all.size());

  merged.Seek(EncodeKey64(0));
  ScanBatch batch;
  batch.Reset(all.size());
  ASSERT_EQ(merged.AppendRows(&batch, Slice(), 16), 4u);
  EXPECT_EQ(merged.counters().zip_rows, 4u);
  EXPECT_EQ(batch.keys, (std::vector<uint64_t>{2, 3, 4, 5}));
  EXPECT_EQ(Rows(batch), (std::vector<Row>{{21, 22, 23, 24},
                                            {31, 32, kNull, kNull},
                                            {kNull, kNull, 43, 44},
                                            {51, 52, 53, 54}}));
}

// The run merge resolves every key, including a current row that is a
// partial update or a tombstone, and every fill of one row at a time.
// Each case merges its sources (newest first; a source is one or more
// column groups of one level) over projection {1, 2, 3, 4}, and counts the
// rows the run merge emits.
TEST_F(StitchTest, RunMergeResolvesEveryKey) {
  struct Group {
    ColumnSet columns;
    std::vector<std::pair<std::string, std::string>> entries;
  };
  struct Case {
    const char* name;
    std::vector<std::vector<Group>> sources;
    bool row_cursor;
    std::vector<uint64_t> keys;
    std::vector<Row> rows;
    uint64_t zip_rows;
  };
  const ColumnSet all = MakeColumnRange(1, 4);
  const ColumnSet g1 = {1, 2};
  const ColumnSet g2 = {3, 4};
  const auto full = [this](const ColumnSet& columns, uint64_t key, SequenceNumber seq,
                           ColumnValue base) {
    std::vector<ColumnValuePair> values;
    for (const int col : columns) values.push_back({col, base + static_cast<ColumnValue>(col)});
    return std::make_pair(IK(key, seq), codec_.Encode(columns, values));
  };
  const auto deletion = [](uint64_t key) { return std::make_pair(IK(key, 9, kTypeDeletion), std::string()); };

  // Tied levels: the newest holds a partial update at key 2, a tombstone at
  // key 4 and a full row at key 5; the older one full rows for keys 1-6.
  std::vector<Group> newest = {{all,
                                {{IK(2, 9, kTypePartialRow), codec_.Encode(all, {{2, 902}})},
                                 deletion(4),
                                 full(all, 5, 9, 950)}}};
  std::vector<Group> older = {{all, {}}};
  for (uint64_t key = 1; key <= 6; ++key) older[0].entries.push_back(full(all, key, 2, key * 10));
  const std::vector<Row> tied_rows = {
      {11, 12, 13, 14}, {21, 902, 23, 24}, {31, 32, 33, 34}, {951, 952, 953, 954}, {61, 62, 63, 64}};

  // A sole level of two column groups. Group 1 lacks key 2, holds a partial
  // row at key 3 (a window from key 2 must end there: the row after it is
  // unread) and a row at key 6 that group 2 deletes; both delete key 5.
  std::vector<Group> level = {
      {g1,
       {full(g1, 1, 4, 10),
        {IK(3, 4, kTypePartialRow), codec_.Encode(g1, {{1, 31}})},
        full(g1, 4, 4, 40),
        deletion(5),
        full(g1, 6, 4, 60),
        full(g1, 7, 4, 70)}},
      {g2,
       {full(g2, 1, 4, 10), full(g2, 2, 4, 20), full(g2, 3, 4, 30), full(g2, 4, 4, 40),
        deletion(5), deletion(6), full(g2, 7, 4, 70)}}};
  const std::vector<Row> level_rows = {{11, 12, 13, 14},       {kNull, kNull, 23, 24},
                                       {31, kNull, 33, 34},    {41, 42, 43, 44},
                                       {61, 62, kNull, kNull}, {71, 72, 73, 74}};

  const std::vector<Case> cases = {
      // Keys 2 and 5 tie and emit a row each; key 4 is deleted.
      {"tie_windows", {newest, older}, false, {1, 2, 3, 5, 6}, tied_rows, 2},
      {"tie_row_cursor", {newest, older}, true, {1, 2, 3, 5, 6}, tied_rows, 2},
      {"sole_level", {level}, false, {1, 2, 3, 4, 6, 7}, level_rows, 6},
      {"sole_level_row_cursor", {level}, true, {1, 2, 3, 4, 6, 7}, level_rows, 6},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::vector<LevelMergingIterator::Source> sources;
    for (const std::vector<Group>& groups : c.sources) {
      sources.emplace_back();
      for (const Group& group : groups) {
        sources.back().push_back(MakeSource(group.entries, group.columns, all));
      }
    }
    LevelMergingIterator merged(std::move(sources), all.size());

    merged.Seek(EncodeKey64(0));
    ScanBatch batch;
    if (c.row_cursor) {
      batch = Drain(&merged, all.size());
    } else {
      batch.Reset(all.size());
      EXPECT_EQ(merged.AppendRows(&batch, Slice(), 16), c.keys.size());
      EXPECT_EQ(merged.AppendRows(&batch, Slice(), 16), 0u);
    }
    EXPECT_EQ(batch.keys, c.keys);
    EXPECT_EQ(Rows(batch), c.rows);
    EXPECT_EQ(merged.counters().zip_rows, c.zip_rows);
  }
}

TEST_F(StitchTest, LevelMergingSeek) {
  const ColumnSet all = MakeColumnRange(1, 4);
  std::vector<std::pair<std::string, std::string>> data;
  for (uint64_t k = 0; k < 10; ++k) {
    data.emplace_back(IK(k, 1),
                      codec_.Encode(all, {{1, k}, {2, 2}, {3, 3}, {4, 4}}));
  }
  std::vector<LevelMergingIterator::Source> sources;
  sources.push_back(SourceOf(MakeSource(std::move(data), all, {1})));
  LevelMergingIterator merged(std::move(sources), 1);
  merged.Seek(EncodeKey64(7));
  EXPECT_EQ(Drain(&merged, 1).keys, (std::vector<uint64_t>{7, 8, 9}));
}

}  // namespace
}  // namespace laser

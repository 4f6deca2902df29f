// RowCodec tests: presence bitmaps, partial rows, merge semantics (§4.2),
// projection for layout-changing compaction (§4.4), column-set helpers, and
// differential tests of the byte-level Merge and ProjectionPlan against a
// decode -> filter -> encode reference.

#include <gtest/gtest.h>

#include <map>

#include "laser/row_codec.h"
#include "laser/schema.h"
#include "util/random.h"

namespace laser {
namespace {

class RowCodecTest : public ::testing::Test {
 protected:
  RowCodecTest() : schema_(Schema::UniformInt32(8)), codec_(&schema_) {}

  Schema schema_;
  RowCodec codec_;
};

TEST_F(RowCodecTest, FullRowRoundTrip) {
  const ColumnSet cg = MakeColumnRange(1, 8);
  std::vector<ColumnValuePair> values;
  for (int c = 1; c <= 8; ++c) values.push_back({c, static_cast<uint64_t>(c * 11)});
  const std::string encoded = codec_.Encode(cg, values);
  EXPECT_TRUE(codec_.IsComplete(cg, Slice(encoded)));
  EXPECT_EQ(codec_.PresentCount(cg, Slice(encoded)), 8);

  std::vector<ColumnValuePair> decoded;
  ASSERT_TRUE(codec_.Decode(cg, Slice(encoded), &decoded).ok());
  EXPECT_EQ(decoded, values);
}

TEST_F(RowCodecTest, PartialRowRoundTrip) {
  const ColumnSet cg = MakeColumnRange(1, 8);
  std::vector<ColumnValuePair> values = {{2, 22}, {5, 55}};
  const std::string encoded = codec_.Encode(cg, values);
  EXPECT_FALSE(codec_.IsComplete(cg, Slice(encoded)));
  EXPECT_EQ(codec_.PresentCount(cg, Slice(encoded)), 2);

  std::vector<ColumnValuePair> decoded;
  ASSERT_TRUE(codec_.Decode(cg, Slice(encoded), &decoded).ok());
  EXPECT_EQ(decoded, values);
}

TEST_F(RowCodecTest, NarrowCgEncoding) {
  const ColumnSet cg = {3, 4, 7};
  std::vector<ColumnValuePair> values = {{3, 1}, {7, 2}};
  const std::string encoded = codec_.Encode(cg, values);
  std::vector<ColumnValuePair> decoded;
  ASSERT_TRUE(codec_.Decode(cg, Slice(encoded), &decoded).ok());
  EXPECT_EQ(decoded, values);
  // 1 bitmap byte + two 4-byte int32 values.
  EXPECT_EQ(encoded.size(), 1u + 8u);
}

TEST_F(RowCodecTest, MergeNewerWins) {
  const ColumnSet cg = MakeColumnRange(1, 8);
  const std::string older =
      codec_.Encode(cg, {{1, 10}, {2, 20}, {3, 30}});
  const std::string newer = codec_.Encode(cg, {{2, 99}, {4, 44}});
  std::string merged;
  codec_.Merge(cg, Slice(newer), Slice(older), &merged);
  std::vector<ColumnValuePair> decoded;
  ASSERT_TRUE(codec_.Decode(cg, Slice(merged), &decoded).ok());
  const std::vector<ColumnValuePair> expected = {
      {1, 10}, {2, 99}, {3, 30}, {4, 44}};
  EXPECT_EQ(decoded, expected);
}

TEST_F(RowCodecTest, MergePaperExample) {
  // §4.2: key 100 update of B,C merged with full row <a,b,c,d>.
  Schema schema = Schema::UniformInt32(4);
  RowCodec codec(&schema);
  const ColumnSet cg = MakeColumnRange(1, 4);
  const std::string full = codec.Encode(cg, {{1, 'a'}, {2, 'b'}, {3, 'c'}, {4, 'd'}});
  const std::string partial = codec.Encode(cg, {{2, 'B'}, {3, 'C'}});
  std::string merged;
  codec.Merge(cg, Slice(partial), Slice(full), &merged);
  EXPECT_TRUE(codec.IsComplete(cg, Slice(merged)));
  std::vector<ColumnValuePair> decoded;
  ASSERT_TRUE(codec.Decode(cg, Slice(merged), &decoded).ok());
  const std::vector<ColumnValuePair> expected = {
      {1, 'a'}, {2, 'B'}, {3, 'C'}, {4, 'd'}};
  EXPECT_EQ(decoded, expected);
}

TEST_F(RowCodecTest, ReprojectSelectsChildColumns) {
  const ColumnSet parent = MakeColumnRange(1, 8);
  const ColumnSet child = {3, 4};
  std::vector<ColumnValuePair> values;
  for (int c = 1; c <= 8; ++c) values.push_back({c, static_cast<uint64_t>(c)});
  const std::string encoded = codec_.Encode(parent, values);
  const std::string projected = codec_.Reproject(parent, child, Slice(encoded));
  std::vector<ColumnValuePair> decoded;
  ASSERT_TRUE(codec_.Decode(child, Slice(projected), &decoded).ok());
  const std::vector<ColumnValuePair> expected = {{3, 3}, {4, 4}};
  EXPECT_EQ(decoded, expected);
  EXPECT_TRUE(codec_.IsComplete(child, Slice(projected)));
}

TEST_F(RowCodecTest, ReprojectPartialMayBeEmpty) {
  const ColumnSet parent = MakeColumnRange(1, 8);
  const ColumnSet child = {7, 8};
  const std::string partial = codec_.Encode(parent, {{1, 1}, {2, 2}});
  const std::string projected = codec_.Reproject(parent, child, Slice(partial));
  EXPECT_EQ(codec_.PresentCount(child, Slice(projected)), 0);
}

TEST_F(RowCodecTest, FullRowSizeAccountsTypes) {
  std::vector<ColumnSpec> specs = {{"a", ColumnType::kInt32},
                                   {"b", ColumnType::kInt64},
                                   {"c", ColumnType::kDouble}};
  Schema schema(std::move(specs));
  RowCodec codec(&schema);
  // bitmap(1) + 4 + 8 + 8.
  EXPECT_EQ(codec.FullRowSize(MakeColumnRange(1, 3)), 21u);
}

TEST_F(RowCodecTest, WideValuesSurviveRoundTrip) {
  std::vector<ColumnSpec> specs = {{"a", ColumnType::kInt64},
                                   {"b", ColumnType::kDouble}};
  Schema schema(std::move(specs));
  RowCodec codec(&schema);
  const ColumnSet cg = {1, 2};
  const uint64_t big = 0xfedcba9876543210ull;
  const std::string encoded = codec.Encode(cg, {{1, big}, {2, big}});
  std::vector<ColumnValuePair> decoded;
  ASSERT_TRUE(codec.Decode(cg, Slice(encoded), &decoded).ok());
  EXPECT_EQ(decoded[0].value, big);
  EXPECT_EQ(decoded[1].value, big);
}

TEST_F(RowCodecTest, DecodeRejectsTruncatedData) {
  const ColumnSet cg = MakeColumnRange(1, 8);
  const std::string encoded = codec_.Encode(cg, {{1, 1}, {2, 2}});
  std::vector<ColumnValuePair> decoded;
  EXPECT_FALSE(
      codec_.Decode(cg, Slice(encoded.data(), encoded.size() - 3), &decoded).ok());
  EXPECT_FALSE(codec_.Decode(cg, Slice(""), &decoded).ok());
}

// Property test: merge is associative in effect — folding versions one at a
// time equals applying newest-wins per column directly.
class RowCodecMergeProperty : public ::testing::TestWithParam<int> {};

TEST_P(RowCodecMergeProperty, FoldMatchesDirectResolution) {
  Random rng(GetParam());
  Schema schema = Schema::UniformInt32(10);
  RowCodec codec(&schema);
  const ColumnSet cg = MakeColumnRange(1, 10);

  // Generate versions oldest..newest with random column subsets.
  std::vector<std::vector<ColumnValuePair>> versions;
  for (int v = 0; v < 8; ++v) {
    std::vector<ColumnValuePair> vals;
    for (int c = 1; c <= 10; ++c) {
      if (rng.OneIn(3)) {
        vals.push_back({c, rng.Next() % 1000});
      }
    }
    if (!vals.empty()) versions.push_back(std::move(vals));
  }
  if (versions.empty()) return;

  // Expected: newest-wins per column.
  std::map<int, uint64_t> expected;
  for (const auto& vals : versions) {
    for (const auto& [col, value] : vals) expected[col] = value;
  }

  // Fold encodings newest-first (as compaction does).
  std::string acc = codec.Encode(cg, versions.back());
  for (int v = static_cast<int>(versions.size()) - 2; v >= 0; --v) {
    const std::string older = codec.Encode(cg, versions[v]);
    std::string merged;
    codec.Merge(cg, Slice(acc), Slice(older), &merged);
    acc = std::move(merged);
  }

  std::vector<ColumnValuePair> decoded;
  ASSERT_TRUE(codec.Decode(cg, Slice(acc), &decoded).ok());
  ASSERT_EQ(decoded.size(), expected.size());
  for (const auto& [col, value] : decoded) {
    EXPECT_EQ(value, expected[col]) << "column " << col;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowCodecMergeProperty, ::testing::Range(0, 25));

// ------------------------------------- byte-level codec vs the reference --

// The reference semantics the byte-level paths must reproduce exactly.
std::string ReferenceReproject(const RowCodec& codec, const ColumnSet& from,
                               const ColumnSet& to, const Slice& data) {
  std::vector<ColumnValuePair> values;
  EXPECT_TRUE(codec.Decode(from, data, &values).ok());
  std::vector<ColumnValuePair> kept;
  for (const ColumnValuePair& v : values) {
    if (ColumnSetContains(to, v.column)) kept.push_back(v);
  }
  return codec.Encode(to, kept);
}

std::string ReferenceMerge(const RowCodec& codec, const ColumnSet& cg,
                           const Slice& newer, const Slice& older) {
  std::vector<ColumnValuePair> newer_values;
  std::vector<ColumnValuePair> older_values;
  EXPECT_TRUE(codec.Decode(cg, newer, &newer_values).ok());
  EXPECT_TRUE(codec.Decode(cg, older, &older_values).ok());
  std::map<int, ColumnValue> merged;
  for (const ColumnValuePair& v : older_values) merged[v.column] = v.value;
  for (const ColumnValuePair& v : newer_values) merged[v.column] = v.value;
  std::vector<ColumnValuePair> pairs;
  for (const auto& [column, value] : merged) pairs.push_back({column, value});
  return codec.Encode(cg, pairs);
}

class CodecDifferential : public ::testing::TestWithParam<int> {
 protected:
  CodecDifferential() : rng_(GetParam() + 1) {
    // 1-20 columns mixing 4- and 8-byte types.
    const int columns = static_cast<int>(rng_.Uniform(20)) + 1;
    std::vector<ColumnSpec> specs;
    for (int c = 1; c <= columns; ++c) {
      static constexpr ColumnType kTypes[] = {ColumnType::kInt32, ColumnType::kInt64,
                                              ColumnType::kFloat, ColumnType::kDouble};
      specs.push_back(
          {std::string("c").append(std::to_string(c)), kTypes[rng_.Uniform(4)]});
    }
    schema_ = Schema(std::move(specs));
    codec_ = std::make_unique<RowCodec>(&schema_);
  }

  /// `universe` with each column dropped with probability 1/drop_one_in
  /// (0 keeps every column).
  ColumnSet RandomSubset(const ColumnSet& universe, uint64_t drop_one_in) {
    ColumnSet out;
    for (const int c : universe) {
      if (drop_one_in == 0 || !rng_.OneIn(drop_one_in)) out.push_back(c);
    }
    return out;
  }

  /// A non-empty `to` set related to `from` as `relation` says.
  ColumnSet RelatedSet(const ColumnSet& from, int relation) {
    const ColumnSet all = schema_.AllColumns();
    ColumnSet out;
    switch (relation) {
      case 0:  // identical
        return from;
      case 1:  // subset
        out = RandomSubset(from, 2);
        break;
      case 2:  // superset
        for (const int c : all) {
          if (ColumnSetContains(from, c) || rng_.OneIn(2)) out.push_back(c);
        }
        break;
      case 3:  // disjoint
        for (const int c : all) {
          if (!ColumnSetContains(from, c)) out.push_back(c);
        }
        break;
      default:  // arbitrary overlap
        out = RandomSubset(all, 2);
        break;
    }
    if (out.empty()) out.push_back(all[rng_.Uniform(all.size())]);
    return out;
  }

  /// A row of `cg`: complete, partial, or with an empty presence bitmap.
  std::string RandomRow(const ColumnSet& cg, int kind) {
    std::vector<ColumnValuePair> values;
    if (kind != 2) {
      for (const int c : RandomSubset(cg, kind == 0 ? 0 : 2)) {
        values.push_back({c, rng_.Next()});
      }
    }
    return codec_->Encode(cg, values);
  }

  Random rng_;
  Schema schema_;
  std::unique_ptr<RowCodec> codec_;
};

TEST_P(CodecDifferential, PlanProjectionMatchesReference) {
  const ColumnSet all = schema_.AllColumns();
  std::string out = "stale bytes the plan must replace";
  for (int trial = 0; trial < 60; ++trial) {
    ColumnSet from = RandomSubset(all, 3);
    if (from.empty()) from = all;
    const ColumnSet to = RelatedSet(from, trial % 5);
    const ProjectionPlan plan = codec_->PlanProjection(from, to);
    EXPECT_EQ(plan.identity(), from == to);
    for (int kind = 0; kind < 3; ++kind) {
      const std::string row = RandomRow(from, kind);
      const std::string expected = ReferenceReproject(*codec_, from, to, Slice(row));
      const int present = plan.Apply(Slice(row), &out);
      ASSERT_EQ(out, expected) << "from " << ColumnSetToString(from) << " to "
                               << ColumnSetToString(to) << " kind " << kind;
      EXPECT_EQ(present, codec_->PresentCount(to, Slice(expected)));
      EXPECT_EQ(codec_->Reproject(from, to, Slice(row)), expected);
    }
  }
}

TEST_P(CodecDifferential, ByteMergeMatchesReference) {
  const ColumnSet all = schema_.AllColumns();
  std::string out = "stale bytes the merge must replace";
  for (int trial = 0; trial < 60; ++trial) {
    ColumnSet cg = RandomSubset(all, 3);
    if (cg.empty()) cg = all;
    for (int newer_kind = 0; newer_kind < 3; ++newer_kind) {
      for (int older_kind = 0; older_kind < 3; ++older_kind) {
        const std::string newer = RandomRow(cg, newer_kind);
        const std::string older = RandomRow(cg, older_kind);
        codec_->Merge(cg, Slice(newer), Slice(older), &out);
        ASSERT_EQ(out, ReferenceMerge(*codec_, cg, Slice(newer), Slice(older)))
            << "cg " << ColumnSetToString(cg) << " kinds " << newer_kind << "/"
            << older_kind;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schemas, CodecDifferential, ::testing::Range(0, 20));

TEST_F(RowCodecTest, ByteLevelPathsStopAtTruncatedValues) {
  // A value running past the end of the row ends the walk, as in Decode:
  // cutting 6 bytes loses column 8 and half of column 7.
  const ColumnSet cg = MakeColumnRange(1, 8);
  std::vector<ColumnValuePair> values;
  for (int c = 1; c <= 8; ++c) values.push_back({c, static_cast<uint64_t>(c)});
  const std::string full = codec_.Encode(cg, values);
  const Slice truncated(full.data(), full.size() - 6);

  const ColumnSet to = {2, 7, 8};
  EXPECT_EQ(codec_.Reproject(cg, to, truncated), codec_.Encode(to, {{2, 2}}));

  const std::string older = codec_.Encode(cg, {{7, 70}, {8, 80}});
  std::string merged;
  codec_.Merge(cg, truncated, Slice(older), &merged);
  values[6].value = 70;
  values[7].value = 80;
  EXPECT_EQ(merged, codec_.Encode(cg, values));
}

// ------------------------------------------------------ ColumnSet helpers --

TEST(ColumnSetTest, ContainsAndIntersect) {
  const ColumnSet a = {1, 3, 5};
  const ColumnSet b = {2, 4, 5};
  const ColumnSet c = {2, 4};
  EXPECT_TRUE(ColumnSetContains(a, 3));
  EXPECT_FALSE(ColumnSetContains(a, 2));
  EXPECT_TRUE(ColumnSetsIntersect(a, b));
  EXPECT_FALSE(ColumnSetsIntersect(a, c));
}

TEST(ColumnSetTest, Subset) {
  EXPECT_TRUE(ColumnSetIsSubset({2, 4}, {1, 2, 3, 4}));
  EXPECT_FALSE(ColumnSetIsSubset({2, 5}, {1, 2, 3, 4}));
  EXPECT_TRUE(ColumnSetIsSubset({}, {1}));
}

TEST(ColumnSetTest, Intersection) {
  const ColumnSet result = ColumnSetIntersection({1, 2, 3, 7}, {2, 3, 4, 7});
  const ColumnSet expected = {2, 3, 7};
  EXPECT_EQ(result, expected);
}

TEST(ColumnSetTest, ToStringCompactsRanges) {
  EXPECT_EQ(ColumnSetToString({1, 2, 3, 4}), "1-4");
  EXPECT_EQ(ColumnSetToString({1, 3, 5}), "1,3,5");
  EXPECT_EQ(ColumnSetToString({1, 2, 3, 7, 9, 10}), "1-3,7,9-10");
  EXPECT_EQ(ColumnSetToString({}), "");
}

TEST(ColumnSetTest, MakeColumnRange) {
  EXPECT_EQ(MakeColumnRange(3, 5), (ColumnSet{3, 4, 5}));
  EXPECT_EQ(MakeColumnRange(7, 7), (ColumnSet{7}));
}

TEST(SchemaTest, UniformInt32) {
  Schema schema = Schema::UniformInt32(30);
  EXPECT_EQ(schema.num_columns(), 30);
  EXPECT_EQ(schema.column(1).name, "a1");
  EXPECT_EQ(schema.column(30).name, "a30");
  EXPECT_EQ(schema.value_size(15), 4u);
  EXPECT_EQ(schema.AllColumns().size(), 30u);
  // dt_size: (8 + 30*4)/31.
  EXPECT_NEAR(schema.AverageDatatypeSize(), 128.0 / 31.0, 1e-9);
}

}  // namespace
}  // namespace laser

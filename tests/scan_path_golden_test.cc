// Golden test for the scan merge: what every scan route emits and how much
// work it takes.
//
// Builds a small tree deterministically on MemEnv (auto compaction off, one
// background thread) whose levels exercise every route of the scan merge:
//   - a memtable and an L0 file holding partial updates and tombstones;
//   - L1 in row format, holding a hot key range rewritten after the bulk
//     load, so scans over it tie L1 with the older levels key by key (the
//     cross-level run merge, over partial rows and tombstones too);
//   - L2 split in two column groups, one of which covers the narrow
//     projection;
//   - L3 split into width-1 and width-4 column groups (the run merge over
//     one level's column groups).
// A fixed list of scans runs over it: a narrow AggregateAll, wide NextBatch
// at batch sizes 1, 7 and 1024, a pushed-down BETWEEN, a row cursor, and
// scans confined to a cold range and to the hot range. A rolling rewrite
// then leaves every level holding a random subset of the low keys, each
// with older versions further down, and one more scan reads that
// interleaved range. Each scan's output is digested (keys, values and
// presence, FNV-1a) and checked, with the deltas of the scan-path and block
// counters it caused, against values recorded from the reference
// implementation. A refactor of the merge must leave
// this file alone: same rows, same work.

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <memory>
#include <string>
#include <vector>

#include "laser/laser_db.h"
#include "util/random.h"

namespace laser {
namespace {

constexpr int kLevels = 4;
constexpr uint64_t kBaseKeys = 3000;
constexpr uint64_t kHotLo = 1000;
constexpr uint64_t kHotHi = 1399;
constexpr uint64_t kColdLo = 2000;
constexpr uint64_t kColdHi = 2999;
constexpr uint64_t kRollingKeys = 1000;

// Columns 1-8 are int32, 9-10 int64.
Schema MixedWidthSchema() {
  std::vector<ColumnSpec> specs;
  for (int c = 1; c <= 10; ++c) {
    // Appending, not "a" + to_string(c): GCC 12 -Wrestrict false positive.
    std::string name = "a";
    name += std::to_string(c);
    specs.push_back({std::move(name), c <= 8 ? ColumnType::kInt32 : ColumnType::kInt64});
  }
  return Schema(std::move(specs));
}

CgConfig Design() {
  return CgConfig({
      {MakeColumnRange(1, 10)},
      {MakeColumnRange(1, 10)},
      {MakeColumnRange(1, 5), MakeColumnRange(6, 10)},
      {{1}, MakeColumnRange(2, 5), {6}, MakeColumnRange(7, 10)},
  });
}

class Fnv1a64 {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325;
};

/// One scan's emitted rows (digest and count) and the work it caused.
struct ScanGolden {
  std::string name;
  uint64_t rows = 0;
  uint64_t digest = 0;
  uint64_t rows_merged = 0;
  uint64_t source_advances = 0;
  uint64_t heap_resifts = 0;
  uint64_t zip_rows = 0;
  uint64_t zip_splices = 0;
  uint64_t data_block_reads = 0;
  uint64_t blocks_skipped_zonemap = 0;
  uint64_t aggs_from_zonemap = 0;

  bool operator==(const ScanGolden&) const = default;
};

void PrintTo(const ScanGolden& scan, std::ostream* os) { *os << scan.name; }

std::string ToString(const std::vector<ScanGolden>& scans) {
  std::string out;
  char line[256];
  for (const ScanGolden& s : scans) {
    std::snprintf(line, sizeof(line),
                  "      {\"%s\", %llu, 0x%016llx, %llu, %llu, %llu, %llu, %llu, "
                  "%llu, %llu, %llu},\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.rows),
                  static_cast<unsigned long long>(s.digest),
                  static_cast<unsigned long long>(s.rows_merged),
                  static_cast<unsigned long long>(s.source_advances),
                  static_cast<unsigned long long>(s.heap_resifts),
                  static_cast<unsigned long long>(s.zip_rows),
                  static_cast<unsigned long long>(s.zip_splices),
                  static_cast<unsigned long long>(s.data_block_reads),
                  static_cast<unsigned long long>(s.blocks_skipped_zonemap),
                  static_cast<unsigned long long>(s.aggs_from_zonemap));
    out += line;
  }
  return out;
}

class ScanPathGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    ASSERT_TRUE(env_->CreateDir("/db").ok());
    LaserOptions options;
    options.env = env_.get();
    options.path = "/db";
    options.schema = MixedWidthSchema();
    options.num_levels = kLevels;
    options.cg_config = Design();
    options.size_ratio = 2;
    options.write_buffer_size = 16 * 1024;
    options.level0_bytes = 16 * 1024;
    options.target_sst_size = 8 * 1024;
    options.block_size = 1024;
    options.use_wal = false;
    options.disable_auto_compactions = true;
    options.background_threads = 1;
    options.block_cache_bytes = 0;
    ASSERT_TRUE(LaserDB::Open(options, &db_).ok());
  }

  std::vector<ColumnValue> RandomRow(Random* rng) {
    std::vector<ColumnValue> row;
    for (int c = 1; c <= 10; ++c) {
      row.push_back(c <= 8 ? rng->Uniform(1u << 16) : rng->Next());
    }
    return row;
  }

  // Partial update of 1-3 random columns, or a tombstone one time in four.
  void Overlay(Random* rng, uint64_t key) {
    if (rng->OneIn(4)) {
      ASSERT_TRUE(db_->Delete(key).ok());
      return;
    }
    std::vector<ColumnValuePair> values;
    for (int c = 1; c <= 10; ++c) {
      if (rng->OneIn(4)) values.push_back({c, rng->Uniform(1u << 16)});
    }
    if (values.empty()) values.push_back({7, rng->Uniform(1u << 16)});
    ASSERT_TRUE(db_->Update(key, values).ok());
  }

  void BuildTree() {
    Random rng(19);
    // Bulk load in a scrambled key order, plus partial rows for keys that
    // never get a full row, so some deep-level rows stay partial.
    for (uint64_t i = 0; i < kBaseKeys; ++i) {
      const uint64_t key = (i * 1237) % kBaseKeys;
      ASSERT_TRUE(db_->Insert(key, RandomRow(&rng)).ok());
      if (i % 40 == 0) Overlay(&rng, kBaseKeys + i / 40);
      if ((i + 1) % 500 == 0) {
        ASSERT_TRUE(db_->CompactUntilStable().ok());
      }
    }
    // The hot range is rewritten as full rows and settles in the shallower
    // levels, above its older versions.
    for (uint64_t key = kHotLo; key <= kHotHi; ++key) {
      ASSERT_TRUE(db_->Insert(key, RandomRow(&rng)).ok());
    }
    ASSERT_TRUE(db_->CompactUntilStable().ok());
    // An L0 file and the memtable of partial updates and tombstones.
    for (int i = 0; i < 120; ++i) Overlay(&rng, rng.Uniform(kBaseKeys + 80));
    ASSERT_TRUE(db_->Flush().ok());
    for (int i = 0; i < 80; ++i) Overlay(&rng, rng.Uniform(kBaseKeys + 80));
  }

  // Rewrites [0, kRollingKeys) as full rows twice, in a scrambled key order,
  // compacting every 250 rows, so each level holds a random subset of those
  // keys over older versions of them.
  void RollingRewrite() {
    Random rng(22);
    for (uint64_t i = 0; i < 2 * kRollingKeys; ++i) {
      ASSERT_TRUE(db_->Insert((i * 331) % kRollingKeys, RandomRow(&rng)).ok());
      if ((i + 1) % 250 == 0) {
        ASSERT_TRUE(db_->CompactUntilStable().ok());
      }
    }
  }

  // The engine counters a scan is checked against, as a ScanGolden whose
  // name, rows and digest stay empty.
  ScanGolden Snapshot() {
    const Stats& s = db_->stats();
    ScanGolden c;
    c.rows_merged = s.scan_rows_merged.load();
    c.source_advances = s.scan_source_advances.load();
    c.heap_resifts = s.scan_heap_resifts.load();
    c.zip_rows = s.scan_zip_rows.load();
    c.zip_splices = s.scan_zip_splices.load();
    c.data_block_reads = s.data_block_reads.load();
    c.blocks_skipped_zonemap = s.blocks_skipped_zonemap.load();
    c.aggs_from_zonemap = s.aggs_from_zonemap.load();
    return c;
  }

  ScanGolden Finish(const std::string& name, uint64_t rows, uint64_t digest,
                    const ScanGolden& before) {
    ScanGolden scan = Snapshot();
    scan.name = name;
    scan.rows = rows;
    scan.digest = digest;
    scan.rows_merged -= before.rows_merged;
    scan.source_advances -= before.source_advances;
    scan.heap_resifts -= before.heap_resifts;
    scan.zip_rows -= before.zip_rows;
    scan.zip_splices -= before.zip_splices;
    scan.data_block_reads -= before.data_block_reads;
    scan.blocks_skipped_zonemap -= before.blocks_skipped_zonemap;
    scan.aggs_from_zonemap -= before.aggs_from_zonemap;
    return scan;
  }

  ScanGolden BatchScan(const std::string& name, uint64_t lo, uint64_t hi,
                       const ColumnSet& projection, size_t batch_rows,
                       ScanSpec spec = {}) {
    const ScanGolden before = Snapshot();
    Fnv1a64 fnv;
    uint64_t rows = 0;
    {
      auto scan = db_->NewScan(lo, hi, projection, std::move(spec));
      EXPECT_NE(scan, nullptr);
      ScanBatch batch;
      while (scan->NextBatch(&batch, batch_rows) > 0) {
        for (size_t r = 0; r < batch.size(); ++r) {
          fnv.Add(batch.keys[r]);
          for (const ScanBatch::Column& column : batch.columns) {
            fnv.Add(column.present[r]);
            fnv.Add(column.present[r] != 0 ? column.values[r] : 0);
          }
        }
        rows += batch.size();
      }
      EXPECT_TRUE(scan->status().ok());
    }
    return Finish(name, rows, fnv.value(), before);
  }

  ScanGolden RowScan(const std::string& name, uint64_t lo, uint64_t hi,
                     const ColumnSet& projection) {
    const ScanGolden before = Snapshot();
    Fnv1a64 fnv;
    uint64_t rows = 0;
    {
      auto scan = db_->NewScan(lo, hi, projection);
      EXPECT_NE(scan, nullptr);
      for (; scan->Valid(); scan->Next()) {
        fnv.Add(scan->key());
        for (const auto& value : scan->values()) {
          fnv.Add(value.has_value() ? 1 : 0);
          fnv.Add(value.value_or(0));
        }
        ++rows;
      }
      EXPECT_TRUE(scan->status().ok());
    }
    return Finish(name, rows, fnv.value(), before);
  }

  ScanGolden AggregateScan(const std::string& name, uint64_t lo, uint64_t hi,
                           const ColumnSet& projection) {
    const ScanGolden before = Snapshot();
    Fnv1a64 fnv;
    ScanAggregates aggs;
    {
      auto scan = db_->NewScan(lo, hi, projection);
      EXPECT_NE(scan, nullptr);
      EXPECT_TRUE(scan->AggregateAll(&aggs).ok());
    }
    for (size_t i = 0; i < aggs.counts.size(); ++i) {
      fnv.Add(aggs.counts[i]);
      fnv.Add(aggs.sums[i]);
      fnv.Add(aggs.minima[i]);
      fnv.Add(aggs.maxima[i]);
    }
    return Finish(name, aggs.rows, fnv.value(), before);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<LaserDB> db_;
};

TEST_F(ScanPathGoldenTest, ScansMatchReference) {
  BuildTree();
  const ColumnSet narrow = {2, 3};
  const ColumnSet wide = MakeColumnRange(1, 10);
  const uint64_t last = kBaseKeys + 100;
  ScanSpec between;
  between.predicates.push_back({7, PredOp::kBetween, 1000, 12000});

  std::vector<ScanGolden> actual;
  actual.push_back(AggregateScan("agg_narrow", 0, last, narrow));
  actual.push_back(BatchScan("wide_1", 0, last, wide, 1));
  actual.push_back(BatchScan("wide_7", 0, last, wide, 7));
  actual.push_back(BatchScan("wide_1024", 0, last, wide, 1024));
  actual.push_back(BatchScan("between", 0, last, {1, 7, 8}, 1024, std::move(between)));
  actual.push_back(RowScan("row_cursor", 0, last, {1, 4, 6, 9}));
  actual.push_back(BatchScan("cg_split", kColdLo, kColdHi, {1, 2, 6, 7, 9}, 1024));
  actual.push_back(BatchScan("tied_levels", kHotLo, kHotHi, wide, 1024));
  RollingRewrite();
  actual.push_back(
      BatchScan("interleaved", 0, kRollingKeys - 1, {2, 3, 6, 7, 9}, 1024));

  // Both kinds of run-merge window must carry rows: a sole level stitched
  // from L3's column groups, and the hot range tied across levels.
  EXPECT_GT(actual[6].zip_rows, 0u) << db_->DebugString();
  EXPECT_GT(actual[7].zip_rows, 0u) << db_->DebugString();

  // agg_narrow's row count is the rows a NextBatch scan of the same range
  // emits: a block holding rows with no projected value is decoded, not
  // folded from its zone map.
  const std::vector<ScanGolden> expected = {
      {"agg_narrow", 2976, 0xaa7c03b62aa652c5, 2973, 3544, 978, 456, 77, 127, 1, 1},
      {"wide_1", 3013, 0xb494e7cc325e860c, 3013, 11381, 2436, 3013, 3013, 346, 0, 0},
      {"wide_7", 3013, 0xb494e7cc325e860c, 3013, 11381, 1206, 3013, 1429, 346, 0, 0},
      {"wide_1024", 3013, 0xb494e7cc325e860c, 3013, 11381, 974, 3013, 1126, 346, 0, 0},
      {"between", 481, 0xf8faf3cba42c67a3, 2996, 6616, 946, 2995, 1054, 227, 0, 0},
      {"row_cursor", 2996, 0x9d28be49eab384d4, 2996, 11282, 971, 2995, 1078, 346, 0, 0},
      {"cg_split", 983, 0x70b33b7d63679c3b, 983, 3543, 429, 983, 471, 112, 0, 0},
      {"tied_levels", 394, 0x4ed1d1a725ecb467, 394, 1906, 0, 394, 24, 79, 0, 0},
      {"interleaved", 1000, 0xc0283c23e8846338, 1000, 4933, 0, 1000, 8, 180, 0, 0},
  };
  EXPECT_EQ(actual, expected) << "actual scans:\n" << ToString(actual);
}

}  // namespace
}  // namespace laser

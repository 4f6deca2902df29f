// Byte-identity golden test for flush, CG compaction and design morphing.
//
// Builds a small tree deterministically on MemEnv (auto compaction off, one
// background thread): row-format L0 runs fanned out into column groups of
// width 1 and 4 over mixed 4- and 8-byte columns (L3 also splits a group
// into non-adjacent columns), partial-row updates, tombstones, then one
// morph that changes L1's partition. Every live SST's bytes are
// digested per (level, group, file index) and checked, together with the
// engine's bytes_compacted counter, against values recorded from the
// reference implementation, once before the morph (overflow work alone) and
// once at the end (recorded when a morph became one job over every run
// below L0). Any change to the bytes compaction writes — a
// reordered value, a different presence bitmap, a block cut elsewhere —
// fails here; speed-ups of the compaction path must leave this file alone.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "laser/laser_db.h"
#include "lsm/file_meta.h"
#include "util/random.h"

namespace laser {
namespace {

constexpr int kLevels = 4;
constexpr uint64_t kKeySpace = 1500;

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

CgConfig InitialDesign() {
  return CgConfig({
      {MakeColumnRange(1, 10)},
      {MakeColumnRange(1, 4), {5}, MakeColumnRange(6, 9), {10}},
      {{1}, MakeColumnRange(2, 4), {5}, MakeColumnRange(6, 9), {10}},
      {{1}, {2}, {3, 4}, {5}, {6, 8}, {7, 9}, {10}},
  });
}

// Changes L1 only: its width-4 and width-1 groups merge into two width-5
// ones. The morph still rewrites every run below L0.
CgConfig MorphedDesign() {
  return CgConfig({
      {MakeColumnRange(1, 10)},
      {MakeColumnRange(1, 5), MakeColumnRange(6, 10)},
      {{1}, MakeColumnRange(2, 4), {5}, MakeColumnRange(6, 9), {10}},
      {{1}, {2}, {3, 4}, {5}, {6, 8}, {7, 9}, {10}},
  });
}

uint64_t Fnv1a64(const std::string& data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char ch : data) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// One column group's run: its file count, total bytes, and an FNV-1a
/// chain over (file index, file size, digest of the file's bytes).
struct GroupDigest {
  int level;
  int group;
  int files;
  uint64_t bytes;
  uint64_t fnv;

  bool operator==(const GroupDigest&) const = default;
};

std::string ToString(const std::vector<GroupDigest>& groups) {
  std::string out;
  char line[128];
  for (const GroupDigest& g : groups) {
    std::snprintf(line, sizeof(line), "      {%d, %d, %d, %llu, 0x%016llxull},\n",
                  g.level, g.group, g.files, static_cast<unsigned long long>(g.bytes),
                  static_cast<unsigned long long>(g.fnv));
    out += line;
  }
  return out;
}

class CompactionGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    ASSERT_TRUE(env_->CreateDir("/db").ok());
    LaserOptions options;
    options.env = env_.get();
    options.path = "/db";
    options.schema = MixedWidthSchema();
    options.num_levels = kLevels;
    options.cg_config = InitialDesign();
    options.size_ratio = 2;
    options.write_buffer_size = 16 * 1024;
    options.level0_bytes = 24 * 1024;
    options.target_sst_size = 8 * 1024;
    options.block_size = 1024;
    options.use_wal = false;
    options.disable_auto_compactions = true;
    options.background_threads = 1;
    options.block_cache_bytes = 0;
    ASSERT_TRUE(LaserDB::Open(options, &db_).ok());
  }

  // Deterministic mixed write stream: 70% full-row inserts, 22% partial
  // updates of 1-4 random columns, 8% deletes, a flush every 250 ops and a
  // compaction to stability every 1000.
  void WriteOps(Random* rng, int ops) {
    for (int i = 0; i < ops; ++i) {
      const uint64_t key = rng->Uniform(kKeySpace);
      const uint64_t dice = rng->Uniform(100);
      if (dice < 70) {
        std::vector<ColumnValue> row;
        for (int c = 1; c <= 10; ++c) {
          row.push_back(c <= 8 ? rng->Uniform(1u << 20) : rng->Next());
        }
        ASSERT_TRUE(db_->Insert(key, row).ok());
      } else if (dice < 92) {
        std::vector<ColumnValuePair> values;
        for (int c = 1; c <= 10; ++c) {
          if (rng->OneIn(4)) {
            values.push_back({c, c <= 8 ? rng->Uniform(1u << 20) : rng->Next()});
          }
        }
        if (values.empty()) values.push_back({5, rng->Uniform(1000)});
        ASSERT_TRUE(db_->Update(key, values).ok());
      } else {
        ASSERT_TRUE(db_->Delete(key).ok());
      }
      if ((i + 1) % 250 == 0) {
        ASSERT_TRUE(db_->Flush().ok());
      }
      if ((i + 1) % 1000 == 0) {
        ASSERT_TRUE(db_->CompactUntilStable().ok());
      }
    }
  }

  std::vector<GroupDigest> DigestTree() {
    std::vector<GroupDigest> out;
    const auto version = db_->current_version();
    for (int level = 0; level < version->num_levels(); ++level) {
      for (int group = 0; group < version->num_groups(level); ++group) {
        const Version::FileList& files = version->files(level, group);
        GroupDigest digest{level, group, static_cast<int>(files.size()), 0, 0};
        std::string chain;
        for (size_t i = 0; i < files.size(); ++i) {
          std::string bytes;
          EXPECT_TRUE(env_->ReadFileToString(
                              "/db/" + SstFileName(files[i]->file_number), &bytes)
                          .ok());
          digest.bytes += bytes.size();
          chain += std::to_string(i) + ":" + std::to_string(bytes.size()) + ":" +
                   std::to_string(Fnv1a64(bytes)) + ";";
        }
        digest.fnv = Fnv1a64(chain);
        out.push_back(digest);
      }
    }
    return out;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<LaserDB> db_;
};

TEST_F(CompactionGoldenTest, OutputBytesMatchReference) {
  Random rng(16);
  WriteOps(&rng, 6000);
  ASSERT_TRUE(db_->CompactUntilStable().ok());

  // Checkpoint before the morph: overflow work alone built this tree.
  const std::vector<GroupDigest> expected_before_morph = {
      {0, 0, 0, 0, 0xcbf29ce484222325ull},
      {1, 0, 3, 13646, 0x203adbc5b72a9b79ull},
      {1, 1, 2, 6281, 0xafeee9a9a9311ba6ull},
      {1, 2, 3, 14038, 0x6e4c27db644e5a60ull},
      {1, 3, 2, 6760, 0x5f49ba9dd136780aull},
      {2, 0, 4, 13691, 0x360957d0ae927f78ull},
      {2, 1, 7, 22055, 0xe390db1bf27bdb7cull},
      {2, 2, 4, 12407, 0x801a7e068f37b718ull},
      {2, 3, 8, 30293, 0xa3c32568e8a5a26bull},
      {2, 4, 5, 18598, 0x2fa06d026d39e197ull},
      {3, 0, 7, 24946, 0xfbd1a44021f1c53aull},
      {3, 1, 7, 23326, 0xdc808b793f82e872ull},
      {3, 2, 7, 28846, 0xa8f5fb9e4192317full},
      {3, 3, 8, 25270, 0x41d188a89831186full},
      {3, 4, 11, 30473, 0xebd80dc777566b73ull},
      {3, 5, 11, 35638, 0xdbcff7ca083f2376ull},
      {3, 6, 8, 30488, 0x2d7ba23953bc5539ull},
  };
  const std::vector<GroupDigest> before_morph = DigestTree();
  EXPECT_EQ(before_morph, expected_before_morph)
      << "actual tree before the morph:\n" << ToString(before_morph);
  EXPECT_EQ(db_->stats().bytes_compacted.load(), 1485724u);

  // One morph, then more writes through the new layout.
  ASSERT_TRUE(db_->SetTargetDesign(MorphedDesign()).ok());
  ASSERT_TRUE(db_->CompactUntilStable().ok());
  EXPECT_EQ(db_->stats().design_morph_compactions.load(), 1u);
  EXPECT_EQ(db_->CurrentDesign(), MorphedDesign());
  WriteOps(&rng, 2000);
  ASSERT_TRUE(db_->CompactUntilStable().ok());

  const std::vector<GroupDigest> expected = {
      {0, 0, 0, 0, 0xcbf29ce484222325ull},
      {1, 0, 5, 21918, 0xa07723b1688fa6b6ull},
      {1, 1, 5, 25042, 0x97874c204c624f32ull},
      {2, 0, 4, 10636, 0xfade5259c234e744ull},
      {2, 1, 4, 15216, 0xcffba77751811693ull},
      {2, 2, 4, 10647, 0x2e68158281b54f16ull},
      {2, 3, 5, 21058, 0x7e3e74dd718697dcull},
      {2, 4, 5, 13520, 0x621a54b879becaa1ull},
      {3, 0, 6, 27868, 0x096b5de6bd3abb27ull},
      {3, 1, 6, 27746, 0xa2c768e89335913bull},
      {3, 2, 8, 34181, 0x66b2fbef485c1dc1ull},
      {3, 3, 6, 28006, 0x7a9f347326676738ull},
      {3, 4, 8, 34453, 0x7630374ce1a404c0ull},
      {3, 5, 9, 41017, 0x60baa01f345ead8dull},
      {3, 6, 8, 34221, 0x7a4e48d59764ea16ull},
  };
  const std::vector<GroupDigest> actual = DigestTree();
  EXPECT_EQ(actual, expected) << "actual tree:\n" << ToString(actual);
  EXPECT_EQ(db_->stats().bytes_compacted.load(), 1923645u);
}

}  // namespace
}  // namespace laser

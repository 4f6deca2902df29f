// SST layer tests: block builder/reader delta encoding, bloom filters,
// builder/reader round trips, compression, block cache, properties.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <optional>
#include <string>

#include "laser/scan_pushdown.h"
#include "lsm/dbformat.h"
#include "lsm/file_meta.h"
#include "lsm/run_iterator.h"
#include "sst/block.h"
#include "sst/block_builder.h"
#include "sst/block_cache.h"
#include "sst/bloom.h"
#include "sst/sst_builder.h"
#include "sst/sst_reader.h"
#include "util/coding.h"
#include "util/random.h"

namespace laser {
namespace {

std::string IKey(uint64_t user, SequenceNumber seq,
                 ValueType type = kTypeFullRow) {
  return MakeInternalKey(EncodeKey64(user), seq, type);
}

// ----------------------------------------------------------------- Block --

TEST(BlockTest, BuildAndScan) {
  BlockBuilder builder(4);
  std::vector<std::pair<std::string, std::string>> entries;
  for (uint64_t i = 0; i < 100; ++i) {
    entries.emplace_back(IKey(i * 3, 1), "value" + std::to_string(i));
  }
  for (const auto& [k, v] : entries) builder.Add(k, v);
  Block block(builder.Finish().ToString());

  auto iter = block.NewIterator();
  iter->SeekToFirst();
  for (const auto& [k, v] : entries) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(iter->key().ToString(), k);
    EXPECT_EQ(iter->value().ToString(), v);
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, SeekFindsLowerBound) {
  BlockBuilder builder(16);
  for (uint64_t i = 10; i <= 100; i += 10) {
    builder.Add(IKey(i, 5), std::to_string(i));
  }
  Block block(builder.Finish().ToString());
  auto iter = block.NewIterator();

  iter->Seek(IKey(35, kMaxSequenceNumber));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value().ToString(), "40");

  // Seek with a high sequence number lands on the entry itself.
  iter->Seek(MakeLookupKey(EncodeKey64(40), kMaxSequenceNumber));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(iter->value().ToString(), "40");

  // Seeking beyond the end invalidates.
  iter->Seek(IKey(1000, kMaxSequenceNumber));
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, RestartIntervalOneDisablesSharing) {
  // With interval 1 every key is stored in full; the block must still work.
  BlockBuilder builder(1);
  for (uint64_t i = 0; i < 50; ++i) builder.Add(IKey(i, 1), "v");
  Block block(builder.Finish().ToString());
  auto iter = block.NewIterator();
  iter->Seek(IKey(25, kMaxSequenceNumber));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), EncodeKey64(25));
}

TEST(BlockTest, DeltaEncodingShrinksSharedPrefixKeys) {
  // Sequential big-endian keys share long prefixes: delta encoding should
  // clearly beat interval 1.
  BlockBuilder delta(16);
  BlockBuilder plain(1);
  for (uint64_t i = 0; i < 500; ++i) {
    delta.Add(IKey(1000000 + i, 1), "x");
    plain.Add(IKey(1000000 + i, 1), "x");
  }
  EXPECT_LT(delta.Finish().size(), plain.Finish().size() * 8 / 10);
}

TEST(BlockTest, EmptyBlockYieldsInvalidIterator) {
  BlockBuilder builder(16);
  Block block(builder.Finish().ToString());
  auto iter = block.NewIterator();
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, MalformedBlockReportsCorruption) {
  Block block(std::string("ab"));  // too short for restart trailer
  auto iter = block.NewIterator();
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
  EXPECT_FALSE(iter->status().ok());
}

// ----------------------------------------------------------------- Bloom --

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  for (uint64_t i = 0; i < 2000; ++i) {
    builder.AddKey(EncodeKey64(i * 7));
  }
  const std::string data = builder.Finish();
  BloomFilterReader reader((Slice(data)));
  for (uint64_t i = 0; i < 2000; ++i) {
    EXPECT_TRUE(reader.KeyMayMatch(EncodeKey64(i * 7))) << i;
  }
}

TEST(BloomTest, FalsePositiveRateNearOnePercent) {
  BloomFilterBuilder builder(10);
  for (uint64_t i = 0; i < 10000; ++i) builder.AddKey(EncodeKey64(i));
  const std::string data = builder.Finish();
  BloomFilterReader reader((Slice(data)));
  int false_positives = 0;
  const int probes = 10000;
  for (int i = 0; i < probes; ++i) {
    if (reader.KeyMayMatch(EncodeKey64(1000000 + i))) ++false_positives;
  }
  const double fpr = static_cast<double>(false_positives) / probes;
  EXPECT_LT(fpr, 0.025) << "fpr=" << fpr;  // ~1% expected at 10 bits/key
}

TEST(BloomTest, EmptyFilterBehavesSafely) {
  BloomFilterBuilder builder(10);
  const std::string data = builder.Finish();
  BloomFilterReader reader((Slice(data)));
  EXPECT_FALSE(reader.KeyMayMatch(EncodeKey64(1)));
}

// Tail compaction outputs produce 0/1/2-key files; after the 64-bit floor
// their real density is 32-64 bits/key, and the probe count must come from
// that density, not the nominal budget, or the tiny filter is degenerate.
TEST(BloomTest, TinyFiltersKeepNoFalseNegativesAndRejectWell) {
  for (int keys = 0; keys <= 2; ++keys) {
    BloomFilterBuilder builder(10);
    for (int i = 0; i < keys; ++i) builder.AddKey(EncodeKey64(i * 977 + 5));
    const std::string data = builder.Finish();
    ASSERT_GE(data.size(), 9u) << keys;  // 64-bit floor + probe byte
    const int probes = static_cast<unsigned char>(data.back());
    // 64 bits over <= 2 keys supports a dense probe schedule; the nominal
    // k=7 of "10 bits/key" would waste the padding.
    EXPECT_GE(probes, keys == 0 ? 1 : 7) << keys;
    EXPECT_LE(probes, 30) << keys;

    BloomFilterReader reader((Slice(data)));
    for (int i = 0; i < keys; ++i) {
      EXPECT_TRUE(reader.KeyMayMatch(EncodeKey64(i * 977 + 5))) << keys;
    }
    int false_positives = 0;
    // Spread probes (see EmpiricalFprTracksTheoryAcrossBitsPerKey): what the
    // floor must guarantee is rejection of generic absent keys, not of the
    // clustered images the avalanche-free hash gives sequential ones.
    for (uint64_t i = 0; i < 2000; ++i) {
      const uint64_t probe = i * 0x9e3779b97f4a7c15ull + 0x55ull;
      if (reader.KeyMayMatch(EncodeKey64(probe))) ++false_positives;
    }
    // At >= 32 effective bits/key a 64-slot table rejects ~99% even though
    // the arithmetic-progression probe chains keep it far from theory.
    EXPECT_LT(false_positives, keys == 0 ? 1 : 40) << keys;
  }
}

TEST(BloomTest, ZeroBitsBuildsNoFilter) {
  BloomFilterBuilder builder(0.0);
  for (uint64_t i = 0; i < 100; ++i) builder.AddKey(EncodeKey64(i));
  EXPECT_TRUE(builder.Finish().empty());
  // And the reader treats the missing filter conservatively.
  BloomFilterReader reader((Slice()));
  EXPECT_TRUE(reader.KeyMayMatch(EncodeKey64(1)));
}

// Measured FPR within 2x of the theoretical 0.6185^bits for fractional and
// integer allocations — the solver's closed form assumes this curve holds.
TEST(BloomTest, EmpiricalFprTracksTheoryAcrossBitsPerKey) {
  const uint64_t kKeys = 10000;
  const uint64_t kProbes = 120000;
  // Golden-ratio stride spreads keys over the 64-bit space. Sequential keys
  // cluster under the avalanche-free seed hash (measured FPR lands BELOW
  // theory at some table sizes), which would make this comparison measure
  // the hash, not the filter.
  const uint64_t kStride = 0x9e3779b97f4a7c15ull;
  for (const double bits : {4.0, 6.5, 10.0, 14.0}) {
    BloomFilterBuilder builder(bits);
    for (uint64_t i = 0; i < kKeys; ++i) {
      builder.AddKey(EncodeKey64(i * kStride));
    }
    const std::string data = builder.Finish();
    BloomFilterReader reader((Slice(data)));
    int false_positives = 0;
    for (uint64_t i = 0; i < kProbes; ++i) {
      if (reader.KeyMayMatch(EncodeKey64(i * kStride + 0x1234567ull))) {
        ++false_positives;
      }
    }
    const double fpr = static_cast<double>(false_positives) / kProbes;
    const double theory = std::exp(-bits * 0.4804530139182014);  // 0.6185^bits
    EXPECT_LT(fpr, theory * 2.0) << "bits=" << bits << " fpr=" << fpr;
    EXPECT_GT(fpr, theory / 2.0) << "bits=" << bits << " fpr=" << fpr;
  }
}

// ------------------------------------------------------------ SST files --

class SstTest : public ::testing::TestWithParam<CompressionType> {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }

  /// Builds an SST of `n` sequential keys; returns the reader.
  std::unique_ptr<SstReader> BuildAndOpen(int n, BlockCache* cache = nullptr) {
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_->NewWritableFile("/test.sst", &file).ok());
    SstBuildOptions options;
    options.block_size = 512;  // force many blocks
    options.compression = GetParam();
    SstBuilder builder(options, std::move(file));
    for (int i = 0; i < n; ++i) {
      builder.Add(IKey(i * 2, i + 1), "value-" + std::to_string(i));
    }
    EXPECT_TRUE(builder.Finish().ok());
    std::unique_ptr<SstReader> reader;
    EXPECT_TRUE(
        SstReader::Open(env_.get(), "/test.sst", 1, cache, &stats_, &reader).ok());
    return reader;
  }

  std::unique_ptr<Env> env_;
  Stats stats_;
};

TEST_P(SstTest, FullScanSeesEveryEntry) {
  auto reader = BuildAndOpen(1000);
  auto iter = reader->NewIterator();
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    EXPECT_EQ(ExtractUserKey(iter->key()).ToString(),
              EncodeKey64(count * 2));
    EXPECT_EQ(iter->value().ToString(), "value-" + std::to_string(count));
    ++count;
  }
  EXPECT_TRUE(iter->status().ok());
  EXPECT_EQ(count, 1000);
}

TEST_P(SstTest, PointGetFindsExistingKeys) {
  auto reader = BuildAndOpen(1000);
  for (int i : {0, 1, 499, 998, 999}) {
    std::vector<KeyVersion> versions;
    ASSERT_TRUE(
        reader->Get(EncodeKey64(i * 2), kMaxSequenceNumber, &versions))
        << i;
    ASSERT_EQ(versions.size(), 1u);
    EXPECT_EQ(versions[0].value, "value-" + std::to_string(i));
    EXPECT_EQ(versions[0].sequence, static_cast<SequenceNumber>(i + 1));
  }
}

TEST_P(SstTest, PointGetMissesAbsentKeys) {
  auto reader = BuildAndOpen(1000);
  for (int i : {1, 3, 777}) {  // odd keys were never inserted
    std::vector<KeyVersion> versions;
    EXPECT_FALSE(reader->Get(EncodeKey64(i), kMaxSequenceNumber, &versions));
  }
}

TEST_P(SstTest, SeekPositionsAtLowerBound) {
  auto reader = BuildAndOpen(100);
  auto iter = reader->NewIterator();
  iter->Seek(MakeLookupKey(EncodeKey64(51), kMaxSequenceNumber));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(ExtractUserKey(iter->key()).ToString(), EncodeKey64(52));
}

TEST_P(SstTest, PropertiesRecorded) {
  auto reader = BuildAndOpen(500);
  EXPECT_EQ(reader->properties().num_entries, 500u);
  EXPECT_EQ(reader->properties().smallest_seq, 1u);
  EXPECT_EQ(reader->properties().largest_seq, 500u);
}

TEST_P(SstTest, MultipleVersionsOfKeyReturnedNewestFirst) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_->NewWritableFile("/test.sst", &file).ok());
  SstBuildOptions multi_options;
  multi_options.compression = GetParam();
  SstBuilder builder(multi_options, std::move(file));
  // Internal key order: same user key, descending seq.
  builder.Add(IKey(5, 30, kTypePartialRow), "p30");
  builder.Add(IKey(5, 20, kTypePartialRow), "p20");
  builder.Add(IKey(5, 10, kTypeFullRow), "f10");
  builder.Add(IKey(5, 5, kTypeFullRow), "f5");
  ASSERT_TRUE(builder.Finish().ok());
  std::unique_ptr<SstReader> reader;
  ASSERT_TRUE(
      SstReader::Open(env_.get(), "/test.sst", 1, nullptr, nullptr, &reader).ok());

  std::vector<KeyVersion> versions;
  ASSERT_TRUE(reader->Get(EncodeKey64(5), kMaxSequenceNumber, &versions));
  ASSERT_EQ(versions.size(), 3u);  // stops at the first full row
  EXPECT_EQ(versions[0].value, "p30");
  EXPECT_EQ(versions[1].value, "p20");
  EXPECT_EQ(versions[2].value, "f10");

  // Snapshot at 15: the partials above are invisible.
  versions.clear();
  ASSERT_TRUE(reader->Get(EncodeKey64(5), 15, &versions));
  ASSERT_EQ(versions.size(), 1u);
  EXPECT_EQ(versions[0].value, "f10");
}

TEST_P(SstTest, BlockCacheServesRepeatReads) {
  BlockCache cache(1 << 20);
  auto reader = BuildAndOpen(1000, &cache);
  std::vector<KeyVersion> versions;
  reader->Get(EncodeKey64(500), kMaxSequenceNumber, &versions);
  const uint64_t misses_before = stats_.block_cache_misses.load();
  const uint64_t reads_before = stats_.data_block_reads.load();
  versions.clear();
  reader->Get(EncodeKey64(500), kMaxSequenceNumber, &versions);
  EXPECT_EQ(stats_.block_cache_misses.load(), misses_before);
  EXPECT_EQ(stats_.data_block_reads.load(), reads_before);  // served by cache
  EXPECT_GT(stats_.block_cache_hits.load(), 0u);
}

TEST_P(SstTest, BloomSkipsAbsentKeyWithoutBlockRead) {
  auto reader = BuildAndOpen(1000);
  const uint64_t reads_before = stats_.data_block_reads.load();
  std::vector<KeyVersion> versions;
  // Probe many absent keys: nearly all should be bloom-rejected.
  int block_reads = 0;
  for (int i = 0; i < 200; ++i) {
    reader->Get(EncodeKey64(10000000 + i), kMaxSequenceNumber, &versions);
  }
  block_reads = static_cast<int>(stats_.data_block_reads.load() - reads_before);
  EXPECT_LT(block_reads, 20);  // ~1% fpr
  EXPECT_GT(stats_.bloom_negatives.load(), 180u);
}

TEST_P(SstTest, ZeroFilterBitsOmitsFilterBlock) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_->NewWritableFile("/test.sst", &file).ok());
  SstBuildOptions options;
  options.block_size = 512;
  options.compression = GetParam();
  options.bloom_bits_per_key = 0;  // past the Monkey crossover: no filter
  SstBuilder builder(options, std::move(file));
  for (int i = 0; i < 500; ++i) {
    builder.Add(IKey(i * 2, i + 1), "value-" + std::to_string(i));
  }
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(builder.properties().filter_bytes, 0u);

  std::unique_ptr<SstReader> reader;
  ASSERT_TRUE(
      SstReader::Open(env_.get(), "/test.sst", 1, nullptr, &stats_, &reader).ok());
  EXPECT_EQ(reader->filter_bytes(), 0u);
  EXPECT_EQ(reader->properties().filter_bytes, 0u);

  // No filter: absent keys pass the (absent) filter and probe blocks...
  EXPECT_TRUE(reader->KeyMayMatch(EncodeKey64(999999)));
  std::vector<KeyVersion> versions;
  EXPECT_FALSE(reader->Get(EncodeKey64(999999), kMaxSequenceNumber, &versions));
  // ...and are not counted as filter checks.
  EXPECT_EQ(stats_.bloom_checks.load(), 0u);

  // Existing keys still resolve (both Get overloads).
  ASSERT_TRUE(reader->Get(EncodeKey64(10), kMaxSequenceNumber, &versions));
  versions.clear();
  FilterOutcome outcome;
  ASSERT_TRUE(reader->Get(EncodeKey64(10), BloomKeyHash(EncodeKey64(10)),
                          kMaxSequenceNumber, &versions, &outcome));
  EXPECT_EQ(outcome, FilterOutcome::kNoFilter);
}

TEST_P(SstTest, HashGetOverloadMatchesSliceGet) {
  auto reader = BuildAndOpen(1000);
  EXPECT_GT(reader->filter_bytes(), 0u);
  EXPECT_EQ(reader->properties().filter_bytes, reader->filter_bytes());
  for (int i : {0, 2, 998, 1001, 777}) {
    const std::string key = EncodeKey64(i);
    std::vector<KeyVersion> a, b;
    FilterOutcome outcome;
    const bool via_slice = reader->Get(key, kMaxSequenceNumber, &a);
    const bool via_hash =
        reader->Get(key, BloomKeyHash(key), kMaxSequenceNumber, &b, &outcome);
    EXPECT_EQ(via_slice, via_hash) << i;
    EXPECT_EQ(a.size(), b.size()) << i;
    if (via_hash) {
      EXPECT_EQ(outcome, FilterOutcome::kPass) << i;
    }
  }
  // The hash overload must not bump the reader's own stats: the caller
  // attributes probes per level.
  const uint64_t checks_before = stats_.bloom_checks.load();
  std::vector<KeyVersion> versions;
  FilterOutcome outcome;
  const std::string absent = EncodeKey64(123456789);
  reader->Get(absent, BloomKeyHash(absent), kMaxSequenceNumber, &versions,
              &outcome);
  EXPECT_EQ(stats_.bloom_checks.load(), checks_before);
  // And the prefetch hint is safe to issue for any hash.
  reader->PrefetchFilterProbes(BloomKeyHash(absent));
}

TEST_P(SstTest, CorruptedBlockDetected) {
  BuildAndOpen(1000);
  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString("/test.sst", &contents).ok());
  contents[100] ^= 0xff;  // corrupt the first data block
  ASSERT_TRUE(env_->WriteStringToFile(Slice(contents), "/test.sst").ok());
  std::unique_ptr<SstReader> reader;
  ASSERT_TRUE(
      SstReader::Open(env_.get(), "/test.sst", 2, nullptr, nullptr, &reader).ok());
  auto iter = reader->NewIterator();
  iter->SeekToFirst();
  // Either invalid immediately or an error status during the scan.
  while (iter->Valid()) iter->Next();
  EXPECT_FALSE(iter->status().ok());
}

INSTANTIATE_TEST_SUITE_P(Compression, SstTest,
                         ::testing::Values(CompressionType::kNone,
                                           CompressionType::kLightLZ),
                         [](const auto& info) {
                           return info.param == CompressionType::kNone
                                      ? "NoCompression"
                                      : "LightLZ";
                         });

TEST(SstSizeTest, CompressionShrinksFile) {
  auto env = NewMemEnv();
  uint64_t sizes[2];
  int idx = 0;
  for (CompressionType type :
       {CompressionType::kNone, CompressionType::kLightLZ}) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env->NewWritableFile("/z.sst", &file).ok());
    SstBuildOptions options;
    options.compression = type;
    SstBuilder builder(options, std::move(file));
    for (uint64_t i = 0; i < 5000; ++i) {
      builder.Add(IKey(i, i + 1), std::string(40, static_cast<char>('a' + i % 3)));
    }
    ASSERT_TRUE(builder.Finish().ok());
    sizes[idx++] = builder.FileSize();
  }
  EXPECT_LT(sizes[1], sizes[0] * 7 / 10);
}

// ------------------------------------------------------------ Zone maps --

/// One CG row payload over the two-column layout {1, 2} (both width 4):
/// presence bitmap byte, then the present columns' fixed32 values.
std::string ZoneRow(std::optional<uint32_t> c1, std::optional<uint32_t> c2) {
  std::string out;
  uint8_t bitmap = 0;
  if (c1.has_value()) bitmap |= 1;
  if (c2.has_value()) bitmap |= 2;
  out.push_back(static_cast<char>(bitmap));
  if (c1.has_value()) PutFixed32(&out, *c1);
  if (c2.has_value()) PutFixed32(&out, *c2);
  return out;
}

class ZoneMapSstTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }

  /// Keys 0..n-1, column 1 clustered (value = key * 10), column 2 constant
  /// 500 or always-null. Small blocks force many zone entries.
  void Build(int n, bool null_c2 = false) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile("/zone.sst", &file).ok());
    SstBuildOptions options;
    options.block_size = 256;
    options.zone_columns = {{1, 4}, {2, 4}};
    SstBuilder builder(options, std::move(file));
    for (int i = 0; i < n; ++i) {
      builder.Add(IKey(i, i + 1),
                  ZoneRow(static_cast<uint32_t>(i) * 10,
                          null_c2 ? std::nullopt
                                  : std::optional<uint32_t>(500)));
    }
    ASSERT_TRUE(builder.Finish().ok());
    Open();
  }

  void Open() {
    reader_.reset();
    ASSERT_TRUE(SstReader::Open(env_.get(), "/zone.sst", 1, nullptr, &stats_,
                                &reader_)
                    .ok());
  }

  /// Full forward scan through `filter`; returns rows seen.
  int CountRows(BlockReadFilter* filter) {
    auto iter = reader_->NewIterator(filter);
    int count = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) ++count;
    EXPECT_TRUE(iter->status().ok());
    return count;
  }

  std::unique_ptr<Env> env_;
  Stats stats_;
  std::unique_ptr<SstReader> reader_;
};

TEST_F(ZoneMapSstTest, BuilderWritesPerBlockAndFileZones) {
  Build(400);
  const ZoneMaps* zones = reader_->zone_maps();
  ASSERT_NE(zones, nullptr);
  ASSERT_GT(zones->blocks.size(), 3u);
  for (const ZoneMapEntry& entry : zones->blocks) {
    EXPECT_TRUE(entry.self_contained);  // unique keys never straddle
    ASSERT_EQ(entry.cols.size(), 2u);
    EXPECT_EQ(entry.cols[0].column, 1u);
    ASSERT_TRUE(entry.cols[0].has_values);
    // Column 1 clusters with the key, so its bounds are exactly the key
    // bounds scaled.
    EXPECT_EQ(entry.cols[0].min, entry.first_user_key * 10);
    EXPECT_EQ(entry.cols[0].max, entry.last_user_key * 10);
    ASSERT_TRUE(entry.cols[1].has_values);
    EXPECT_EQ(entry.cols[1].min, 500u);
    EXPECT_EQ(entry.cols[1].max, 500u);
  }
  const ZoneMapEntry* file_zone = reader_->file_zone();
  ASSERT_NE(file_zone, nullptr);
  EXPECT_EQ(file_zone->first_user_key, 0u);
  EXPECT_EQ(file_zone->last_user_key, 399u);
  ASSERT_EQ(file_zone->cols.size(), 2u);
  EXPECT_EQ(file_zone->cols[0].min, 0u);
  EXPECT_EQ(file_zone->cols[0].max, 3990u);
}

TEST_F(ZoneMapSstTest, FilteredScanSkipsNonMatchingBlocks) {
  Build(400);
  // Column 1 spans [0, 3990]; select a narrow mid-range band. Blocks whose
  // band doesn't intersect vanish from the scan without being read.
  ZoneMapScanFilter filter({{1, PredOp::kBetween, 2000, 2100}});
  filter.SetWindow(Slice(), Slice());  // whole file is the skip window
  const uint64_t reads_before = stats_.data_block_reads.load();
  const int rows = CountRows(&filter);
  const uint64_t reads =
      stats_.data_block_reads.load() - reads_before;
  EXPECT_GT(filter.blocks_skipped(), 0u);
  EXPECT_LT(reads, reader_->zone_maps()->blocks.size());
  // Every row of the predicate band survives: skipping is conservative.
  EXPECT_GE(rows, 11);  // keys 200..210 carry values 2000..2100
  EXPECT_LT(rows, 400);

  // Disarmed, the same filter skips nothing and the scan sees every row.
  ZoneMapScanFilter disarmed({{1, PredOp::kBetween, 2000, 2100}});
  EXPECT_EQ(CountRows(&disarmed), 400);
  EXPECT_EQ(disarmed.blocks_skipped(), 0u);
}

TEST_F(ZoneMapSstTest, AllNullColumnIsSkippable) {
  Build(300, /*null_c2=*/true);
  const ZoneMaps* zones = reader_->zone_maps();
  ASSERT_NE(zones, nullptr);
  for (const ZoneMapEntry& entry : zones->blocks) {
    ASSERT_EQ(entry.cols.size(), 2u);
    EXPECT_FALSE(entry.cols[1].has_values);
  }
  // Any predicate on the all-null column fails every row of every block.
  // SeekToFirst always lands in the first block (position-changing calls
  // never skip, so a filter cannot hide an explicitly sought block); every
  // forward hop after it is skipped.
  ZoneMapScanFilter filter({{2, PredOp::kGe, 0}});
  filter.SetWindow(Slice(), Slice());
  const ZoneMapEntry& first = zones->blocks.front();
  const int first_block_rows =
      static_cast<int>(first.last_user_key - first.first_user_key + 1);
  EXPECT_EQ(CountRows(&filter), first_block_rows);
  EXPECT_EQ(filter.blocks_skipped(), zones->blocks.size() - 1);
}

TEST_F(ZoneMapSstTest, CorruptZoneBlockFallsBackToFullScan) {
  Build(400);
  ASSERT_NE(reader_->zone_maps(), nullptr);

  std::string contents;
  ASSERT_TRUE(env_->ReadFileToString("/zone.sst", &contents).ok());
  Slice tail(contents.data() + contents.size() - Footer::kEncodedLength,
             Footer::kEncodedLength);
  Footer footer;
  ASSERT_TRUE(footer.DecodeFrom(&tail).ok());
  ASSERT_GT(footer.zone_handle.size, 0u);
  // Flip a byte inside the zone block: its CRC (or decode) fails and the
  // reader silently drops the zone maps instead of failing Open.
  contents[footer.zone_handle.offset + footer.zone_handle.size / 2] ^= 0xff;
  ASSERT_TRUE(env_->WriteStringToFile(Slice(contents), "/zone.sst").ok());
  Open();
  EXPECT_EQ(reader_->zone_maps(), nullptr);
  EXPECT_EQ(reader_->file_zone(), nullptr);

  // With no zone maps an armed filter has no verdicts: nothing is skipped.
  ZoneMapScanFilter filter({{1, PredOp::kEq, 999999}});
  filter.SetWindow(Slice(), Slice());
  EXPECT_EQ(CountRows(&filter), 400);
  EXPECT_EQ(filter.blocks_skipped(), 0u);
}

TEST_F(ZoneMapSstTest, UnconditionalPredicateSkipsWithoutWindow) {
  Build(400);
  // No window is ever armed. A windowed-only filter must not skip: the
  // merge has not proven sole contribution.
  ZoneMapScanFilter windowed({{1, PredOp::kGt, 999999}});
  EXPECT_EQ(CountRows(&windowed), 400);
  EXPECT_EQ(windowed.blocks_skipped(), 0u);

  // The same predicate marked unconditional (scan planning proved no other
  // source covers column 1) vetoes blocks window-free. SeekToFirst still
  // lands in the first block — position-changing calls never skip — so
  // exactly the first block's rows survive.
  ZoneMapScanFilter filter({{1, PredOp::kGt, 999999}}, {true});
  const ZoneMaps* zones = reader_->zone_maps();
  const ZoneMapEntry& first = zones->blocks.front();
  EXPECT_EQ(CountRows(&filter),
            static_cast<int>(first.last_user_key - first.first_user_key + 1));
  EXPECT_EQ(filter.blocks_skipped(), zones->blocks.size() - 1);
}

TEST_F(ZoneMapSstTest, FileLevelVerdictCountsSkippedFiles) {
  Build(400);
  const ZoneMapEntry* file_zone = reader_->file_zone();
  ASSERT_NE(file_zone, nullptr);
  const size_t blocks = reader_->zone_maps()->blocks.size();

  // Column 1 spans [0, 3990]; an unconditional predicate above the file max
  // rejects the whole file with no window armed and books every block it
  // holds as skipped, plus one whole-file skip.
  ZoneMapScanFilter filter({{1, PredOp::kGt, 999999}}, {true});
  EXPECT_TRUE(filter.CanSkipFile(*file_zone, blocks));
  EXPECT_EQ(filter.files_skipped(), 1u);
  EXPECT_EQ(filter.blocks_skipped(), blocks);

  // A band intersecting the file's range cannot reject it; neither can a
  // failing predicate lacking the unconditional flag (file hops honor the
  // windowed-only contract too).
  ZoneMapScanFilter matching({{1, PredOp::kBetween, 0, 50}}, {true});
  EXPECT_FALSE(matching.CanSkipFile(*file_zone, blocks));
  EXPECT_EQ(matching.files_skipped(), 0u);
  ZoneMapScanFilter no_flag({{1, PredOp::kGt, 999999}});
  EXPECT_FALSE(no_flag.CanSkipFile(*file_zone, blocks));
  EXPECT_EQ(no_flag.files_skipped(), 0u);
}

// ------------------------------------------- RunIterator file-level skips --

class RunZoneSkipTest : public ::testing::Test {
 protected:
  void SetUp() override { env_ = NewMemEnv(); }

  /// One run SST holding keys [lo, hi]: column 1 = key * 10, column 2 = 500.
  std::shared_ptr<FileMetaData> BuildFile(uint64_t number, uint64_t lo,
                                          uint64_t hi) {
    // Appending, not "/" + to_string(number): GCC 12 -Wrestrict false positive.
    std::string name = "/";
    name += std::to_string(number);
    name += ".sst";
    std::unique_ptr<WritableFile> file;
    EXPECT_TRUE(env_->NewWritableFile(name, &file).ok());
    SstBuildOptions options;
    options.block_size = 256;
    options.zone_columns = {{1, 4}, {2, 4}};
    SstBuilder builder(options, std::move(file));
    for (uint64_t k = lo; k <= hi; ++k) {
      builder.Add(IKey(k, k + 1), ZoneRow(static_cast<uint32_t>(k) * 10, 500));
    }
    EXPECT_TRUE(builder.Finish().ok());
    auto meta = std::make_shared<FileMetaData>();
    meta->file_number = number;
    meta->smallest = IKey(lo, lo + 1);
    meta->largest = IKey(hi, hi + 1);
    std::unique_ptr<SstReader> reader;
    EXPECT_TRUE(SstReader::Open(env_.get(), name, number, nullptr, &stats_,
                                &reader)
                    .ok());
    meta->reader = std::move(reader);
    return meta;
  }

  /// Keys 0..299 split over three files; only the last holds column-1
  /// values >= 2000.
  Version::FileList ThreeFileRun() {
    return {BuildFile(1, 0, 99), BuildFile(2, 100, 199),
            BuildFile(3, 200, 299)};
  }

  std::unique_ptr<Env> env_;
  Stats stats_;
};

TEST_F(RunZoneSkipTest, SeekSkipsNonMatchingFileUnopened) {
  Version::FileList run = ThreeFileRun();
  // Seek lands in file 2 (keys 100..199, column 1 in [1000, 1990]); its
  // folded zone fails the predicate, so the file is hopped without a single
  // block fetch and the cursor comes up on file 3's first key.
  ZoneMapScanFilter filter({{1, PredOp::kGe, 2000}}, {true});
  auto iter = NewRunIterator(run, &filter);
  const uint64_t reads_before = stats_.data_block_reads.load();
  iter->Seek(IKey(100, kMaxSequenceNumber));
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(DecodeKey64(ExtractUserKey(iter->key())), 200u);
  EXPECT_EQ(filter.files_skipped(), 1u);
  EXPECT_EQ(stats_.data_block_reads.load() - reads_before, 1u);

  // Without the unconditional flag (and no window) the same seek opens
  // file 2 and positions normally.
  ZoneMapScanFilter no_flag({{1, PredOp::kGe, 2000}});
  auto plain = NewRunIterator(run, &no_flag);
  plain->Seek(IKey(100, kMaxSequenceNumber));
  ASSERT_TRUE(plain->Valid());
  EXPECT_EQ(DecodeKey64(ExtractUserKey(plain->key())), 100u);
  EXPECT_EQ(no_flag.files_skipped(), 0u);
}

TEST_F(RunZoneSkipTest, SeekToFirstSkipsLeadingFiles) {
  Version::FileList run = ThreeFileRun();
  ZoneMapScanFilter filter({{1, PredOp::kGe, 2000}}, {true});
  auto iter = NewRunIterator(run, &filter);
  iter->SeekToFirst();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(DecodeKey64(ExtractUserKey(iter->key())), 200u);
  EXPECT_EQ(filter.files_skipped(), 2u);
  // The surviving file scans to its end.
  int rows = 0;
  for (; iter->Valid(); iter->Next()) ++rows;
  EXPECT_EQ(rows, 100);
}

TEST_F(ZoneMapSstTest, FileWithoutZoneColumnsHasNoZoneMaps) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_->NewWritableFile("/zone.sst", &file).ok());
  SstBuildOptions plain_options;
  plain_options.block_size = 256;
  SstBuilder builder(plain_options, std::move(file));
  for (int i = 0; i < 200; ++i) {
    builder.Add(IKey(i, i + 1), ZoneRow(1, 2));
  }
  ASSERT_TRUE(builder.Finish().ok());
  Open();
  EXPECT_EQ(reader_->zone_maps(), nullptr);
  ZoneMapScanFilter filter({{1, PredOp::kEq, 999999}});
  filter.SetWindow(Slice(), Slice());
  EXPECT_EQ(CountRows(&filter), 200);
}

// ZoneMapScanFilter verdict unit tests: a zone of keys [10, 20] whose
// column 1 values span [100, 200].
class ZoneMapFilterTest : public ::testing::Test {
 protected:
  ZoneMapFilterTest() {
    zone_.first_user_key = 10;
    zone_.last_user_key = 20;
    zone_.self_contained = true;
    zone_.cols = {{1, true, 100, 200}};
  }

  /// CanSkip under an unbounded armed window.
  bool Skips(const ScanPredicate& pred) {
    ZoneMapScanFilter filter({pred});
    filter.SetWindow(Slice(), Slice());
    return filter.CanSkip(zone_, 1);
  }

  ZoneMapEntry zone_;
};

TEST_F(ZoneMapFilterTest, RangeBoundsAreInclusive) {
  // Predicates touching exactly min or max may match: never skip.
  EXPECT_FALSE(Skips({1, PredOp::kEq, 100}));
  EXPECT_FALSE(Skips({1, PredOp::kEq, 200}));
  EXPECT_FALSE(Skips({1, PredOp::kLe, 100}));
  EXPECT_FALSE(Skips({1, PredOp::kGe, 200}));
  EXPECT_FALSE(Skips({1, PredOp::kBetween, 200, 300}));
  EXPECT_FALSE(Skips({1, PredOp::kBetween, 50, 100}));
  // One past the bound provably fails.
  EXPECT_TRUE(Skips({1, PredOp::kEq, 99}));
  EXPECT_TRUE(Skips({1, PredOp::kEq, 201}));
  EXPECT_TRUE(Skips({1, PredOp::kLt, 100}));
  EXPECT_TRUE(Skips({1, PredOp::kGt, 200}));
  EXPECT_TRUE(Skips({1, PredOp::kBetween, 201, 300}));
  EXPECT_TRUE(Skips({1, PredOp::kBetween, 50, 99}));
}

TEST_F(ZoneMapFilterTest, UnknownColumnGivesNoVerdict) {
  EXPECT_FALSE(Skips({7, PredOp::kEq, 0}));
}

TEST_F(ZoneMapFilterTest, WindowGatesEveryVerdict) {
  ZoneMapScanFilter filter({{1, PredOp::kEq, 99}});
  // Disarmed: no skip even though the predicate provably fails.
  EXPECT_FALSE(filter.CanSkip(zone_, 1));
  // Armed but the window ends inside the zone (bound 14 < last key 20):
  // a tied source may still contribute to the zone's tail keys.
  const std::string limit = EncodeKey64(15);
  filter.SetWindow(Slice(limit), Slice());
  EXPECT_FALSE(filter.CanSkip(zone_, 1));
  // Window covers the zone: skip, counting the avoided block reads.
  const std::string wide = EncodeKey64(1000);
  filter.SetWindow(Slice(wide), Slice());
  EXPECT_TRUE(filter.CanSkip(zone_, 3));
  EXPECT_TRUE(filter.CanSkip(zone_, 2));
  EXPECT_EQ(filter.blocks_skipped(), 5u);
  // ClearWindow disarms again.
  filter.ClearWindow();
  EXPECT_FALSE(filter.CanSkip(zone_, 1));
  // The scan's hi bound clamps the window below the zone's tail too.
  const std::string hi = EncodeKey64(12);
  filter.SetWindow(Slice(), Slice(hi));
  EXPECT_FALSE(filter.CanSkip(zone_, 1));
}

TEST_F(ZoneMapFilterTest, StraddlingBlocksNeverSkip) {
  zone_.self_contained = false;
  EXPECT_FALSE(Skips({1, PredOp::kEq, 99}));
}

TEST(ZoneMapStraddleTest, BuilderMarksKeySpanningBlocks) {
  // Many versions of one user key force it across block boundaries; every
  // block it touches must be !self_contained.
  auto env = NewMemEnv();
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env->NewWritableFile("/straddle.sst", &file).ok());
  SstBuildOptions options;
  options.block_size = 128;
  options.zone_columns = {{1, 4}, {2, 4}};
  SstBuilder builder(options, std::move(file));
  builder.Add(IKey(1, 500), ZoneRow(7, 8));
  for (int s = 400; s > 0; --s) {  // one hot key, descending seq
    builder.Add(IKey(2, s, kTypePartialRow), ZoneRow(s, std::nullopt));
  }
  builder.Add(IKey(3, 1), ZoneRow(9, 10));
  ASSERT_TRUE(builder.Finish().ok());
  std::unique_ptr<SstReader> reader;
  ASSERT_TRUE(
      SstReader::Open(env.get(), "/straddle.sst", 1, nullptr, nullptr, &reader)
          .ok());
  const ZoneMaps* zones = reader->zone_maps();
  ASSERT_NE(zones, nullptr);
  ASSERT_GT(zones->blocks.size(), 2u);
  int straddling = 0;
  for (const ZoneMapEntry& entry : zones->blocks) {
    if (!entry.self_contained) ++straddling;
  }
  // Key 2 spans every interior block boundary.
  EXPECT_GE(straddling, 2);
}

// ----------------------------------------------------------- BlockCache --

TEST(BlockCacheTest, InsertLookupErase) {
  BlockCache cache(1 << 20);
  auto block = std::make_shared<Block>(std::string(100, 'x'));
  cache.Insert(1, 0, block);
  EXPECT_EQ(cache.Lookup(1, 0), block);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_EQ(cache.Lookup(2, 0), nullptr);
  cache.EraseFile(1);
  EXPECT_EQ(cache.Lookup(1, 0), nullptr);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  BlockCache cache(1000);
  auto make_block = [] { return std::make_shared<Block>(std::string(300, 'x')); };
  cache.Insert(1, 0, make_block());
  cache.Insert(1, 1, make_block());
  ASSERT_NE(cache.Lookup(1, 0), nullptr);  // touch 0: now 1 is LRU
  cache.Insert(1, 2, make_block());        // evicts 1
  EXPECT_NE(cache.Lookup(1, 0), nullptr);
  EXPECT_EQ(cache.Lookup(1, 1), nullptr);
  EXPECT_NE(cache.Lookup(1, 2), nullptr);
}

TEST(BlockCacheTest, ChargeTracksUsage) {
  BlockCache cache(1 << 20);
  EXPECT_EQ(cache.charge(), 0u);
  cache.Insert(1, 0, std::make_shared<Block>(std::string(1000, 'x')));
  EXPECT_GT(cache.charge(), 1000u);
  cache.EraseFile(1);
  EXPECT_EQ(cache.charge(), 0u);
}

}  // namespace
}  // namespace laser

// Property sweeps (TEST_P): the bloom false-positive rate across bits per key,
// and scan order over adversarial key patterns. The randomized history
// checked against a reference model under every layout is model_sweep_test.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "laser/laser_db.h"
#include "sst/bloom.h"
#include "util/coding.h"
#include "util/random.h"

namespace laser {
namespace {

// ---------------------------------------------------------- bloom sweep --

class BloomFprSweep : public ::testing::TestWithParam<int> {};

TEST_P(BloomFprSweep, FalsePositiveRateShrinksWithBits) {
  const int bits = GetParam();
  BloomFilterBuilder builder(bits);
  for (uint64_t i = 0; i < 5000; ++i) builder.AddKey(EncodeKey64(i * 3));
  const std::string data = builder.Finish();
  BloomFilterReader reader((Slice(data)));

  // No false negatives, ever.
  for (uint64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(reader.KeyMayMatch(EncodeKey64(i * 3)));
  }
  int fp = 0;
  const int probes = 5000;
  for (int i = 0; i < probes; ++i) {
    if (reader.KeyMayMatch(EncodeKey64(1000000 + i))) ++fp;
  }
  const double fpr = static_cast<double>(fp) / probes;
  // Loose theoretical envelope: (0.6185)^bits, doubled for slack.
  const double bound = 2.0 * std::pow(0.6185, bits) + 0.005;
  EXPECT_LT(fpr, bound) << "bits=" << bits << " fpr=" << fpr;
}

INSTANTIATE_TEST_SUITE_P(BitsPerKey, BloomFprSweep,
                         ::testing::Values(4, 6, 8, 10, 12, 16));

// -------------------------------------------------- key-order invariants --

class KeyOrderSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyOrderSweep, ScanOrderEqualsNumericOrderForRandomKeys) {
  auto env = NewMemEnv();
  LaserOptions options;
  options.env = env.get();
  options.path = "/order";
  options.schema = Schema::UniformInt32(2);
  options.num_levels = 3;
  options.cg_config = CgConfig::ColumnOnly(2, 3);
  options.write_buffer_size = 8 * 1024;
  options.level0_bytes = 16 * 1024;
  options.target_sst_size = 8 * 1024;
  std::unique_ptr<LaserDB> db;
  ASSERT_TRUE(LaserDB::Open(options, &db).ok());

  Random rng(GetParam());
  std::set<uint64_t> keys;
  for (int i = 0; i < 2000; ++i) {
    // Adversarial key patterns: clustered lows, huge highs, bit patterns.
    uint64_t key;
    switch (rng.Uniform(4)) {
      case 0: key = rng.Uniform(100); break;
      case 1: key = (1ull << 32) + rng.Uniform(100); break;
      case 2: key = rng.Next(); break;
      default: key = ~rng.Uniform(1000); break;
    }
    keys.insert(key);
    ASSERT_TRUE(db->Insert(key, {key & 0xffffffff, 1}).ok());
  }
  ASSERT_TRUE(db->CompactUntilStable().ok());

  auto scan = db->NewScan(0, ~0ull, {1});
  auto expected = keys.begin();
  for (; scan->Valid(); scan->Next(), ++expected) {
    ASSERT_NE(expected, keys.end());
    EXPECT_EQ(scan->key(), *expected);
  }
  EXPECT_EQ(expected, keys.end());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyOrderSweep, ::testing::Range<uint64_t>(1, 6));

}  // namespace
}  // namespace laser

// Monkey bloom-allocation solver tests: optimality shape (bits non-increasing
// with level depth), budget conservation, crossover-to-zero behavior, and the
// LaserOptions plumbing that derives the per-level vector.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "cost/bloom_allocation.h"
#include "laser/options.h"
#include "util/env.h"

namespace laser {
namespace {

std::vector<double> GeometricLevels(int levels, double ratio,
                                    double level0 = 1000.0) {
  std::vector<double> entries(levels);
  double n = level0;
  for (int i = 0; i < levels; ++i) {
    entries[i] = n;
    n *= ratio;
  }
  return entries;
}

TEST(BloomAllocationTest, BitsNonIncreasingWithDepth) {
  for (const double ratio : {2.0, 4.0, 10.0}) {
    const auto entries = GeometricLevels(8, ratio);
    const auto alloc = SolveMonkeyAllocation(entries, 10.0);
    ASSERT_EQ(alloc.bits_per_key.size(), entries.size());
    for (size_t i = 1; i < alloc.bits_per_key.size(); ++i) {
      EXPECT_LE(alloc.bits_per_key[i], alloc.bits_per_key[i - 1] + 1e-9)
          << "ratio=" << ratio << " level=" << i;
    }
    // The deepest level must get strictly fewer bits than the shallowest:
    // a uniform answer would mean the solver did nothing.
    EXPECT_LT(alloc.bits_per_key.back(), alloc.bits_per_key.front() - 1.0);
  }
}

TEST(BloomAllocationTest, BudgetConservedWithinRounding) {
  const auto entries = GeometricLevels(8, 2.0);
  double total_entries = 0;
  for (double e : entries) total_entries += e;
  const double avg = 10.0;
  const auto alloc = SolveMonkeyAllocation(entries, avg);
  double spent = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    spent += entries[i] * alloc.bits_per_key[i];
  }
  // No level hit the 40-bit cap at this shape, so the optimum spends the
  // whole budget (up to float noise).
  EXPECT_NEAR(spent, avg * total_entries, avg * total_entries * 1e-9);
  EXPECT_NEAR(alloc.total_bits, spent, spent * 1e-9);
}

TEST(BloomAllocationTest, BeatsUniformOnExpectedFpSum) {
  for (const double ratio : {2.0, 4.0}) {
    const auto entries = GeometricLevels(9, ratio);
    const auto monkey = SolveMonkeyAllocation(entries, 10.0);
    const auto uniform = UniformAllocation(entries, 10.0);
    EXPECT_LT(monkey.expected_sum_fpr, uniform.expected_sum_fpr * 0.75)
        << "ratio=" << ratio;
  }
}

TEST(BloomAllocationTest, TinyBudgetZerosDeepLevelsFirst) {
  // At 0.5 bits/key average over a T=4 tree the unconstrained optimum goes
  // negative on the deepest level; the solver must clamp it to exactly zero
  // (no filter block), never to negative bits.
  const auto entries = GeometricLevels(8, 4.0);
  const auto alloc = SolveMonkeyAllocation(entries, 0.5);
  EXPECT_EQ(alloc.bits_per_key.back(), 0.0);
  for (size_t i = 0; i < alloc.bits_per_key.size(); ++i) {
    EXPECT_GE(alloc.bits_per_key[i], 0.0) << i;
  }
  // The freed memory concentrates in the shallow levels.
  EXPECT_GT(alloc.bits_per_key.front(), 0.5);
  // Zeroed levels contribute fpr=1 each to the expected sum.
  EXPECT_GE(alloc.expected_sum_fpr, 1.0);
}

TEST(BloomAllocationTest, CapBoundsShallowLevels) {
  // A huge budget would give tiny levels absurd allocations; the cap holds.
  const auto entries = GeometricLevels(6, 10.0);
  const auto alloc = SolveMonkeyAllocation(entries, 35.0, 40.0);
  for (double b : alloc.bits_per_key) {
    EXPECT_LE(b, 40.0 + 1e-9);
    EXPECT_GE(b, 0.0);
  }
  EXPECT_EQ(alloc.bits_per_key.front(), 40.0);
}

TEST(BloomAllocationTest, DegenerateInputs) {
  EXPECT_TRUE(SolveMonkeyAllocation({}, 10.0).bits_per_key.empty());
  const auto zero_budget = SolveMonkeyAllocation({100.0, 200.0}, 0.0);
  EXPECT_EQ(zero_budget.bits_per_key, (std::vector<double>{0.0, 0.0}));
  // Empty levels get no bits and don't eat budget.
  const auto holes = SolveMonkeyAllocation({100.0, 0.0, 400.0}, 10.0);
  EXPECT_EQ(holes.bits_per_key[1], 0.0);
  EXPECT_GT(holes.bits_per_key[0], holes.bits_per_key[2]);
  EXPECT_NEAR(holes.total_bits, 10.0 * 500.0, 1e-6);
}

TEST(BloomAllocationTest, EqualLevelsDegradeToUniform) {
  const auto alloc = SolveMonkeyAllocation({500.0, 500.0, 500.0}, 8.0);
  for (double b : alloc.bits_per_key) EXPECT_NEAR(b, 8.0, 1e-9);
}

// -- probe-weighted objective --

TEST(BloomAllocationTest, UnitProbeWeightsMatchClassicMonkey) {
  const auto entries = GeometricLevels(8, 2.0);
  const auto plain = SolveMonkeyAllocation(entries, 10.0);
  const auto weighted =
      SolveMonkeyAllocation(entries, 10.0, 40.0, std::vector<double>(8, 1.0));
  // Any common scale factor on the weights must cancel (only ratios matter).
  const auto scaled =
      SolveMonkeyAllocation(entries, 10.0, 40.0, std::vector<double>(8, 123.0));
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_NEAR(weighted.bits_per_key[i], plain.bits_per_key[i], 1e-9) << i;
    EXPECT_NEAR(scaled.bits_per_key[i], plain.bits_per_key[i], 1e-9) << i;
  }
}

TEST(BloomAllocationTest, ProbeWeightsShiftBitsTowardHotLevels) {
  // Two equal-sized levels, one probed 8x as often: the optimum moves bits
  // from the cold filter to the hot one (fpr_i ∝ n_i/w_i at the optimum)
  // while spending exactly the same total memory.
  const std::vector<double> entries = {1000.0, 1000.0};
  const auto alloc = SolveMonkeyAllocation(entries, 10.0, 40.0, {8.0, 1.0});
  EXPECT_GT(alloc.bits_per_key[0], alloc.bits_per_key[1] + 1.0);
  EXPECT_NEAR(alloc.total_bits, 10.0 * 2000.0, 1e-6);
  // ln(8)/ln²2 ≈ 4.33 bits of separation in the unconstrained closed form.
  EXPECT_NEAR(alloc.bits_per_key[0] - alloc.bits_per_key[1],
              std::log(8.0) / (std::log(2.0) * std::log(2.0)), 1e-6);
}

TEST(BloomAllocationTest, WeightedOptimumBeatsClassicOnWeightedObjective) {
  // Deep-heavy occupancy with deep-heavy probe weights (the shape a walk
  // with a file-range pre-pass actually produces): classic Monkey fattens
  // the rarely-probed shallow filters too much.
  const auto entries = GeometricLevels(8, 2.0);
  const std::vector<double> weights = {0.05, 0.1, 0.2, 0.3,
                                       0.45, 0.6, 0.75, 1.0};
  const auto classic = SolveMonkeyAllocation(entries, 10.0);
  const auto weighted = SolveMonkeyAllocation(entries, 10.0, 40.0, weights);
  double classic_cost = 0, weighted_cost = 0;
  for (size_t i = 0; i < entries.size(); ++i) {
    classic_cost += weights[i] * BloomFpr(classic.bits_per_key[i]);
    weighted_cost += weights[i] * BloomFpr(weighted.bits_per_key[i]);
  }
  EXPECT_LT(weighted_cost, classic_cost * 0.95);
}

TEST(BloomAllocationTest, ZeroWeightLevelGetsNoFilterButKeepsBudgetEqual) {
  // A level the walk never reaches gets no filter, but its entries still
  // count toward the budget, which is respent on the probed levels — the
  // equal-total-memory comparison against uniform stays honest.
  const std::vector<double> entries = {1000.0, 1000.0, 1000.0};
  const auto alloc =
      SolveMonkeyAllocation(entries, 10.0, 40.0, {1.0, 0.0, 1.0});
  EXPECT_EQ(alloc.bits_per_key[1], 0.0);
  EXPECT_NEAR(alloc.bits_per_key[0], 15.0, 1e-9);
  EXPECT_NEAR(alloc.bits_per_key[2], 15.0, 1e-9);
  EXPECT_NEAR(alloc.total_bits, 10.0 * 3000.0, 1e-6);
}

// -- LaserOptions plumbing --

LaserOptions BaseOptions() {
  // Finalize only reads the env pointer; one MemEnv serves every test.
  static const std::unique_ptr<Env> env = NewMemEnv();
  LaserOptions options;
  options.env = env.get();
  options.path = "/alloc_test";
  options.schema = Schema::UniformInt32(8);
  options.num_levels = 8;
  options.size_ratio = 2;
  return options;
}

TEST(BloomAllocationTest, FinalizeDerivesUniformVector) {
  LaserOptions options = BaseOptions();
  ASSERT_TRUE(options.Finalize().ok());
  ASSERT_EQ(options.bloom_bits_per_level.size(), 8u);
  for (int level = 0; level < 8; ++level) {
    EXPECT_DOUBLE_EQ(options.bloom_bits_for_level(level), 10.0) << level;
  }
}

TEST(BloomAllocationTest, FinalizeDerivesMonkeyVectorAtSameBudget) {
  LaserOptions options = BaseOptions();
  options.bloom_allocation = BloomAllocation::kMonkey;
  ASSERT_TRUE(options.Finalize().ok());
  ASSERT_EQ(options.bloom_bits_per_level.size(), 8u);
  const auto entries = options.ExpectedEntriesPerLevel();
  double budget = 0, spent = 0, total_entries = 0;
  for (int level = 0; level < 8; ++level) {
    EXPECT_LE(options.bloom_bits_for_level(level),
              options.bloom_bits_for_level(level > 0 ? level - 1 : 0) + 1e-9);
    spent += entries[level] * options.bloom_bits_for_level(level);
    total_entries += entries[level];
  }
  budget = 10.0 * total_entries;
  EXPECT_NEAR(spent, budget, budget * 1e-6);
  EXPECT_LT(options.bloom_bits_for_level(7), 10.0);
  EXPECT_GT(options.bloom_bits_for_level(0), 10.0);
}

}  // namespace
}  // namespace laser

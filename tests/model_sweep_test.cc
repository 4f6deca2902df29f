// The seeded model sweep: a random history of inserts, partial updates,
// deletes, multi-key WriteBatches (cross-shard two-phase commits on the
// sharded engine), flushes, CompactUntilStable, reopens and SetTargetDesign
// calls left converging while writes continue, checked against test::Model.
// Every few hundred ops, and once more on the settled tree at the end, point
// reads and random range x projection x 0-2 predicate scans go through every
// consumer (tests/model.h); one set of scans is opened before a burst of
// writes and the compactions after it, and must not see them (a snapshot
// cut).
//
// Each seed runs on a LaserDB and on a 2-shard ShardedLaserDB. The design
// rotates with the seed, and every failure names its seed. Tier-1 runs a few
// seeds; nightly runs the disabled wide range:
//
//   model_sweep_test --gtest_also_run_disabled_tests --gtest_filter='DISABLED_*'

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "laser/laser_db.h"
#include "laser/sharded_laser_db.h"
#include "tests/model.h"
#include "tests/test_util.h"
#include "util/random.h"

namespace laser {
namespace {

constexpr int kColumns = 8;
constexpr int kLevels = 4;
constexpr uint64_t kKeySpace = 600;
constexpr int kOps = 900;
constexpr int kCheckEvery = 300;
constexpr uint64_t kHotKeys = 100;

const std::vector<test::DesignParam>& Designs() {
  static const std::vector<test::DesignParam> designs = {
      {"row", 0}, {"cg2", 2}, {"cg3", 3}, {"htap", -1}, {"col", 1}};
  return designs;
}

CgConfig Design(size_t i) {
  return test::DesignConfig(Designs()[i % Designs().size()], kColumns, kLevels);
}

Status Open(const LaserOptions& options, std::unique_ptr<LaserDB>* db) {
  return LaserDB::Open(options, db);
}

Status Open(const LaserOptions& options, std::unique_ptr<ShardedLaserDB>* db) {
  ShardedLaserOptions sharded;
  sharded.base = options;
  sharded.num_shards = 2;
  sharded.key_domain = kKeySpace;
  return ShardedLaserDB::Open(sharded, db);
}

Status SetTargetDesign(LaserDB* db, const CgConfig& design) {
  return db->SetTargetDesign(design);
}

Status SetTargetDesign(ShardedLaserDB* db, const CgConfig& design) {
  for (int i = 0; i < db->num_shards(); ++i) {
    LASER_RETURN_IF_ERROR(db->shard(i)->SetTargetDesign(design));
  }
  return Status::OK();
}

void ExpectDesign(LaserDB* db, const CgConfig& design) {
  EXPECT_EQ(db->CurrentDesign(), design);
}

void ExpectDesign(ShardedLaserDB* db, const CgConfig& design) {
  for (int i = 0; i < db->num_shards(); ++i) {
    EXPECT_EQ(db->shard(i)->CurrentDesign(), design) << "shard " << i;
  }
}

ColumnValue RandomValue(Random* rng) { return rng->Uniform(1u << 30); }

std::vector<ColumnValue> RandomRow(Random* rng) {
  std::vector<ColumnValue> row(kColumns);
  for (ColumnValue& v : row) v = RandomValue(rng);
  return row;
}

/// A random non-empty sorted column subset with fresh values.
std::vector<ColumnValuePair> RandomPartialRow(Random* rng) {
  std::vector<ColumnValuePair> values;
  for (int c = 1; c <= kColumns; ++c) {
    if (rng->OneIn(4)) values.push_back({c, RandomValue(rng)});
  }
  if (values.empty()) {
    values.push_back({1 + static_cast<int>(rng->Uniform(kColumns)), RandomValue(rng)});
  }
  return values;
}

/// One column, every column, or a random subset.
ColumnSet RandomProjection(Random* rng) {
  switch (rng->Uniform(3)) {
    case 0:
      return {1 + static_cast<int>(rng->Uniform(kColumns))};
    case 1:
      return MakeColumnRange(1, kColumns);
    default: {
      ColumnSet projection;
      for (int c = 1; c <= kColumns; ++c) {
        if (rng->OneIn(2)) projection.push_back(c);
      }
      if (projection.empty()) projection = {kColumns};
      return projection;
    }
  }
}

/// 0-2 conjuncts over `projection`. An operand is sometimes a stored value,
/// so kEq and kNe hit.
ScanSpec RandomSpec(Random* rng, const test::Model& model, const ColumnSet& projection) {
  ScanSpec spec;
  const uint64_t conjuncts = rng->Uniform(3);
  for (uint64_t i = 0; i < conjuncts; ++i) {
    ScanPredicate pred;
    pred.column = projection[rng->Uniform(projection.size())];
    pred.op = static_cast<PredOp>(rng->Uniform(7));
    pred.operand = RandomValue(rng);
    const auto& rows = model.rows();
    if (!rows.empty() && rng->OneIn(3)) {
      auto it = rows.lower_bound(rng->Uniform(kKeySpace));
      if (it == rows.end()) it = rows.begin();
      const auto cell = it->second.find(pred.column);
      if (cell != it->second.end()) pred.operand = cell->second;
    }
    if (pred.op == PredOp::kBetween) {
      pred.operand2 = pred.operand + rng->Uniform(1u << 28);
    }
    spec.predicates.push_back(pred);
  }
  return spec;
}

/// A random key range: a quarter of the time the whole key space.
std::pair<uint64_t, uint64_t> RandomRange(Random* rng) {
  if (rng->OneIn(4)) return {0, kKeySpace};
  const uint64_t lo = rng->Uniform(kKeySpace);
  return {lo, lo + rng->Uniform(kKeySpace / 2)};
}

/// Most writes go to a hot key window that slides across the key space over
/// the history, as time-ordered keys do, so older key ranges settle into deep
/// levels that no newer run overlaps; the rest go anywhere.
uint64_t RandomKey(Random* rng, int op) {
  if (rng->OneIn(8)) return rng->Uniform(kKeySpace);
  const uint64_t hot = static_cast<uint64_t>(op) * (kKeySpace - kHotKeys) / kOps;
  return std::min(hot, kKeySpace - kHotKeys) + rng->Uniform(kHotKeys);
}

/// One random write at history step `op`, applied to the model once the
/// engine acknowledges it.
template <typename Db>
void RandomWrite(Random* rng, int op, Db* db, test::Model* model) {
  const uint64_t key = RandomKey(rng, op);
  const uint64_t kind = rng->Uniform(20);
  if (kind < 9) {
    const std::vector<ColumnValue> row = RandomRow(rng);
    ASSERT_TRUE(db->Insert(key, row).ok());
    model->Insert(key, row);
  } else if (kind < 14) {
    const std::vector<ColumnValuePair> values = RandomPartialRow(rng);
    ASSERT_TRUE(db->Update(key, values).ok());
    model->Update(key, values);
  } else if (kind < 17) {
    ASSERT_TRUE(db->Delete(key).ok());
    model->Delete(key);
  } else {
    // Keys anywhere in the key space, so most batches span both shards.
    WriteBatch batch;
    const uint64_t ops = 2 + rng->Uniform(3);
    for (uint64_t i = 0; i < ops; ++i) {
      const uint64_t batch_key = rng->Uniform(kKeySpace);
      switch (rng->Uniform(3)) {
        case 0:
          batch.Insert(batch_key, RandomRow(rng));
          break;
        case 1:
          batch.Update(batch_key, RandomPartialRow(rng));
          break;
        default:
          batch.Delete(batch_key);
      }
    }
    ASSERT_TRUE(db->Write(batch).ok());
    model->Apply(batch);
  }
}

/// Point reads of a random window, then random scans through every consumer.
template <typename Db>
void CheckRandomReads(Random* rng, Db* db, const test::Model& model, int scans) {
  const uint64_t first = rng->Uniform(kKeySpace);
  const ColumnSet columns = RandomProjection(rng);
  ASSERT_NO_FATAL_FAILURE(test::ExpectReadsMatch(db, model, first, first + 63, columns));
  for (int i = 0; i < scans; ++i) {
    const auto [lo, hi] = RandomRange(rng);
    const ColumnSet projection = RandomProjection(rng);
    const ScanSpec spec = RandomSpec(rng, model, projection);
    SCOPED_TRACE(::testing::Message() << "scan [" << lo << ", " << hi << "] width "
                                      << projection.size() << " predicates "
                                      << spec.predicates.size());
    ASSERT_NO_FATAL_FAILURE(test::ExpectScanMatches(db, model, lo, hi, projection, spec));
  }
}

template <typename Db>
void RunHistory(uint64_t seed) {
  Random rng(0x5ca4ba7c + seed * 7919);
  // The design rotates with the seed, and every history sets a morph
  // target, rotating over the other designs, at a random op. Odd seeds set
  // a second target a few ops later, often while the first is pending.
  const size_t n = Designs().size();
  const size_t design = seed % n;
  const size_t target = (design + 1 + (seed / n) % (n - 1)) % n;
  const size_t second_target = (target + 1 + (seed / 2) % (n - 1)) % n;
  const int morph_at = 1 + static_cast<int>(rng.Uniform(kOps - 20));
  const int second_at = seed % 2 == 1 ? morph_at + 1 + static_cast<int>(rng.Uniform(20)) : 0;
  ::testing::Message history;
  history << "seed " << seed << " design " << Designs()[design].name << " morph to "
          << Designs()[target].name << " at op " << morph_at;
  if (second_at > 0) {
    history << ", to " << Designs()[second_target].name << " at op " << second_at;
  }
  SCOPED_TRACE(history);

  auto env = NewMemEnv();
  LaserOptions options = test::TinyTreeOptions(env.get(), "/sweep", kColumns, kLevels);
  options.cg_config = Design(design);
  // Small levels, so most rows settle in the bottom level, where blocks hold
  // one version per key. Even seeds drain L0 on every flush; odd seeds let
  // up to four L0 files stack over the levels below.
  options.level0_bytes = 2 * 1024;
  options.level0_file_compaction_trigger = seed % 2 == 0 ? 1 : 4;
  options.background_threads = 2;
  std::unique_ptr<Db> db;
  ASSERT_TRUE(Open(options, &db).ok());

  test::Model model;
  for (int op = 1; op <= kOps; ++op) {
    const uint64_t event = rng.Uniform(200);
    if (op == morph_at || op == second_at) {
      // Left converging: the background morph runs while the writes that
      // follow continue.
      ASSERT_TRUE(
          SetTargetDesign(db.get(), Design(op == morph_at ? target : second_target)).ok());
    } else if (event < 4) {
      ASSERT_TRUE(db->Flush().ok());
    } else if (event < 5) {
      ASSERT_TRUE(db->CompactUntilStable().ok());
    } else if (event < 6) {
      db.reset();
      ASSERT_TRUE(Open(options, &db).ok()) << "reopen at op " << op;
    } else {
      ASSERT_NO_FATAL_FAILURE(RandomWrite(&rng, op, db.get(), &model)) << "op " << op;
    }
    if (op % kCheckEvery == 0) {
      SCOPED_TRACE(::testing::Message() << "check at op " << op);
      ASSERT_NO_FATAL_FAILURE(CheckRandomReads(&rng, db.get(), model, 4));
    }
  }

  // Snapshot cut: scans opened before a burst of writes, a flush and the
  // compactions that fold away the versions they read see none of them.
  {
    const auto [lo, hi] = RandomRange(&rng);
    const ColumnSet projection = RandomProjection(&rng);
    const ScanSpec spec = RandomSpec(&rng, model, projection);
    auto scans = test::OpenConsumerScans(db.get(), lo, hi, projection, spec);
    const test::Rows want = test::Expected(model, lo, hi, projection, spec);
    for (int i = 0; i < 100; ++i) {
      ASSERT_NO_FATAL_FAILURE(RandomWrite(&rng, kOps + i, db.get(), &model));
    }
    ASSERT_TRUE(db->Flush().ok());
    ASSERT_TRUE(db->CompactUntilStable().ok());
    SCOPED_TRACE("snapshot cut");
    ASSERT_NO_FATAL_FAILURE(test::ExpectScanMatches(&scans, want));
  }

  // The settled tree: deep column-group runs, and whole-table scans of one
  // column with no predicate, which AggregateAll answers from zone maps
  // wherever a block's rows reach the output as stored.
  ASSERT_TRUE(db->CompactUntilStable().ok());
  SCOPED_TRACE("settled");
  ExpectDesign(db.get(), Design(second_at > 0 ? second_target : target));
  const ColumnSet all = MakeColumnRange(1, kColumns);
  ASSERT_NO_FATAL_FAILURE(test::ExpectReadsMatch(db.get(), model, 0, kKeySpace, all));
  for (int c = 1; c <= kColumns; ++c) {
    SCOPED_TRACE(::testing::Message() << "column " << c);
    ASSERT_NO_FATAL_FAILURE(test::ExpectScanMatches(db.get(), model, 0, kKeySpace, {c}));
  }
  ASSERT_NO_FATAL_FAILURE(CheckRandomReads(&rng, db.get(), model, 8));
}

class ModelSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelSweepTest, SingleEngine) { RunHistory<LaserDB>(GetParam()); }

TEST_P(ModelSweepTest, TwoShards) { RunHistory<ShardedLaserDB>(GetParam()); }

std::string SeedName(const ::testing::TestParamInfo<uint64_t>& info) {
  return "seed" + std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelSweepTest, ::testing::Range<uint64_t>(0, 10),
                         SeedName);

INSTANTIATE_TEST_SUITE_P(DISABLED_ManySeeds, ModelSweepTest,
                         ::testing::Range<uint64_t>(10, 510), SeedName);

}  // namespace
}  // namespace laser
